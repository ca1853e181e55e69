//! The equivalence relation `Eq` over node attributes (§IV-C).
//!
//! `Eq` represents the attribute assignment `F_A` of a canonical-graph
//! population symbolically: each class `[x.A]Eq` groups attribute keys that
//! are forced equal by enforced GFDs, optionally together with a constant.
//! Binding two distinct constants to one class is the *conflict* that
//! decides satisfiability/implication.
//!
//! The structure is a union-find with:
//!
//! * per-class constant bindings (merging classes with distinct constants
//!   raises [`Conflict`]);
//! * per-class *watchers* — registrations of pending matches (the paper's
//!   inverted index) that must be rechecked when the class gains a constant
//!   or is merged;
//! * a monotone *op log* ([`EqOp`]) replayable on another copy — exactly
//!   what the parallel workers broadcast as `ΔEq`.

use crate::error::{AttrKey, Conflict};
use gfd_graph::ValueId;
use rustc_hash::FxHashMap;

/// A monotone update to an [`EqRel`], replayable on any other copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EqOp {
    /// Ensure the class `[key]` exists (attribute added without a value).
    Ensure(AttrKey),
    /// Bind constant `value` to the class of `key`.
    Bind(AttrKey, ValueId),
    /// Merge the classes of the two keys.
    Merge(AttrKey, AttrKey),
}

/// A watcher registration: pending-entry id plus the registration epoch
/// (stale duplicates are skipped on wake).
pub type Watcher = (u32, u32);

/// The result of a mutating operation.
#[derive(Debug, Default)]
pub struct Effect {
    /// Did the operation change the relation (class created, constant set,
    /// classes merged)?
    pub changed: bool,
    /// Watchers to recheck, drained from the affected classes.
    pub woken: Vec<Watcher>,
}

/// The equivalence relation over attribute keys.
#[derive(Clone, Debug, Default)]
pub struct EqRel {
    slot_of: FxHashMap<AttrKey, u32>,
    keys: Vec<AttrKey>,
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Valid at roots only.
    constant: Vec<Option<ValueId>>,
    /// Valid at roots only.
    watchers: Vec<Vec<Watcher>>,
    /// Per *key* (not per class): was this attribute forced to exist by an
    /// enforcement (bind/merge endpoint)? Keys created only to register
    /// premise watchers stay *latent*: the population is free not to carry
    /// them, so they satisfy no existence requirement and are skipped by
    /// model extraction. (Latent keys are always singleton classes with no
    /// constant — any bind or merge on them materializes them.)
    materialized: Vec<bool>,
    version: u64,
}

impl EqRel {
    /// An empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of attribute keys tracked.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// True iff no key is tracked.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// A counter bumped on every state change; cheap dirty-checking for the
    /// `Y ⊆ EqH` test.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Ensure `[key]` exists; returns `(slot, created)`.
    pub fn ensure(&mut self, key: AttrKey) -> (u32, bool) {
        if let Some(&s) = self.slot_of.get(&key) {
            return (s, false);
        }
        let s = self.keys.len() as u32;
        self.slot_of.insert(key, s);
        self.keys.push(key);
        self.parent.push(s);
        self.rank.push(0);
        self.constant.push(None);
        self.watchers.push(Vec::new());
        self.materialized.push(false);
        self.version += 1;
        (s, true)
    }

    /// Mark `key`'s slot as materialized (attribute forced to exist).
    fn materialize(&mut self, slot: u32) {
        if !self.materialized[slot as usize] {
            self.materialized[slot as usize] = true;
            self.version += 1;
        }
    }

    /// Was this attribute key forced to exist by an enforcement?
    pub fn is_materialized(&self, key: AttrKey) -> bool {
        self.slot_of
            .get(&key)
            .is_some_and(|&s| self.materialized[s as usize])
    }

    fn find(&mut self, mut s: u32) -> u32 {
        // Path halving.
        while self.parent[s as usize] != s {
            let gp = self.parent[self.parent[s as usize] as usize];
            self.parent[s as usize] = gp;
            s = gp;
        }
        s
    }

    /// The root slot of `key`, if the class exists.
    fn root_of(&mut self, key: AttrKey) -> Option<u32> {
        let s = *self.slot_of.get(&key)?;
        Some(self.find(s))
    }

    /// Does the class `[key]` exist?
    pub fn has_class(&self, key: AttrKey) -> bool {
        self.slot_of.contains_key(&key)
    }

    /// The constant bound to `[key]`, if the class exists and is bound.
    pub fn const_of(&mut self, key: AttrKey) -> Option<ValueId> {
        let r = self.root_of(key)?;
        self.constant[r as usize]
    }

    /// The canonical class id of `key` (creating a latent singleton when
    /// the key is new): two keys report the same id iff they are in the
    /// same class. The id is an internal slot index, stable only until
    /// the next merge — meant for transient grouping (the chase's
    /// conflict partition keys on it), never for persistence.
    pub fn class_id(&mut self, key: AttrKey) -> u32 {
        let (s, _) = self.ensure(key);
        self.find(s)
    }

    /// Are the two keys in the same class? (`false` if either is missing.)
    pub fn same_class(&mut self, k1: AttrKey, k2: AttrKey) -> bool {
        match (self.root_of(k1), self.root_of(k2)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// Can `key = value` be deduced? (class exists and is bound to exactly
    /// `value`)
    pub fn deduces_const(&mut self, key: AttrKey, value: ValueId) -> bool {
        self.const_of(key) == Some(value)
    }

    /// Can `k1 = k2` be deduced? Same class, or both bound to equal
    /// constants (equal values make the attributes equal in every
    /// population). The reflexive case `k = k` holds exactly when the
    /// attribute was forced to exist (latent classes satisfy nothing).
    pub fn deduces_eq(&mut self, k1: AttrKey, k2: AttrKey) -> bool {
        if k1 == k2 {
            return self.is_materialized(k1);
        }
        if self.same_class(k1, k2) {
            return true;
        }
        match (self.const_of(k1), self.const_of(k2)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// Bind `value` to the class of `key` (Rule 1 of §IV-C). Creates the
    /// class if needed; conflicts if a distinct constant is present.
    pub fn bind(&mut self, key: AttrKey, value: ValueId) -> Result<Effect, Conflict> {
        let (slot, created) = self.ensure(key);
        self.materialize(slot);
        let root = self.find(slot);
        match &self.constant[root as usize] {
            None => {
                self.constant[root as usize] = Some(value);
                self.version += 1;
                let woken = std::mem::take(&mut self.watchers[root as usize]);
                Ok(Effect {
                    changed: true,
                    woken,
                })
            }
            Some(existing) if *existing == value => Ok(Effect {
                changed: created,
                woken: Vec::new(),
            }),
            Some(existing) => Err(Conflict {
                key,
                existing: *existing,
                incoming: value,
                gfd: None,
            }),
        }
    }

    /// Merge the classes of `k1` and `k2` (Rule 2 of §IV-C). Creates
    /// missing classes; conflicts if the classes carry distinct constants.
    pub fn merge(&mut self, k1: AttrKey, k2: AttrKey) -> Result<Effect, Conflict> {
        let (s1, c1) = self.ensure(k1);
        let (s2, c2) = self.ensure(k2);
        // A merge forces both endpoint attributes to exist; a latent →
        // materialized transition can satisfy reflexive premises, so it
        // wakes watchers and must be replayed (recorded) like any change.
        let lat1 = !self.materialized[s1 as usize];
        let lat2 = !self.materialized[s2 as usize];
        self.materialize(s1);
        self.materialize(s2);
        let r1 = self.find(s1);
        let r2 = self.find(s2);
        if r1 == r2 {
            let woken = if lat1 || lat2 {
                std::mem::take(&mut self.watchers[r1 as usize])
            } else {
                Vec::new()
            };
            return Ok(Effect {
                changed: c1 || c2 || lat1 || lat2,
                woken,
            });
        }
        let merged_const = match (self.constant[r1 as usize], self.constant[r2 as usize]) {
            (Some(a), Some(b)) if a != b => {
                return Err(Conflict {
                    key: k1,
                    existing: a,
                    incoming: b,
                    gfd: None,
                })
            }
            (Some(a), _) => Some(a),
            (_, Some(b)) => Some(b),
            (None, None) => None,
        };
        // Union by rank.
        let (root, child) = if self.rank[r1 as usize] >= self.rank[r2 as usize] {
            (r1, r2)
        } else {
            (r2, r1)
        };
        if self.rank[root as usize] == self.rank[child as usize] {
            self.rank[root as usize] += 1;
        }
        self.parent[child as usize] = root;
        self.constant[root as usize] = merged_const;
        self.constant[child as usize] = None;
        self.version += 1;
        // Wake every watcher of the union: the merge may satisfy `x.A=y.B`
        // premises or propagate a constant.
        let mut woken = std::mem::take(&mut self.watchers[root as usize]);
        woken.append(&mut self.watchers[child as usize]);
        Ok(Effect {
            changed: true,
            woken,
        })
    }

    /// Register a watcher on the class of `key` (creating the class if
    /// needed — attributes mentioned by premises exist without values,
    /// exactly the paper's "not yet instantiated" case).
    pub fn add_watcher(&mut self, key: AttrKey, watcher: Watcher) {
        let (slot, _) = self.ensure(key);
        let root = self.find(slot);
        self.watchers[root as usize].push(watcher);
    }

    /// Apply a (possibly remote) op. Idempotent; returns the effect.
    pub fn apply_op(&mut self, op: &EqOp) -> Result<Effect, Conflict> {
        match op {
            EqOp::Ensure(k) => {
                let (_, created) = self.ensure(*k);
                Ok(Effect {
                    changed: created,
                    woken: Vec::new(),
                })
            }
            EqOp::Bind(k, v) => self.bind(*k, *v),
            EqOp::Merge(k1, k2) => self.merge(*k1, *k2),
        }
    }

    /// Enumerate all classes as `(bound constant, member keys)`, members in
    /// insertion order, classes sorted by their first member.
    pub fn classes(&mut self) -> Vec<(Option<ValueId>, Vec<AttrKey>)> {
        self.group_classes(false)
    }

    /// Like [`EqRel::classes`], but keeping only materialized keys (and
    /// dropping classes left empty). This is what model extraction
    /// populates: latent keys impose no existence requirement.
    pub fn materialized_classes(&mut self) -> Vec<(Option<ValueId>, Vec<AttrKey>)> {
        self.group_classes(true)
    }

    /// One walk over the slots, grouping keys by root through a table
    /// indexed by root slot. With `materialized_only`, latent slots are
    /// skipped; a latent key is always a singleton class, so skipping it
    /// drops exactly the classes it would leave empty, and the order of
    /// the remaining classes is the order [`EqRel::classes`] gives them.
    fn group_classes(&mut self, materialized_only: bool) -> Vec<(Option<ValueId>, Vec<AttrKey>)> {
        const NONE: u32 = u32::MAX;
        let mut class_of_root = vec![NONE; self.keys.len()];
        let mut out: Vec<(Option<ValueId>, Vec<AttrKey>)> = Vec::new();
        for i in 0..self.keys.len() {
            if materialized_only && !self.materialized[i] {
                continue;
            }
            let r = self.find(i as u32) as usize;
            if class_of_root[r] == NONE {
                class_of_root[r] = out.len() as u32;
                out.push((self.constant[r], Vec::new()));
            }
            out[class_of_root[r] as usize].1.push(self.keys[i]);
        }
        // Deterministic order for reproducible models. First members are
        // distinct keys, so an unstable sort is deterministic too.
        out.sort_unstable_by_key(|(_, members)| members[0]);
        out
    }

    /// Number of classes currently bound to a constant.
    pub fn bound_class_count(&mut self) -> usize {
        self.classes().iter().filter(|(c, _)| c.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::{AttrId, NodeId};

    fn k(n: usize, a: usize) -> AttrKey {
        (NodeId::new(n), AttrId::new(a))
    }

    #[test]
    fn ensure_is_idempotent() {
        let mut eq = EqRel::new();
        let (s1, c1) = eq.ensure(k(0, 0));
        let (s2, c2) = eq.ensure(k(0, 0));
        assert_eq!(s1, s2);
        assert!(c1);
        assert!(!c2);
        assert_eq!(eq.key_count(), 1);
        assert!(eq.has_class(k(0, 0)));
        assert!(!eq.has_class(k(1, 0)));
    }

    #[test]
    fn bind_sets_and_detects_conflicts() {
        let mut eq = EqRel::new();
        let e = eq.bind(k(0, 0), ValueId::of(1)).unwrap();
        assert!(e.changed);
        assert_eq!(eq.const_of(k(0, 0)), Some(ValueId::of(1)));
        // Same value: no change, no conflict.
        let e = eq.bind(k(0, 0), ValueId::of(1)).unwrap();
        assert!(!e.changed);
        // Distinct value: conflict.
        let err = eq.bind(k(0, 0), ValueId::of(2)).unwrap_err();
        assert_eq!(err.existing, ValueId::of(1));
        assert_eq!(err.incoming, ValueId::of(2));
    }

    #[test]
    fn merge_unions_and_propagates_constants() {
        let mut eq = EqRel::new();
        eq.bind(k(0, 0), ValueId::of(7)).unwrap();
        eq.merge(k(0, 0), k(1, 1)).unwrap();
        assert!(eq.same_class(k(0, 0), k(1, 1)));
        assert_eq!(eq.const_of(k(1, 1)), Some(ValueId::of(7)));
        // Merging in a third key through the second.
        eq.merge(k(1, 1), k(2, 2)).unwrap();
        assert_eq!(eq.const_of(k(2, 2)), Some(ValueId::of(7)));
        // Transitivity of same_class.
        assert!(eq.same_class(k(0, 0), k(2, 2)));
    }

    #[test]
    fn merge_conflict_on_distinct_constants() {
        let mut eq = EqRel::new();
        eq.bind(k(0, 0), ValueId::of(1)).unwrap();
        eq.bind(k(1, 0), ValueId::of(2)).unwrap();
        assert!(eq.merge(k(0, 0), k(1, 0)).is_err());
    }

    #[test]
    fn merge_same_class_is_noop() {
        let mut eq = EqRel::new();
        eq.merge(k(0, 0), k(1, 0)).unwrap();
        let e = eq.merge(k(1, 0), k(0, 0)).unwrap();
        assert!(!e.changed);
    }

    #[test]
    fn deduction_via_equal_constants() {
        let mut eq = EqRel::new();
        eq.bind(k(0, 0), ValueId::of(5)).unwrap();
        eq.bind(k(1, 0), ValueId::of(5)).unwrap();
        assert!(!eq.same_class(k(0, 0), k(1, 0)));
        // Equal constants ⇒ the attributes are equal in every population.
        assert!(eq.deduces_eq(k(0, 0), k(1, 0)));
        assert!(eq.deduces_const(k(0, 0), ValueId::of(5)));
        assert!(!eq.deduces_const(k(0, 0), ValueId::of(6)));
        assert!(!eq.deduces_eq(k(0, 0), k(9, 9)));
    }

    #[test]
    fn watchers_wake_on_bind_and_merge() {
        let mut eq = EqRel::new();
        eq.add_watcher(k(0, 0), (10, 0));
        eq.add_watcher(k(1, 0), (11, 0));
        // Bind wakes the watcher of that class only.
        let e = eq.bind(k(0, 0), ValueId::of(1)).unwrap();
        assert_eq!(e.woken, vec![(10, 0)]);
        // Merge wakes the watchers of both classes (drained).
        eq.add_watcher(k(0, 0), (12, 0));
        let e = eq.merge(k(0, 0), k(1, 0)).unwrap();
        let mut woken = e.woken;
        woken.sort();
        assert_eq!(woken, vec![(11, 0), (12, 0)]);
        // Drained: binding again wakes nothing.
        let e = eq.merge(k(0, 0), k(1, 0)).unwrap();
        assert!(e.woken.is_empty());
    }

    #[test]
    fn watchers_follow_merges() {
        let mut eq = EqRel::new();
        eq.add_watcher(k(0, 0), (1, 0));
        eq.merge(k(0, 0), k(1, 0)).unwrap();
        // Watcher was woken by the merge; re-register and bind through the
        // *other* key of the class.
        eq.add_watcher(k(0, 0), (1, 1));
        let e = eq.bind(k(1, 0), ValueId::of(3)).unwrap();
        assert_eq!(e.woken, vec![(1, 1)]);
    }

    #[test]
    fn op_replay_reproduces_state() {
        let mut a = EqRel::new();
        let ops = vec![
            EqOp::Ensure(k(0, 0)),
            EqOp::Bind(k(1, 1), ValueId::of(9)),
            EqOp::Merge(k(1, 1), k(2, 2)),
            EqOp::Merge(k(0, 0), k(3, 3)),
        ];
        for op in &ops {
            a.apply_op(op).unwrap();
        }
        // Replay on a fresh copy, in a different order (ops commute when
        // conflict-free).
        let mut b = EqRel::new();
        for op in ops.iter().rev() {
            b.apply_op(op).unwrap();
        }
        assert_eq!(b.const_of(k(2, 2)), Some(ValueId::of(9)));
        assert!(b.same_class(k(0, 0), k(3, 3)));
        assert_eq!(a.key_count(), b.key_count());
        // Re-applying is idempotent.
        for op in &ops {
            let e = b.apply_op(op).unwrap();
            assert!(!e.changed);
        }
    }

    #[test]
    fn classes_enumeration_is_deterministic() {
        let mut eq = EqRel::new();
        eq.bind(k(2, 0), ValueId::of(1)).unwrap();
        eq.merge(k(0, 0), k(1, 0)).unwrap();
        let classes = eq.classes();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].1.len(), 2); // class of (0,0),(1,0)
        assert_eq!(classes[0].0, None);
        assert_eq!(classes[1].0, Some(ValueId::of(1)));
        assert_eq!(eq.bound_class_count(), 1);
    }

    /// The definition the one-walk grouping replaced: a hash map from
    /// root to members over every key, sorted by first member, then (for
    /// the materialized variant) a per-key filter.
    fn classes_by_hash_map(
        eq: &mut EqRel,
        materialized_only: bool,
    ) -> Vec<(Option<ValueId>, Vec<AttrKey>)> {
        let mut by_root: FxHashMap<u32, Vec<AttrKey>> = FxHashMap::default();
        for i in 0..eq.keys.len() {
            let r = eq.find(i as u32);
            by_root.entry(r).or_default().push(eq.keys[i]);
        }
        let mut out: Vec<(Option<ValueId>, Vec<AttrKey>)> = by_root
            .into_iter()
            .map(|(r, members)| (eq.constant[r as usize], members))
            .collect();
        out.sort_by_key(|(_, members)| members[0]);
        if materialized_only {
            out.retain_mut(|(_, members)| {
                members.retain(|&k| eq.is_materialized(k));
                !members.is_empty()
            });
        }
        out
    }

    #[test]
    fn class_walk_matches_the_hash_map_grouping() {
        for seed in 0..200u64 {
            // SplitMix64: a fixed op sequence per seed.
            let mut state = seed;
            let mut next = |bound: u64| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) % bound) as usize
            };
            let mut eq = EqRel::new();
            for step in 0..60 {
                let key = k(next(12), next(3));
                // Conflicts are expected; the relation stays valid.
                match next(5) {
                    0 => {
                        eq.ensure(key);
                    }
                    1 => {
                        eq.class_id(key);
                    }
                    2 => {
                        let _ = eq.bind(key, ValueId::of(next(3) as i64));
                    }
                    _ => {
                        let _ = eq.merge(key, k(next(12), next(3)));
                    }
                }
                if step % 15 == 14 {
                    let want = classes_by_hash_map(&mut eq, false);
                    assert_eq!(eq.classes(), want, "seed {seed} step {step}");
                    let want = classes_by_hash_map(&mut eq, true);
                    assert_eq!(eq.materialized_classes(), want, "seed {seed} step {step}");
                }
            }
        }
    }

    #[test]
    fn version_bumps_on_change_only() {
        let mut eq = EqRel::new();
        let v0 = eq.version();
        eq.bind(k(0, 0), ValueId::of(1)).unwrap();
        let v1 = eq.version();
        assert!(v1 > v0);
        eq.bind(k(0, 0), ValueId::of(1)).unwrap();
        assert_eq!(eq.version(), v1);
    }

    #[test]
    fn long_union_chains_stay_correct() {
        let mut eq = EqRel::new();
        for i in 0..100 {
            eq.merge(k(i, 0), k(i + 1, 0)).unwrap();
        }
        assert!(eq.same_class(k(0, 0), k(100, 0)));
        eq.bind(k(50, 0), ValueId::of(42)).unwrap();
        assert_eq!(eq.const_of(k(0, 0)), Some(ValueId::of(42)));
        assert_eq!(eq.const_of(k(100, 0)), Some(ValueId::of(42)));
        let err = eq.bind(k(99, 0), ValueId::of(43)).unwrap_err();
        assert_eq!(err.existing, ValueId::of(42));
    }
}
