//! The enforcement engine: the `Expand`/`CheckAttr` machinery of §IV-C.
//!
//! Given matches of GFD patterns in a canonical graph, the engine
//!
//! 1. evaluates the premise `X` against the current equivalence relation
//!    (satisfied / permanently falsified / pending);
//! 2. enforces the consequence `Y` with the two expansion rules (constant
//!    binding, attribute merging), recording the resulting [`EqOp`]s in a
//!    delta log (what parallel workers broadcast);
//! 3. keeps the paper's *inverted index*: matches whose premise is pending
//!    are registered as watchers on the attributes they wait for, and are
//!    rechecked (cascaded) when those attributes are instantiated or
//!    merged.
//!
//! The same engine backs `SeqSat`, `SeqImp`, the parallel workers, and the
//! chase baseline.

use crate::eq::{EqOp, EqRel, Watcher};
use crate::error::{AttrKey, Conflict};
use crate::gfd::Gfd;
use crate::literal::Operand;
use crate::sigma::GfdSet;
use gfd_graph::GfdId;
use gfd_match::Match;
use std::collections::VecDeque;

/// The status of a premise `X` under a partial attribute assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PremiseStatus {
    /// Every literal holds; the consequence must be enforced.
    Satisfied,
    /// Some literal compares two distinct constants — since constants never
    /// change, the premise can never hold: drop the match.
    Falsified,
    /// Some literal waits on uninstantiated attributes (the keys listed);
    /// the match must be rechecked when they change.
    Pending(Vec<AttrKey>),
}

/// Evaluate the premise of `gfd` at `m` against `eq` without mutating
/// anything (beyond union-find path compression).
pub fn eval_premise(eq: &mut EqRel, gfd: &Gfd, m: &[gfd_graph::NodeId]) -> PremiseStatus {
    eval_premise_lits(eq, &gfd.premise, m)
}

/// [`eval_premise`] over a bare literal slice — the form the generalized
/// dependency layer (chase over [`crate::DepSet`]) evaluates, since a
/// [`crate::Dependency`]'s premise is the same `Vec<Literal>` whatever
/// its consequence action is.
pub fn eval_premise_lits(
    eq: &mut EqRel,
    premise: &[crate::literal::Literal],
    m: &[gfd_graph::NodeId],
) -> PremiseStatus {
    let mut waiting: Vec<AttrKey> = Vec::new();
    for lit in premise {
        let k1: AttrKey = (m[lit.var.index()], lit.attr);
        match &lit.rhs {
            Operand::Const(c) => match eq.const_of(k1) {
                Some(v) if v == *c => {}
                Some(_) => return PremiseStatus::Falsified,
                None => waiting.push(k1),
            },
            Operand::Attr(var2, attr2) => {
                let k2: AttrKey = (m[var2.index()], *attr2);
                if k1 == k2 {
                    // Reflexive literal `x.A = x.A`: holds exactly when
                    // the attribute is forced to exist. A latent class
                    // (created only by watcher registration) does not
                    // count — the population may omit it.
                    if !eq.is_materialized(k1) {
                        waiting.push(k1);
                    }
                    continue;
                }
                if eq.same_class(k1, k2) {
                    continue;
                }
                match (eq.const_of(k1), eq.const_of(k2)) {
                    (Some(a), Some(b)) if a == b => {}
                    (Some(_), Some(_)) => return PremiseStatus::Falsified,
                    _ => {
                        waiting.push(k1);
                        waiting.push(k2);
                    }
                }
            }
        }
    }
    if waiting.is_empty() {
        PremiseStatus::Satisfied
    } else {
        PremiseStatus::Pending(waiting)
    }
}

/// A match whose premise was pending when first seen.
#[derive(Clone, Debug)]
struct PendingEntry {
    gfd: GfdId,
    m: Match,
    resolved: bool,
    /// Bumped on each (re-)registration; stale watcher copies are skipped.
    epoch: u32,
}

/// Counters exposed for benchmarks and the paper's ablation studies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Matches handed to [`EnforceEngine::process_match`].
    pub matches_processed: u64,
    /// Matches that entered the pending (inverted) index.
    pub pending_registered: u64,
    /// Pending rechecks triggered by attribute instantiation.
    pub rechecks: u64,
    /// Ops applied from remote deltas.
    pub remote_ops_applied: u64,
}

/// The enforcement engine over one canonical graph.
#[derive(Clone, Debug, Default)]
pub struct EnforceEngine {
    /// The equivalence relation being expanded.
    pub eq: EqRel,
    pending: Vec<PendingEntry>,
    wake: VecDeque<Watcher>,
    delta: Vec<EqOp>,
    /// Statistics counters.
    pub stats: EngineStats,
}

impl EnforceEngine {
    /// A fresh engine with an empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh engine starting from an existing relation (e.g. `EqX` for
    /// implication checking).
    pub fn with_eq(eq: EqRel) -> Self {
        EnforceEngine {
            eq,
            ..Self::default()
        }
    }

    /// Number of ops recorded so far (cursor base for delta extraction).
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// The ops recorded at positions `from..`.
    pub fn delta_since(&self, from: usize) -> &[EqOp] {
        &self.delta[from..]
    }

    /// Number of unresolved pending matches.
    pub fn pending_count(&self) -> usize {
        self.pending.iter().filter(|p| !p.resolved).count()
    }

    /// Drain the engine into `(full delta, unresolved pending matches)` —
    /// what a worker ships to the coordinator for the final convergence
    /// phase.
    pub fn into_state(self) -> (Vec<EqOp>, Vec<(GfdId, Match)>) {
        let pending = self
            .pending
            .into_iter()
            .filter(|p| !p.resolved)
            .map(|p| (p.gfd, p.m))
            .collect();
        (self.delta, pending)
    }

    /// Process one match of `gfd` (identified by `id` within `sigma`):
    /// evaluate the premise, enforce or register, then cascade rechecks.
    pub fn process_match(&mut self, sigma: &GfdSet, id: GfdId, m: Match) -> Result<(), Conflict> {
        self.stats.matches_processed += 1;
        let gfd = &sigma[id];
        match eval_premise(&mut self.eq, gfd, &m) {
            PremiseStatus::Falsified => Ok(()),
            PremiseStatus::Satisfied => {
                self.enforce_consequence(gfd, id, &m)?;
                self.cascade(sigma)
            }
            PremiseStatus::Pending(keys) => {
                self.register_pending(id, m, &keys);
                Ok(())
            }
        }
    }

    fn register_pending(&mut self, gfd: GfdId, m: Match, keys: &[AttrKey]) {
        self.stats.pending_registered += 1;
        let id = self.pending.len() as u32;
        self.pending.push(PendingEntry {
            gfd,
            m,
            resolved: false,
            epoch: 0,
        });
        for &key in keys {
            self.eq.add_watcher(key, (id, 0));
        }
    }

    /// Enforce the consequence `Y` of `gfd` at match `m` (Rules 1 and 2),
    /// queueing any woken watchers.
    pub fn enforce_consequence(
        &mut self,
        gfd: &Gfd,
        id: GfdId,
        m: &[gfd_graph::NodeId],
    ) -> Result<(), Conflict> {
        for lit in &gfd.consequence {
            let k1: AttrKey = (m[lit.var.index()], lit.attr);
            match &lit.rhs {
                Operand::Const(c) => {
                    let effect = self.eq.bind(k1, *c).map_err(|e| e.with_gfd(id))?;
                    if effect.changed {
                        self.delta.push(EqOp::Bind(k1, *c));
                    }
                    self.wake.extend(effect.woken);
                }
                Operand::Attr(var2, attr2) => {
                    let k2: AttrKey = (m[var2.index()], *attr2);
                    let effect = self.eq.merge(k1, k2).map_err(|e| e.with_gfd(id))?;
                    if effect.changed {
                        self.delta.push(EqOp::Merge(k1, k2));
                    }
                    self.wake.extend(effect.woken);
                }
            }
        }
        Ok(())
    }

    /// Recheck woken pending matches until the wake queue drains (the
    /// fixpoint cascade driven by the inverted index).
    pub fn cascade(&mut self, sigma: &GfdSet) -> Result<(), Conflict> {
        while let Some((id, epoch)) = self.wake.pop_front() {
            let entry = &self.pending[id as usize];
            if entry.resolved || entry.epoch != epoch {
                continue;
            }
            self.stats.rechecks += 1;
            let gfd_id = entry.gfd;
            let gfd = &sigma[gfd_id];
            // Clone the match out to appease the borrow checker; matches
            // are small (k ≤ 10 nodes).
            let m = entry.m.clone();
            match eval_premise(&mut self.eq, gfd, &m) {
                PremiseStatus::Falsified => {
                    self.pending[id as usize].resolved = true;
                }
                PremiseStatus::Satisfied => {
                    self.pending[id as usize].resolved = true;
                    self.enforce_consequence(gfd, gfd_id, &m)?;
                }
                PremiseStatus::Pending(keys) => {
                    let entry = &mut self.pending[id as usize];
                    entry.epoch += 1;
                    let epoch = entry.epoch;
                    for key in keys {
                        self.eq.add_watcher(key, (id, epoch));
                    }
                }
            }
        }
        Ok(())
    }

    /// Apply ops produced by another engine (a remote worker's `ΔEq`),
    /// *without* re-recording them, then cascade local rechecks.
    pub fn apply_remote_ops(&mut self, sigma: &GfdSet, ops: &[EqOp]) -> Result<(), Conflict> {
        for op in ops {
            let effect = self.eq.apply_op(op)?;
            self.stats.remote_ops_applied += 1;
            self.wake.extend(effect.woken);
        }
        self.cascade(sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Literal;
    use gfd_graph::{NodeId, Pattern, ValueId, VarId, Vocab};

    /// One-variable pattern; the canonical graph is a single node, matches
    /// are trivial.
    fn unary_gfd(
        vocab: &mut Vocab,
        name: &str,
        premise: Vec<Literal>,
        consequence: Vec<Literal>,
    ) -> Gfd {
        let mut p = Pattern::new();
        p.add_node(vocab.label("t"), "x");
        Gfd::new(name, p, premise, consequence)
    }

    fn m0() -> Match {
        vec![NodeId::new(0)].into_boxed_slice()
    }

    #[test]
    fn empty_premise_enforces_immediately() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let sigma = GfdSet::from_vec(vec![unary_gfd(
            &mut vocab,
            "g",
            vec![],
            vec![Literal::eq_const(VarId::new(0), a, 1i64)],
        )]);
        let mut e = EnforceEngine::new();
        e.process_match(&sigma, GfdId::new(0), m0()).unwrap();
        assert!(e.eq.deduces_const((NodeId::new(0), a), ValueId::of(1)));
        assert_eq!(e.delta_len(), 1);
        assert_eq!(e.stats.matches_processed, 1);
    }

    #[test]
    fn conflicting_consequences_error() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let sigma = GfdSet::from_vec(vec![
            unary_gfd(
                &mut vocab,
                "g0",
                vec![],
                vec![Literal::eq_const(VarId::new(0), a, 0i64)],
            ),
            unary_gfd(
                &mut vocab,
                "g1",
                vec![],
                vec![Literal::eq_const(VarId::new(0), a, 1i64)],
            ),
        ]);
        let mut e = EnforceEngine::new();
        e.process_match(&sigma, GfdId::new(0), m0()).unwrap();
        let err = e.process_match(&sigma, GfdId::new(1), m0()).unwrap_err();
        assert_eq!(err.gfd, Some(GfdId::new(1)));
    }

    #[test]
    fn pending_match_rechecks_on_instantiation() {
        // Example 4's mechanism in miniature:
        //   g0: a = 1 → b = 1   (pending at first)
        //   g1: ∅ → a = 1        (instantiates a, waking g0's match)
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let x = VarId::new(0);
        let sigma = GfdSet::from_vec(vec![
            unary_gfd(
                &mut vocab,
                "g0",
                vec![Literal::eq_const(x, a, 1i64)],
                vec![Literal::eq_const(x, b, 1i64)],
            ),
            unary_gfd(
                &mut vocab,
                "g1",
                vec![],
                vec![Literal::eq_const(x, a, 1i64)],
            ),
        ]);
        let mut e = EnforceEngine::new();
        e.process_match(&sigma, GfdId::new(0), m0()).unwrap();
        assert_eq!(e.pending_count(), 1);
        assert!(!e.eq.deduces_const((NodeId::new(0), b), ValueId::of(1)));
        e.process_match(&sigma, GfdId::new(1), m0()).unwrap();
        // The cascade must have fired g0.
        assert_eq!(e.pending_count(), 0);
        assert!(e.eq.deduces_const((NodeId::new(0), b), ValueId::of(1)));
        assert_eq!(e.stats.rechecks, 1);
    }

    #[test]
    fn cascade_chains_through_multiple_pendings() {
        // g0: a=1 → b=1 ; g1: b=1 → c=1 ; g2: ∅ → a=1. Processing order
        // g0, g1, g2 must still derive c=1 through two cascaded rechecks.
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let c = vocab.attr("c");
        let x = VarId::new(0);
        let sigma = GfdSet::from_vec(vec![
            unary_gfd(
                &mut vocab,
                "g0",
                vec![Literal::eq_const(x, a, 1i64)],
                vec![Literal::eq_const(x, b, 1i64)],
            ),
            unary_gfd(
                &mut vocab,
                "g1",
                vec![Literal::eq_const(x, b, 1i64)],
                vec![Literal::eq_const(x, c, 1i64)],
            ),
            unary_gfd(
                &mut vocab,
                "g2",
                vec![],
                vec![Literal::eq_const(x, a, 1i64)],
            ),
        ]);
        let mut e = EnforceEngine::new();
        e.process_match(&sigma, GfdId::new(0), m0()).unwrap();
        e.process_match(&sigma, GfdId::new(1), m0()).unwrap();
        assert_eq!(e.pending_count(), 2);
        e.process_match(&sigma, GfdId::new(2), m0()).unwrap();
        assert!(e.eq.deduces_const((NodeId::new(0), c), ValueId::of(1)));
        assert_eq!(e.pending_count(), 0);
    }

    #[test]
    fn falsified_premise_never_fires() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let x = VarId::new(0);
        let sigma = GfdSet::from_vec(vec![
            unary_gfd(
                &mut vocab,
                "g0",
                vec![],
                vec![Literal::eq_const(x, a, 2i64)],
            ),
            unary_gfd(
                &mut vocab,
                "g1",
                vec![Literal::eq_const(x, a, 1i64)],
                vec![Literal::eq_const(x, b, 1i64)],
            ),
        ]);
        let mut e = EnforceEngine::new();
        e.process_match(&sigma, GfdId::new(0), m0()).unwrap();
        e.process_match(&sigma, GfdId::new(1), m0()).unwrap();
        // a=2 contradicts the premise a=1: no pending entry, no b.
        assert_eq!(e.pending_count(), 0);
        assert!(!e.eq.has_class((NodeId::new(0), b)));
    }

    #[test]
    fn variable_literal_premise_satisfied_by_merge() {
        // g0: x.a = x.b → x.c = 1 ; g1: ∅ → x.a = x.b.
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let c = vocab.attr("c");
        let x = VarId::new(0);
        let sigma = GfdSet::from_vec(vec![
            unary_gfd(
                &mut vocab,
                "g0",
                vec![Literal::eq_attr(x, a, x, b)],
                vec![Literal::eq_const(x, c, 1i64)],
            ),
            unary_gfd(&mut vocab, "g1", vec![], vec![Literal::eq_attr(x, a, x, b)]),
        ]);
        let mut e = EnforceEngine::new();
        e.process_match(&sigma, GfdId::new(0), m0()).unwrap();
        assert_eq!(e.pending_count(), 1);
        e.process_match(&sigma, GfdId::new(1), m0()).unwrap();
        assert!(e.eq.deduces_const((NodeId::new(0), c), ValueId::of(1)));
    }

    #[test]
    fn variable_literal_premise_satisfied_by_equal_constants() {
        // g0: x.a = x.b → x.c = 1 ; g1: ∅ → x.a = 5 ; g2: ∅ → x.b = 5.
        // a and b end up in different classes but with equal constants: the
        // premise holds in every population and must fire.
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let c = vocab.attr("c");
        let x = VarId::new(0);
        let sigma = GfdSet::from_vec(vec![
            unary_gfd(
                &mut vocab,
                "g0",
                vec![Literal::eq_attr(x, a, x, b)],
                vec![Literal::eq_const(x, c, 1i64)],
            ),
            unary_gfd(
                &mut vocab,
                "g1",
                vec![],
                vec![Literal::eq_const(x, a, 5i64)],
            ),
            unary_gfd(
                &mut vocab,
                "g2",
                vec![],
                vec![Literal::eq_const(x, b, 5i64)],
            ),
        ]);
        let mut e = EnforceEngine::new();
        e.process_match(&sigma, GfdId::new(0), m0()).unwrap();
        e.process_match(&sigma, GfdId::new(1), m0()).unwrap();
        e.process_match(&sigma, GfdId::new(2), m0()).unwrap();
        assert!(e.eq.deduces_const((NodeId::new(0), c), ValueId::of(1)));
    }

    #[test]
    fn remote_ops_trigger_local_cascades() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let x = VarId::new(0);
        let sigma = GfdSet::from_vec(vec![unary_gfd(
            &mut vocab,
            "g0",
            vec![Literal::eq_const(x, a, 1i64)],
            vec![Literal::eq_const(x, b, 1i64)],
        )]);
        let mut e = EnforceEngine::new();
        e.process_match(&sigma, GfdId::new(0), m0()).unwrap();
        assert_eq!(e.pending_count(), 1);
        // A "remote" worker bound a=1.
        let base = e.delta_len();
        e.apply_remote_ops(
            &sigma,
            &[EqOp::Bind((NodeId::new(0), a), ValueId::of(1i64))],
        )
        .unwrap();
        assert!(e.eq.deduces_const((NodeId::new(0), b), ValueId::of(1)));
        // The local consequence (b=1) is recorded for further broadcast,
        // the remote op itself is not re-recorded.
        let newly: Vec<_> = e.delta_since(base).to_vec();
        assert_eq!(
            newly,
            vec![EqOp::Bind((NodeId::new(0), b), ValueId::of(1i64))]
        );
    }

    #[test]
    fn into_state_exports_unresolved_pendings() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let x = VarId::new(0);
        let sigma = GfdSet::from_vec(vec![unary_gfd(
            &mut vocab,
            "g0",
            vec![Literal::eq_const(x, a, 1i64)],
            vec![Literal::eq_const(x, b, 1i64)],
        )]);
        let mut e = EnforceEngine::new();
        e.process_match(&sigma, GfdId::new(0), m0()).unwrap();
        let (delta, pending) = e.into_state();
        assert!(delta.is_empty());
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, GfdId::new(0));
    }
}
