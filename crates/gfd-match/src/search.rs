//! Resumable backtracking homomorphism search.
//!
//! [`HomSearch`] drives a VF2-style state-space search relaxed to
//! homomorphism (pattern nodes may map to the same graph node). The search
//! state is an explicit stack, which gives the two capabilities the
//! parallel algorithms need:
//!
//! * **deadline interruption** — [`HomSearch::run`] can stop mid-search when
//!   a TTL expires and later continue where it left off;
//! * **work-unit splitting** — [`HomSearch::split_shallowest`] carves the
//!   untried sibling branches of the shallowest open level into *prefix
//!   assignments* that other workers can resume independently (the paper's
//!   Example 6).

use crate::plan::{Anchor, AnchorDir, IntersectStrategy, MatchPlan};
use gfd_graph::{Dir, Graph, LabelIndex, MatchIndex, NodeId, NodeSet, Pattern, TopologyView};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// A complete match: `match_[v.index()]` is the graph node assigned to
/// pattern variable `v`.
pub type Match = Box<[NodeId]>;

/// Why a call to [`HomSearch::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The search space is exhausted; every remaining match was emitted.
    Exhausted,
    /// The deadline passed; the search can be resumed or split.
    Deadline,
    /// The stop flag was raised or the callback returned `Break`.
    Stopped,
}

/// External limits checked periodically during the search.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchLimits<'a> {
    /// Hard deadline; `run` returns [`RunOutcome::Deadline`] soon after.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation (e.g. another worker found a conflict).
    pub stop: Option<&'a AtomicBool>,
}

impl<'a> SearchLimits<'a> {
    /// No limits: run to exhaustion.
    pub fn none() -> Self {
        Self::default()
    }

    /// Limit by deadline only.
    pub fn with_deadline(deadline: Instant) -> Self {
        SearchLimits {
            deadline: Some(deadline),
            stop: None,
        }
    }
}

/// How often (in search steps) the limits are polled.
const CHECK_INTERVAL: u32 = 256;

enum Candidates<'a> {
    Borrowed(&'a [NodeId]),
    Owned(Vec<NodeId>),
}

impl Candidates<'_> {
    fn as_slice(&self) -> &[NodeId] {
        match self {
            Candidates::Borrowed(s) => s,
            Candidates::Owned(v) => v,
        }
    }
}

struct Frame<'a> {
    candidates: Candidates<'a>,
    cursor: usize,
}

/// A resumable homomorphism search of one pattern in one graph.
///
/// Edge probes and anchored expansion run on the [`TopologyView`]
/// carried by the index — the frozen CSR for a static graph
/// ([`LabelIndex`], the default), or the delta-CSR overlay for a graph
/// under streaming updates (`gfd_graph::DeltaIndex`): `O(log d + log δ)`
/// probes and per-`(node, label)` sorted sub-slices either way, so the
/// static and incremental pipelines share this one search.
pub struct HomSearch<'a, I: MatchIndex = LabelIndex> {
    graph: &'a Graph,
    index: &'a I,
    view: &'a I::View,
    pattern: &'a Pattern,
    plan: &'a MatchPlan,
    /// Optional per-variable candidate filters (e.g. dual-simulation sets).
    filters: Option<&'a [NodeSet]>,
    /// Fixed assignments for leading plan positions (pivot node and/or a
    /// split prefix).
    prefix: Vec<NodeId>,
    frames: Vec<Frame<'a>>,
    assignment: Vec<NodeId>,
    started: bool,
    exhausted: bool,
    /// Scratch bitsets for the word-at-a-time anchor merge, sized once
    /// to the graph and reset in-pass (the draining intersection) or
    /// sparsely between frames (DESIGN.md §15).
    scratch_cand: NodeSet,
    scratch_adj: NodeSet,
}

impl<'a, I: MatchIndex> HomSearch<'a, I> {
    /// A search over the whole graph.
    pub fn new(graph: &'a Graph, index: &'a I, pattern: &'a Pattern, plan: &'a MatchPlan) -> Self {
        // Fail fast (debug builds) if the graph's topology changed behind
        // the index's back — probes on a stale view silently miss edges.
        index.assert_fresh(graph);
        HomSearch {
            graph,
            index,
            view: index.view(),
            pattern,
            plan,
            filters: None,
            prefix: Vec::new(),
            frames: Vec::new(),
            assignment: vec![NodeId::new(0); plan.len()],
            started: false,
            exhausted: false,
            scratch_cand: NodeSet::default(),
            scratch_adj: NodeSet::default(),
        }
    }

    /// Fix the leading plan positions to `prefix` (position `i` ↦
    /// `prefix[i]`). With a single element this is pivoted search; longer
    /// prefixes resume split work units.
    pub fn with_prefix(mut self, prefix: &[NodeId]) -> Self {
        assert!(
            prefix.len() <= self.plan.len(),
            "prefix longer than the plan"
        );
        assert!(!self.started, "prefix must be set before running");
        self.prefix = prefix.to_vec();
        self
    }

    /// Restrict candidates of each variable to the given node sets
    /// (indexed by `VarId`), e.g. dual-simulation sets.
    pub fn with_filters(mut self, filters: &'a [NodeSet]) -> Self {
        assert_eq!(filters.len(), self.pattern.node_count());
        self.filters = Some(filters);
        self
    }

    /// Is the search complete (no further matches)?
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Current search depth (number of open stack frames).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    fn passes_filter(&self, var: gfd_graph::VarId, node: NodeId) -> bool {
        self.filters.is_none_or(|f| f[var.index()].contains(node))
    }

    fn anchor_holds(&self, anchor: &Anchor, candidate: NodeId) -> bool {
        let anchored = self.assignment[anchor.pos];
        match anchor.dir {
            AnchorDir::FromAnchor => self
                .view
                .has_edge_pattern(anchored, anchor.label, candidate),
            AnchorDir::ToAnchor => self
                .view
                .has_edge_pattern(candidate, anchor.label, anchored),
        }
    }

    fn self_loops_hold(&self, step: &crate::plan::PlanStep, node: NodeId) -> bool {
        step.self_loops
            .iter()
            .all(|&l| self.view.has_edge_pattern(node, l, node))
    }

    /// Is `node` a valid binding for plan position `pos`, given the bound
    /// positions `0..pos`?
    fn valid_at(&self, pos: usize, node: NodeId) -> bool {
        let step = &self.plan.steps()[pos];
        self.pattern
            .label(step.var)
            .pattern_matches(self.graph.label(node))
            && self.passes_filter(step.var, node)
            && self.self_loops_hold(step, node)
            && step.anchors.iter().all(|a| self.anchor_holds(a, node))
    }

    fn make_frame(&mut self, pos: usize) -> Frame<'a> {
        // Fixed prefix positions carry exactly one (validated) candidate.
        if pos < self.prefix.len() {
            let node = self.prefix[pos];
            let candidates = if self.valid_at(pos, node) {
                vec![node]
            } else {
                Vec::new()
            };
            return Frame {
                candidates: Candidates::Owned(candidates),
                cursor: 0,
            };
        }

        let step = &self.plan.steps()[pos];
        if step.anchors.is_empty() {
            // Component root: candidates from the label index.
            let base = self.index.candidates(self.pattern.label(step.var));
            let candidates = if self.filters.is_some() || !step.self_loops.is_empty() {
                Candidates::Owned(
                    base.iter()
                        .copied()
                        .filter(|&n| {
                            self.passes_filter(step.var, n) && self.self_loops_hold(step, n)
                        })
                        .collect(),
                )
            } else {
                Candidates::Borrowed(base)
            };
            return Frame {
                candidates,
                cursor: 0,
            };
        }

        // Anchored: expand from the anchor with the smallest
        // label-matching adjacency, located in O(log d + log δ) on the
        // topology view (instead of filtering the anchor's full
        // adjacency). The closures borrow only the assignment so the
        // scratch bitsets stay free for the word-merge below.
        let view = self.view;
        let assignment = &self.assignment;
        let probe_for = |a: &Anchor| -> (NodeId, Dir) {
            let anchored = assignment[a.pos];
            match a.dir {
                AnchorDir::FromAnchor => (anchored, Dir::Out),
                AnchorDir::ToAnchor => (anchored, Dir::In),
            }
        };
        // This runs once per frame push on the DFS hot path: pick the
        // seed and merge anchors by re-probing `matching_len` (an
        // O(log d) lookup over at most a handful of anchors) rather than
        // materializing every anchor's adjacency.
        let len_for = |a: &Anchor| -> usize {
            let (v, dir) = probe_for(a);
            view.matching_len(v, dir, a.label)
        };
        let best_i = (0..step.anchors.len())
            .min_by_key(|&i| len_for(&step.anchors[i]))
            .expect("anchored step has anchors");

        // Candidate node ids from the seed adjacency, visited in
        // (label, node) order. Under a concrete label node ids strictly
        // increase; under a wildcard anchor label the same node can recur
        // across label groups, so sort once and dedup adjacently — never
        // an O(d·c) `contains`.
        let seed = &step.anchors[best_i];
        let mut candidates: Vec<NodeId> = Vec::with_capacity(len_for(seed));
        let (seed_v, seed_dir) = probe_for(seed);
        view.for_each_matching(seed_v, seed_dir, seed.label, |(_, n)| candidates.push(n));
        if seed.label.is_wildcard() {
            candidates.sort_unstable();
        }
        candidates.dedup();

        // Non-seed concrete anchors; wildcard anchors have no single
        // sorted sub-slice, so they always stay per-candidate probes.
        let extra: Vec<usize> = (0..step.anchors.len())
            .filter(|&i| i != best_i && !step.anchors[i].label.is_wildcard())
            .collect();

        let use_bitset = step.strategy == IntersectStrategy::Bitset
            && !extra.is_empty()
            && candidates.len() >= BITSET_MIN_CANDIDATES;
        let mut merged_i = None;
        if use_bitset {
            // Bitset regime (plan-gated, DESIGN.md §15): fold *every*
            // remaining concrete anchor adjacency into the candidate
            // bitset, one u64 AND per 64 nodes. Scratch sets are sized
            // once to the graph; each anchor adjacency streams straight
            // into the adjacency scratch, and the draining intersection
            // zeroes it again in the same word pass — one insert per
            // streamed edge, no staging list, no sparse replay. A frame
            // costs O(candidates + Σ adjacency + words), never
            // O(node_count) bit-by-bit.
            let probes: Vec<(NodeId, Dir, gfd_graph::LabelId)> = extra
                .iter()
                .map(|&i| {
                    let a = &step.anchors[i];
                    let (v, d) = probe_for(a);
                    (v, d, a.label)
                })
                .collect();
            let cap = self.graph.node_count();
            self.scratch_cand.reserve_nodes(cap);
            self.scratch_adj.reserve_nodes(cap);
            for &c in &candidates {
                self.scratch_cand.insert(c);
            }
            for (v, dir, label) in probes {
                view.collect_matching_into(v, dir, label, &mut self.scratch_adj);
                let left = self
                    .scratch_cand
                    .intersect_with_drain(&mut self.scratch_adj);
                if left == 0 {
                    break;
                }
            }
            let survivors: Vec<NodeId> = self.scratch_cand.iter().collect();
            self.scratch_cand.clear_sparse(candidates.iter().copied());
            candidates = survivors;
        } else {
            // Sorted-merge intersection with the next-smallest concrete
            // anchor adjacency: both sequences are ascending, so one
            // two-pointer (or galloping, under skew) pass replaces
            // per-candidate edge probes for that anchor.
            merged_i = extra
                .iter()
                .copied()
                .min_by_key(|&i| len_for(&step.anchors[i]));
            if let Some(mi) = merged_i {
                let merge = &step.anchors[mi];
                let (merge_v, merge_dir) = probe_for(merge);
                candidates =
                    intersect_sorted_view(view, &candidates, merge_v, merge_dir, merge.label);
            }
        }

        let var_label = self.pattern.label(step.var);
        candidates.retain(|&node| {
            var_label.pattern_matches(self.graph.label(node))
                && self.passes_filter(step.var, node)
                && self.self_loops_hold(step, node)
                // Homomorphism: no injectivity check; just the anchors
                // not already covered by the seed slice, the merge, or
                // the bitset fold.
                && step
                    .anchors
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| {
                        i != best_i
                            && Some(i) != merged_i
                            && (!use_bitset || step.anchors[i].label.is_wildcard())
                    })
                    .all(|(_, a)| self.anchor_holds(a, node))
        });
        Frame {
            candidates: Candidates::Owned(candidates),
            cursor: 0,
        }
    }

    /// Extract the current complete assignment as a var-indexed match.
    fn emit(&self) -> Match {
        let mut m = vec![NodeId::new(0); self.plan.len()].into_boxed_slice();
        for pos in 0..self.plan.len() {
            m[self.plan.var_at(pos).index()] = self.assignment[pos];
        }
        m
    }

    /// Run the search, invoking `on_match` for every match found.
    ///
    /// Returns when the space is exhausted, a limit triggers, or the
    /// callback breaks. Can be called again after `Deadline` to resume.
    pub fn run<F>(&mut self, mut on_match: F, limits: SearchLimits<'_>) -> RunOutcome
    where
        F: FnMut(Match) -> ControlFlow<()>,
    {
        if self.exhausted {
            return RunOutcome::Exhausted;
        }
        if !self.started {
            self.started = true;
            let f = self.make_frame(0);
            self.frames.push(f);
        }

        let mut ticks: u32 = 0;
        loop {
            ticks += 1;
            if ticks >= CHECK_INTERVAL {
                ticks = 0;
                if let Some(stop) = limits.stop {
                    if stop.load(Ordering::Relaxed) {
                        return RunOutcome::Stopped;
                    }
                }
                if let Some(deadline) = limits.deadline {
                    if Instant::now() >= deadline {
                        return RunOutcome::Deadline;
                    }
                }
            }

            let depth = match self.frames.len() {
                0 => {
                    self.exhausted = true;
                    return RunOutcome::Exhausted;
                }
                d => d - 1,
            };
            let frame = &mut self.frames[depth];
            match frame.candidates.as_slice().get(frame.cursor) {
                Some(&node) => {
                    frame.cursor += 1;
                    self.assignment[depth] = node;
                    if depth + 1 == self.plan.len() {
                        if on_match(self.emit()).is_break() {
                            return RunOutcome::Stopped;
                        }
                    } else {
                        let f = self.make_frame(depth + 1);
                        self.frames.push(f);
                    }
                }
                None => {
                    self.frames.pop();
                }
            }
        }
    }

    /// Split the untried sibling branches at the shallowest open level into
    /// prefix assignments (plan positions `0..=d`), removing them from this
    /// search. Returns an empty vector when there is nothing to split.
    pub fn split_shallowest(&mut self) -> Vec<Vec<NodeId>> {
        for depth in 0..self.frames.len() {
            let untried =
                self.frames[depth].candidates.as_slice().len() - self.frames[depth].cursor;
            if untried == 0 {
                continue;
            }
            let frame = &self.frames[depth];
            let mut prefixes = Vec::with_capacity(untried);
            for &cand in &frame.candidates.as_slice()[frame.cursor..] {
                let mut p = Vec::with_capacity(depth + 1);
                p.extend_from_slice(&self.assignment[..depth]);
                p.push(cand);
                prefixes.push(p);
            }
            // Consume them locally: this search keeps only the branch it is
            // currently inside.
            let frame = &mut self.frames[depth];
            frame.cursor = frame.candidates.as_slice().len();
            return prefixes;
        }
        Vec::new()
    }
}

/// Length-ratio at which [`intersect_sorted_view`] abandons the linear
/// two-pointer merge for a galloping (exponential-probe) strategy.
const GALLOP_FACTOR: usize = 8;

/// Minimum live candidate count for a plan-gated
/// [`IntersectStrategy::Bitset`] step to actually take the bitset path:
/// below this the insert/read-back overhead of the scratch sets loses
/// to the sorted merges even when the plan's estimates were large
/// (estimates are upper bounds; the live set after the seed expansion
/// can be far smaller).
pub const BITSET_MIN_CANDIDATES: usize = 64;

/// Least index `j >= start` with `slice[j] >= target`, assuming `slice`
/// is ascending. Probes exponentially (`start+1`, `start+2`, `start+4`,
/// …) to bracket the answer, then binary-searches the bracketed window:
/// O(log gap) comparisons instead of the two-pointer's O(gap).
pub fn gallop_lower_bound(slice: &[NodeId], start: usize, target: NodeId) -> usize {
    if start >= slice.len() || slice[start] >= target {
        return start;
    }
    // Invariant: slice[lo] < target.
    let mut lo = start;
    let mut step = 1;
    loop {
        let hi = lo + step;
        if hi >= slice.len() {
            return lo + 1 + slice[lo + 1..].partition_point(|&x| x < target);
        }
        if slice[hi] >= target {
            return lo + 1 + slice[lo + 1..hi].partition_point(|&x| x < target);
        }
        lo = hi;
        step *= 2;
    }
}

/// Plain two-pointer intersection of two ascending slices. The baseline
/// the adaptive strategies in `intersect_sorted_view` are measured
/// against (see the `micro_structures` bench).
pub fn intersect_slices_two_pointer(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Bitset intersection of two ascending slices: materialize both into
/// [`NodeSet`]s and AND them word-at-a-time (the portable SIMD of the
/// matcher's hub regime). O(|a| + |b| + max_id/64) including the
/// materialization; wins over the pointer merges when both sides are
/// dense and several intersections share one materialized side — the
/// `micro_structures` bench pins the crossover against the other two.
pub fn intersect_slices_bitset(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let cap = match (a.last(), b.last()) {
        (Some(x), Some(y)) => x.index().max(y.index()) + 1,
        _ => return Vec::new(),
    };
    let mut sa = NodeSet::with_capacity(cap);
    for &n in a {
        sa.insert(n);
    }
    let mut sb = NodeSet::with_capacity(cap);
    for &n in b {
        sb.insert(n);
    }
    sa.intersect_with(&sb);
    sa.iter().collect()
}

/// Galloping intersection of two ascending slices where `short` is much
/// shorter than `long`: for each element of `short`, advance a cursor
/// into `long` by [`gallop_lower_bound`]. O(|short| · log(|long|/|short|)).
pub fn intersect_slices_gallop(short: &[NodeId], long: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(short.len());
    let mut j = 0;
    for &x in short {
        j = gallop_lower_bound(long, j, x);
        if j == long.len() {
            break;
        }
        if long[j] == x {
            out.push(x);
            j += 1;
        }
    }
    out
}

/// Intersect an ascending candidate list with the concrete-label
/// adjacency of `(v, dir)` — whose node ids the view emits ascending.
///
/// Adaptive on the length ratio (satellite of the parallel-apply PR):
///
/// * adjacency ≥ [`GALLOP_FACTOR`]× longer — probe each candidate with
///   a direction-aware `has_edge_pattern` membership test instead of
///   streaming the long adjacency: O(c·log d);
/// * candidates ≥ [`GALLOP_FACTOR`]× longer — stream the short
///   adjacency and advance the candidate cursor by
///   [`gallop_lower_bound`]: O(d·log(c/d));
/// * comparable lengths — the original single streamed two-pointer
///   pass (no materialized second list).
fn intersect_sorted_view<V: TopologyView>(
    view: &V,
    candidates: &[NodeId],
    v: NodeId,
    dir: Dir,
    label: gfd_graph::LabelId,
) -> Vec<NodeId> {
    let adj_len = view.matching_len(v, dir, label);
    if candidates.is_empty() || adj_len == 0 {
        return Vec::new();
    }
    if adj_len >= GALLOP_FACTOR * candidates.len() {
        return candidates
            .iter()
            .copied()
            .filter(|&c| match dir {
                Dir::Out => view.has_edge_pattern(v, label, c),
                Dir::In => view.has_edge_pattern(c, label, v),
            })
            .collect();
    }
    let gallop = candidates.len() >= GALLOP_FACTOR * adj_len;
    let mut out = Vec::with_capacity(candidates.len().min(adj_len));
    let mut i = 0;
    let _ = view.try_for_matching(v, dir, label, &mut |(_, n)| {
        if gallop {
            i = gallop_lower_bound(candidates, i, n);
        } else {
            while i < candidates.len() && candidates[i] < n {
                i += 1;
            }
        }
        if i == candidates.len() {
            return ControlFlow::Break(());
        }
        if candidates[i] == n {
            out.push(n);
            i += 1;
        }
        ControlFlow::Continue(())
    });
    out
}

/// Convenience: collect every match of `pattern` in `graph`.
pub fn find_all_matches(graph: &Graph, index: &LabelIndex, pattern: &Pattern) -> Vec<Match> {
    let plan = MatchPlan::build(pattern, None, Some(index));
    let mut out = Vec::new();
    let mut search = HomSearch::new(graph, index, pattern, &plan);
    search.run(
        |m| {
            out.push(m);
            ControlFlow::Continue(())
        },
        SearchLimits::none(),
    );
    out
}

/// Convenience: does `pattern` have at least one match in `graph`?
pub fn has_match(graph: &Graph, index: &LabelIndex, pattern: &Pattern) -> bool {
    let plan = MatchPlan::build(pattern, None, Some(index));
    let mut found = false;
    let mut search = HomSearch::new(graph, index, pattern, &plan);
    search.run(
        |_| {
            found = true;
            ControlFlow::Break(())
        },
        SearchLimits::none(),
    );
    found
}

/// Convenience: count matches of `pattern` in `graph`.
pub fn count_matches(graph: &Graph, index: &LabelIndex, pattern: &Pattern) -> usize {
    let plan = MatchPlan::build(pattern, None, Some(index));
    let mut n = 0usize;
    let mut search = HomSearch::new(graph, index, pattern, &plan);
    search.run(
        |_| {
            n += 1;
            ControlFlow::Continue(())
        },
        SearchLimits::none(),
    );
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::{LabelId, VarId, Vocab};

    /// Triangle graph a -> b -> c -> a, all label `t`, edges `e`.
    fn triangle() -> (Graph, Vocab) {
        let mut v = Vocab::new();
        let t = v.label("t");
        let e = v.label("e");
        let mut g = Graph::new();
        let a = g.add_node(t);
        let b = g.add_node(t);
        let c = g.add_node(t);
        g.add_edge(a, e, b);
        g.add_edge(b, e, c);
        g.add_edge(c, e, a);
        (g, v)
    }

    fn edge_pattern(v: &mut Vocab) -> Pattern {
        let t = v.label("t");
        let e = v.label("e");
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        p.add_edge(x, e, y);
        p
    }

    #[test]
    fn finds_all_edge_matches_in_triangle() {
        let (g, mut v) = triangle();
        let idx = LabelIndex::build(&g);
        let p = edge_pattern(&mut v);
        let ms = find_all_matches(&g, &idx, &p);
        assert_eq!(ms.len(), 3);
        assert!(has_match(&g, &idx, &p));
        assert_eq!(count_matches(&g, &idx, &p), 3);
    }

    #[test]
    fn homomorphism_allows_non_injective_maps() {
        // Graph with a self-loop: one node, edge to itself.
        let mut v = Vocab::new();
        let t = v.label("t");
        let e = v.label("e");
        let mut g = Graph::new();
        let a = g.add_node(t);
        g.add_edge(a, e, a);
        let idx = LabelIndex::build(&g);
        let p = edge_pattern(&mut v);
        // x and y can both map to `a`.
        assert_eq!(count_matches(&g, &idx, &p), 1);
        let ms = find_all_matches(&g, &idx, &p);
        assert_eq!(ms[0][0], ms[0][1]);
    }

    #[test]
    fn cycle_pattern_in_triangle() {
        let (g, mut v) = triangle();
        let idx = LabelIndex::build(&g);
        let t = v.label("t");
        let e = v.label("e");
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        let z = p.add_node(t, "z");
        p.add_edge(x, e, y);
        p.add_edge(y, e, z);
        p.add_edge(z, e, x);
        // The 3-cycle maps onto the triangle in 3 rotations (no reflections:
        // edges are directed).
        assert_eq!(count_matches(&g, &idx, &p), 3);
    }

    #[test]
    fn labels_restrict_matches() {
        let mut v = Vocab::new();
        let person = v.label("person");
        let place = v.label("place");
        let lives = v.label("livesIn");
        let mut g = Graph::new();
        let p1 = g.add_node(person);
        let c1 = g.add_node(place);
        let p2 = g.add_node(person);
        g.add_edge(p1, lives, c1);
        g.add_edge(p2, lives, c1);
        g.add_edge(p1, v.label("knows"), p2);
        let idx = LabelIndex::build(&g);

        let mut q = Pattern::new();
        let x = q.add_node(person, "x");
        let y = q.add_node(place, "y");
        q.add_edge(x, lives, y);
        assert_eq!(count_matches(&g, &idx, &q), 2);

        // Wildcard node label matches both person and place.
        let mut qw = Pattern::new();
        let xw = qw.add_node(LabelId::WILDCARD, "x");
        let yw = qw.add_node(LabelId::WILDCARD, "y");
        qw.add_edge(xw, LabelId::WILDCARD, yw);
        assert_eq!(count_matches(&g, &idx, &qw), 3);
    }

    #[test]
    fn pivoted_search_restricts_to_pivot() {
        let (g, mut v) = triangle();
        let idx = LabelIndex::build(&g);
        let p = edge_pattern(&mut v);
        let plan = MatchPlan::build(&p, Some(VarId::new(0)), Some(&idx));
        for start in 0..3 {
            let mut found = Vec::new();
            let mut s = HomSearch::new(&g, &idx, &p, &plan).with_prefix(&[NodeId::new(start)]);
            s.run(
                |m| {
                    found.push(m);
                    ControlFlow::Continue(())
                },
                SearchLimits::none(),
            );
            assert_eq!(found.len(), 1);
            assert_eq!(found[0][0], NodeId::new(start));
        }
    }

    #[test]
    fn pivoted_matches_partition_all_matches() {
        let (g, mut v) = triangle();
        let idx = LabelIndex::build(&g);
        let p = edge_pattern(&mut v);
        let plan = MatchPlan::build(&p, Some(VarId::new(0)), Some(&idx));
        let mut total = 0;
        for z in g.nodes() {
            let mut s = HomSearch::new(&g, &idx, &p, &plan).with_prefix(&[z]);
            s.run(
                |_| {
                    total += 1;
                    ControlFlow::Continue(())
                },
                SearchLimits::none(),
            );
        }
        assert_eq!(total, count_matches(&g, &idx, &p));
    }

    #[test]
    fn callback_break_stops_search() {
        let (g, mut v) = triangle();
        let idx = LabelIndex::build(&g);
        let p = edge_pattern(&mut v);
        let plan = MatchPlan::build(&p, None, Some(&idx));
        let mut n = 0;
        let mut s = HomSearch::new(&g, &idx, &p, &plan);
        let outcome = s.run(
            |_| {
                n += 1;
                ControlFlow::Break(())
            },
            SearchLimits::none(),
        );
        assert_eq!(outcome, RunOutcome::Stopped);
        assert_eq!(n, 1);
        assert!(!s.is_exhausted());
    }

    #[test]
    fn resume_after_stop_finds_the_rest() {
        let (g, mut v) = triangle();
        let idx = LabelIndex::build(&g);
        let p = edge_pattern(&mut v);
        let plan = MatchPlan::build(&p, None, Some(&idx));
        let mut s = HomSearch::new(&g, &idx, &p, &plan);
        let mut first = 0;
        s.run(
            |_| {
                first += 1;
                ControlFlow::Break(())
            },
            SearchLimits::none(),
        );
        let mut rest = 0;
        let outcome = s.run(
            |_| {
                rest += 1;
                ControlFlow::Continue(())
            },
            SearchLimits::none(),
        );
        assert_eq!(outcome, RunOutcome::Exhausted);
        assert_eq!(first + rest, 3);
    }

    #[test]
    fn split_plus_resume_covers_every_match() {
        // Star graph: center -> 8 leaves; pattern x -> y.
        let mut v = Vocab::new();
        let t = v.label("t");
        let e = v.label("e");
        let mut g = Graph::new();
        let center = g.add_node(t);
        for _ in 0..8 {
            let leaf = g.add_node(t);
            g.add_edge(center, e, leaf);
        }
        let idx = LabelIndex::build(&g);
        let p = edge_pattern(&mut v);
        let plan = MatchPlan::build(&p, Some(VarId::new(0)), Some(&idx));

        let mut s = HomSearch::new(&g, &idx, &p, &plan).with_prefix(&[center]);
        // Find the first match, then split the rest.
        let mut local = Vec::new();
        s.run(
            |m| {
                local.push(m);
                ControlFlow::Break(())
            },
            SearchLimits::none(),
        );
        let prefixes = s.split_shallowest();
        assert!(!prefixes.is_empty(), "expected sibling branches to split");
        // Finish the local branch.
        s.run(
            |m| {
                local.push(m);
                ControlFlow::Continue(())
            },
            SearchLimits::none(),
        );
        // Resume every split prefix.
        let mut from_splits = Vec::new();
        for prefix in &prefixes {
            let mut r = HomSearch::new(&g, &idx, &p, &plan).with_prefix(prefix);
            r.run(
                |m| {
                    from_splits.push(m);
                    ControlFlow::Continue(())
                },
                SearchLimits::none(),
            );
        }
        let mut all: Vec<Vec<NodeId>> = local
            .iter()
            .chain(from_splits.iter())
            .map(|m| m.to_vec())
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 8, "union of split + local must be all matches");
    }

    #[test]
    fn deadline_interrupts_and_resumes() {
        // Large-ish complete bipartite-ish graph so the search has work.
        let mut v = Vocab::new();
        let t = v.label("t");
        let e = v.label("e");
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..40).map(|_| g.add_node(t)).collect();
        for &a in &nodes {
            for &b in &nodes {
                g.add_edge(a, e, b);
            }
        }
        let idx = LabelIndex::build(&g);
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        let z = p.add_node(t, "z");
        p.add_edge(x, e, y);
        p.add_edge(y, e, z);
        let plan = MatchPlan::build(&p, None, Some(&idx));
        let mut s = HomSearch::new(&g, &idx, &p, &plan);
        let mut n = 0usize;
        // Deadline already passed: should stop quickly without exhausting.
        let outcome = s.run(
            |_| {
                n += 1;
                ControlFlow::Continue(())
            },
            SearchLimits::with_deadline(Instant::now()),
        );
        assert_eq!(outcome, RunOutcome::Deadline);
        assert!(n < 40 * 40 * 40);
        // Resume without limits and finish.
        let outcome = s.run(
            |_| {
                n += 1;
                ControlFlow::Continue(())
            },
            SearchLimits::none(),
        );
        assert_eq!(outcome, RunOutcome::Exhausted);
        assert_eq!(n, 40 * 40 * 40);
    }

    #[test]
    fn stop_flag_aborts() {
        let (g, mut v) = triangle();
        let idx = LabelIndex::build(&g);
        let p = edge_pattern(&mut v);
        let plan = MatchPlan::build(&p, None, Some(&idx));
        let stop = AtomicBool::new(true);
        let limits = SearchLimits {
            deadline: None,
            stop: Some(&stop),
        };
        let mut s = HomSearch::new(&g, &idx, &p, &plan);
        // The flag is polled every CHECK_INTERVAL steps; a triangle search
        // finishes sooner, so stop may not trigger — use a bigger graph.
        let outcome = s.run(|_| ControlFlow::Continue(()), limits);
        // Either it exhausted before the first poll or it stopped; both are
        // acceptable terminations for a tiny space.
        assert!(matches!(
            outcome,
            RunOutcome::Exhausted | RunOutcome::Stopped
        ));
    }

    #[test]
    fn parallel_edges_with_distinct_labels_yield_one_match_per_binding() {
        // a --e1--> b and a --e2--> b: a wildcard-edge pattern reaches b
        // twice from a, but each (x, y) binding must be emitted once
        // (regression for the anchored-expansion dedup).
        let mut v = Vocab::new();
        let t = v.label("t");
        let e1 = v.label("e1");
        let e2 = v.label("e2");
        let mut g = Graph::new();
        let a = g.add_node(t);
        let b = g.add_node(t);
        g.add_edge(a, e1, b);
        g.add_edge(a, e2, b);
        let idx = LabelIndex::build(&g);

        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        p.add_edge(x, LabelId::WILDCARD, y);
        let ms = find_all_matches(&g, &idx, &p);
        assert_eq!(ms.len(), 1, "one binding, not one per parallel edge");
        assert_eq!(ms[0][x.index()], a);
        assert_eq!(ms[0][y.index()], b);

        // With a concrete edge label each parallel edge still matches.
        let mut q = Pattern::new();
        let xq = q.add_node(t, "x");
        let yq = q.add_node(t, "y");
        q.add_edge(xq, e1, yq);
        assert_eq!(count_matches(&g, &idx, &q), 1);
    }

    #[test]
    fn multi_anchor_intersection_agrees_with_brute_force() {
        // Diamond data graph with an extra distractor: w is reachable
        // from y and z only through the right label pair, exercising the
        // sorted-merge intersection of two anchor sub-slices.
        let mut v = Vocab::new();
        let t = v.label("t");
        let e = v.label("e");
        let f = v.label("f");
        let mut g = Graph::new();
        let x = g.add_node(t);
        let y = g.add_node(t);
        let z = g.add_node(t);
        let w_good = g.add_node(t);
        let w_bad = g.add_node(t);
        g.add_edge(x, e, y);
        g.add_edge(x, e, z);
        g.add_edge(y, e, w_good);
        g.add_edge(z, e, w_good);
        g.add_edge(y, e, w_bad);
        g.add_edge(z, f, w_bad); // wrong label: must be pruned
        let idx = LabelIndex::build(&g);

        let mut p = Pattern::new();
        let px = p.add_node(t, "x");
        let py = p.add_node(t, "y");
        let pz = p.add_node(t, "z");
        let pw = p.add_node(t, "w");
        p.add_edge(px, e, py);
        p.add_edge(px, e, pz);
        p.add_edge(py, e, pw);
        p.add_edge(pz, e, pw);
        let mut fast: Vec<Vec<NodeId>> = find_all_matches(&g, &idx, &p)
            .iter()
            .map(|m| m.to_vec())
            .collect();
        let mut brute: Vec<Vec<NodeId>> = crate::brute::brute_force_matches(&g, &p)
            .iter()
            .map(|m| m.to_vec())
            .collect();
        fast.sort();
        brute.sort();
        assert_eq!(fast, brute);
        // The injective diamond instance is found; w_bad shows up only
        // through non-injective maps (y and z folding together), never
        // with distinct y ≠ z images — the f-labelled edge blocks it.
        assert!(fast
            .iter()
            .any(|m| m[pw.index()] == w_good && m[py.index()] != m[pz.index()]));
        assert!(fast
            .iter()
            .filter(|m| m[pw.index()] == w_bad)
            .all(|m| m[py.index()] == m[pz.index()]));
    }

    /// Two dense hubs sharing half their targets: the diamond-closing
    /// step is plan-gated to the bitset merge (both anchor pair
    /// frequencies clear `BITSET_ANCHOR_DEGREE` and the live candidate
    /// set clears `BITSET_MIN_CANDIDATES`), and the match set must be
    /// exactly what brute force and the stats-free two-pointer plan find.
    #[test]
    fn bitset_merge_agrees_with_brute_force_on_hubs() {
        use crate::plan::IntersectStrategy;
        let mut v = Vocab::new();
        let t = v.label("t");
        let e = v.label("e");
        let mut g = Graph::new();
        let h1 = g.add_node(t);
        let h2 = g.add_node(t);
        for i in 0..200 {
            let w = g.add_node(t);
            g.add_edge(h1, e, w);
            if i % 2 == 0 {
                g.add_edge(h2, e, w);
            }
        }
        let idx = LabelIndex::build(&g);
        // Diamond: x -> y, x -> z, y -> w, z -> w.
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        let z = p.add_node(t, "z");
        let w = p.add_node(t, "w");
        p.add_edge(x, e, y);
        p.add_edge(x, e, z);
        p.add_edge(y, e, w);
        p.add_edge(z, e, w);

        let plan = MatchPlan::build(&p, None, Some(&idx));
        assert!(
            plan.steps()
                .iter()
                .any(|s| s.strategy == IntersectStrategy::Bitset),
            "stats plan on a hub graph must gate the bitset merge"
        );
        let mut bitset: Vec<Vec<NodeId>> = Vec::new();
        let mut s = HomSearch::new(&g, &idx, &p, &plan);
        s.run(
            |m| {
                bitset.push(m.to_vec());
                ControlFlow::Continue(())
            },
            SearchLimits::none(),
        );
        let structural = MatchPlan::structural(&p, None);
        let mut merged: Vec<Vec<NodeId>> = Vec::new();
        let mut s2 = HomSearch::new(&g, &idx, &p, &structural);
        s2.run(
            |m| {
                merged.push(m.to_vec());
                ControlFlow::Continue(())
            },
            SearchLimits::none(),
        );
        let mut brute: Vec<Vec<NodeId>> = crate::brute::brute_force_matches(&g, &p)
            .iter()
            .map(|m| m.to_vec())
            .collect();
        bitset.sort();
        merged.sort();
        brute.sort();
        assert_eq!(bitset, brute);
        assert_eq!(merged, brute);
    }

    #[test]
    fn bitset_slice_intersection_agrees() {
        let a = ids(&(0..500).step_by(3).collect::<Vec<_>>());
        let b = ids(&(0..500).step_by(5).collect::<Vec<_>>());
        assert_eq!(
            intersect_slices_bitset(&a, &b),
            intersect_slices_two_pointer(&a, &b)
        );
        assert_eq!(intersect_slices_bitset(&[], &a), Vec::<NodeId>::new());
        assert_eq!(intersect_slices_bitset(&a, &[]), Vec::<NodeId>::new());
    }

    #[test]
    fn disconnected_pattern_takes_cross_product() {
        let (g, mut v) = triangle();
        let idx = LabelIndex::build(&g);
        let t = v.label("t");
        let mut p = Pattern::new();
        p.add_node(t, "a");
        p.add_node(t, "b");
        // Two isolated vars: every pair of nodes matches.
        assert_eq!(count_matches(&g, &idx, &p), 9);
    }

    #[test]
    fn filters_prune_candidates() {
        let (g, mut v) = triangle();
        let idx = LabelIndex::build(&g);
        let p = edge_pattern(&mut v);
        // Only allow node 0 for x, anything for y.
        let mut only0 = NodeSet::with_capacity(3);
        only0.insert(NodeId::new(0));
        let mut all = NodeSet::with_capacity(3);
        for n in g.nodes() {
            all.insert(n);
        }
        let filters = vec![only0, all];
        let plan = MatchPlan::build(&p, Some(VarId::new(0)), Some(&idx));
        let mut s = HomSearch::new(&g, &idx, &p, &plan).with_filters(&filters);
        let mut n = 0;
        s.run(
            |m| {
                assert_eq!(m[0], NodeId::new(0));
                n += 1;
                ControlFlow::Continue(())
            },
            SearchLimits::none(),
        );
        assert_eq!(n, 1);
    }

    #[test]
    fn invalid_prefix_yields_no_matches() {
        let mut v = Vocab::new();
        let person = v.label("person");
        let place = v.label("place");
        let mut g = Graph::new();
        g.add_node(person);
        let b = g.add_node(place);
        let idx = LabelIndex::build(&g);
        let mut p = Pattern::new();
        p.add_node(person, "x");
        let plan = MatchPlan::build(&p, Some(VarId::new(0)), Some(&idx));
        // Pivot at a place-labelled node for a person-labelled variable.
        let mut s = HomSearch::new(&g, &idx, &p, &plan).with_prefix(&[b]);
        let mut n = 0;
        let outcome = s.run(
            |_| {
                n += 1;
                ControlFlow::Continue(())
            },
            SearchLimits::none(),
        );
        assert_eq!(outcome, RunOutcome::Exhausted);
        assert_eq!(n, 0);
    }

    fn ids(xs: &[usize]) -> Vec<NodeId> {
        xs.iter().copied().map(NodeId::new).collect()
    }

    #[test]
    fn gallop_lower_bound_matches_linear_scan() {
        let slice = ids(&[1, 3, 4, 8, 9, 15, 20, 21, 22, 40, 41, 99]);
        for start in 0..=slice.len() {
            for t in 0..=100 {
                let target = NodeId::new(t);
                let linear = (start..slice.len())
                    .find(|&j| slice[j] >= target)
                    .unwrap_or(slice.len());
                assert_eq!(
                    gallop_lower_bound(&slice, start, target),
                    linear,
                    "start={start} target={target}"
                );
            }
        }
    }

    #[test]
    fn slice_intersections_agree_across_skews() {
        let a = ids(&(0..400).step_by(3).collect::<Vec<_>>());
        let b = ids(&[2, 3, 6, 7, 9, 150, 151, 153, 399]);
        let expect = intersect_slices_two_pointer(&a, &b);
        assert_eq!(intersect_slices_gallop(&b, &a), expect);
        assert_eq!(intersect_slices_two_pointer(&b, &a), expect);
        assert_eq!(intersect_slices_gallop(&[], &a), Vec::<NodeId>::new());
        assert_eq!(intersect_slices_gallop(&b, &[]), Vec::<NodeId>::new());
    }

    /// A hub with many `e`-successors so the three intersect regimes
    /// (adjacency-heavy probe, candidate-heavy gallop, balanced
    /// two-pointer) can all be driven through `intersect_sorted_view`
    /// and checked against each other.
    #[test]
    fn intersect_sorted_view_is_skew_invariant() {
        let mut v = Vocab::new();
        let t = v.label("t");
        let e = v.label("e");
        let mut g = Graph::new();
        let hub = g.add_node(t);
        let spokes: Vec<NodeId> = (0..256).map(|_| g.add_node(t)).collect();
        for (i, &s) in spokes.iter().enumerate() {
            if i % 2 == 0 {
                g.add_edge(hub, e, s);
            }
        }
        let view = g.freeze();
        let even: Vec<NodeId> = spokes.iter().copied().step_by(2).collect();

        // Adjacency (128 edges) >= 8x candidates: membership-probe path.
        let few: Vec<NodeId> = spokes[..12].to_vec();
        let got = intersect_sorted_view(&view, &few, hub, Dir::Out, e);
        assert_eq!(got, intersect_slices_two_pointer(&few, &even));

        // Candidates cover every spoke plus hub: galloping path (and the
        // balanced two-pointer on the reverse direction must agree).
        let mut all: Vec<NodeId> = vec![hub];
        all.extend(&spokes);
        let got = intersect_sorted_view(&view, &all, hub, Dir::Out, e);
        assert_eq!(got, even);
        for &s in &spokes[..8] {
            let got = intersect_sorted_view(&view, &all, s, Dir::In, e);
            let expect = if spokes.iter().position(|&x| x == s).unwrap() % 2 == 0 {
                vec![hub]
            } else {
                vec![]
            };
            assert_eq!(got, expect);
        }
    }
}
