//! The branch-parallel GED reasoning driver: one [`Task`] implementation
//! on the shared `gfd-runtime` work-stealing scheduler serves both
//! satisfiability ([`crate::sat`]) and implication ([`crate::imp`]).
//!
//! The natural work unit of the GED small-model search is the **open
//! branch**: a [`GedStore`] holding everything asserted on one path of
//! the choice tree (consequence disjuncts, premise-literal splits). The
//! driver runs each branch to its next choice point via the shared
//! deterministic-enforcement scan (`crate::chase::fixpoint_round`) and
//! turns the children into further branches — **copy-on-branch**: the
//! store is cloned per child, so branches share nothing mutable and any
//! worker can run any branch.
//!
//! Scheduling discipline (mirrors `gfd_core::driver::ReasonTask`):
//!
//! * a worker explores its unit's subtree **depth-first** on a local
//!   stack — with one worker and no TTL expiry this is exactly the old
//!   recursive search, so the sequential algorithms are the `workers = 1`
//!   instantiation of this driver, not a separate code path;
//! * **TTL straggler splitting** — when a unit runs past the TTL, the
//!   worker drains its entire open-branch stack into split units pushed
//!   to the front of its own deque in DFS order: the head unit resumes
//!   exactly where the straggler stopped (priority inheritance), while
//!   idle workers steal the *back* half — the shallowest branches, which
//!   carry the largest subtrees;
//! * **early termination** — satisfiability raises the scheduler's stop
//!   flag on the first quiescent (model) branch, implication on the first
//!   counterexample leaf; both quantifiers need only one witness;
//! * a shared **branch budget** bounds the exponential worst case; an
//!   exhausted budget stops the run and reports `outcome: None` instead
//!   of looping (or panicking from a worker thread).
//!
//! Outcomes are deterministic under any steal order: the choice tree is a
//! function of (Σ, ψ) alone, and SAT/UNSAT (resp. implied/not) is an
//! existential (resp. universal) quantifier over its leaves — workers
//! merely traverse the same fixed tree in a different order. The one
//! exception is *which* witness model is extracted, and budget-capped
//! runs whose budget falls inside the tree (DESIGN.md §9).

use crate::chase::{fixpoint_round, NextStep};
use crate::ged::{Ged, GedLiteral, GedSet};
use crate::imp::GedImpOutcome;
use crate::sat::{extract_witness, GedSatOutcome};
use crate::store::GedStore;
use gfd_core::{Budget, Interrupt};
use gfd_graph::{Graph, NodeId};
use gfd_runtime::sched::{run_scheduler_with, Task, WorkerCtx};
use gfd_runtime::{DispatchMode, EventKind, RunMetrics, TraceSpec};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Tuning knobs of the branch-parallel GED driver.
#[derive(Clone, Debug)]
pub struct GedReasonConfig {
    /// Number of workers `p`. `1` runs inline on the calling thread — the
    /// sequential search.
    pub workers: usize,
    /// Straggler threshold: a unit exploring longer than this drains its
    /// open branches into split units other workers can steal.
    pub ttl: Duration,
    /// Branch splitting on TTL expiry; with `false` every seed unit runs
    /// its whole subtree on one worker.
    pub split: bool,
    /// How units reach the workers: per-worker deques with stealing
    /// (default) or the centralized-queue baseline.
    pub dispatch: DispatchMode,
    /// Budget on explored branches. The exact search is exponential in
    /// pathological inputs; exceeding the budget ends the run with
    /// `outcome: None` rather than looping. Shared across all workers.
    pub max_branches: usize,
    /// Unified resource budget (DESIGN.md §11.2): wall-clock deadline and
    /// scheduler unit cap, checked cooperatively at branch boundaries.
    /// Exhaustion degrades to `outcome: None` with the [`Interrupt`]
    /// reason attached.
    pub budget: Budget,
    /// Structured tracing (DESIGN.md §13): per-unit `GedBranch` spans
    /// counting the branches each scheduled subtree explored, plus the
    /// scheduler's own events. Off by default.
    pub trace: TraceSpec,
}

impl Default for GedReasonConfig {
    fn default() -> Self {
        GedReasonConfig {
            workers: 1,
            ttl: Duration::from_millis(100),
            split: true,
            dispatch: DispatchMode::WorkStealing,
            max_branches: 1_000_000,
            budget: Budget::unlimited(),
            trace: TraceSpec::disabled(),
        }
    }
}

impl GedReasonConfig {
    /// Default configuration with `p` workers.
    pub fn with_workers(workers: usize) -> Self {
        GedReasonConfig {
            workers,
            ..Self::default()
        }
    }

    /// Override the TTL.
    pub fn with_ttl(mut self, ttl: Duration) -> Self {
        self.ttl = ttl;
        self
    }

    /// Override the dispatch mode.
    pub fn with_dispatch(mut self, dispatch: DispatchMode) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Override the branch budget.
    pub fn with_max_branches(mut self, max_branches: usize) -> Self {
        self.max_branches = max_branches;
        self
    }

    /// Attach a unified resource budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// A satisfiability run: outcome plus unified scheduler metrics.
#[derive(Debug)]
pub struct GedSatRun {
    /// `None` when the run degraded — branch budget, deadline, unit
    /// budget, or a panic abort — before the search completed (the answer
    /// is unknown).
    pub outcome: Option<GedSatOutcome>,
    /// Why the outcome is `None`; always `Some` exactly when it is.
    pub interrupt: Option<Interrupt>,
    /// Unified scheduler counters (branches, splits, steals, idle time).
    pub metrics: RunMetrics,
}

/// An implication run: outcome plus unified scheduler metrics.
#[derive(Debug)]
pub struct GedImpRun {
    /// `None` when the run degraded — branch budget, deadline, unit
    /// budget, or a panic abort — before the search completed (the answer
    /// is unknown).
    pub outcome: Option<GedImpOutcome>,
    /// Why the outcome is `None`; always `Some` exactly when it is.
    pub interrupt: Option<Interrupt>,
    /// Unified scheduler counters (branches, splits, steals, idle time).
    pub metrics: RunMetrics,
}

/// What a run is trying to decide.
enum GedGoal<'a> {
    /// Does some branch reach a quiescent (model) leaf?
    Sat,
    /// Does every branch reach the goal (conflict or `Y` entailed)?
    Imp {
        /// The candidate consequence ψ.
        phi: &'a Ged,
        /// Identity mapping of ψ's variables onto `G^X_Q` nodes.
        identity: Vec<NodeId>,
    },
}

/// One open branch of the choice tree — a schedulable unit.
struct BranchUnit {
    store: GedStore,
}

/// Per-worker state: just counters; branches carry all search state.
struct GedWorker {
    branches_explored: u64,
}

/// The branch-and-bound workload run by the scheduler.
struct GedTask<'a> {
    sigma: &'a GedSet,
    base: &'a Graph,
    goal: GedGoal<'a>,
    cfg: &'a GedReasonConfig,
    stop: &'a AtomicBool,
    /// Branches explored across all workers (the budget counter).
    branches: AtomicUsize,
    budget_exceeded: AtomicBool,
    deadline_exceeded: AtomicBool,
    /// Satisfiability: the first quiescent store (first writer wins).
    witness: Mutex<Option<GedStore>>,
    /// Implication: a counterexample leaf was found.
    refuted: AtomicBool,
}

impl GedTask<'_> {
    /// Run one branch to its next choice point and push the children.
    fn step(&self, stack: &mut Vec<GedStore>, mut store: GedStore) {
        match fixpoint_round(self.sigma, self.base, &mut store) {
            // Inconsistent: the branch dies. For satisfiability that
            // prunes one candidate model; for implication the conflict
            // case of Corollary 4 holds vacuously.
            NextStep::Fail => {}
            NextStep::Quiescent => match &self.goal {
                GedGoal::Sat => {
                    // First witness wins; everyone else stops searching.
                    let mut slot = self.witness.lock();
                    if slot.is_none() {
                        *slot = Some(store);
                    }
                    self.stop.store(true, Ordering::Relaxed);
                }
                GedGoal::Imp { phi, identity } => self.imp_leaf(stack, store, phi, identity),
            },
            NextStep::ChooseDisjunct(ged_idx, m) => {
                // Both quantifiers branch identically over consistent
                // disjuncts — only the leaf test differs. Pushed in
                // reverse so disjunct 0 is explored first (DFS order of
                // the sequential search).
                let disjuncts = &self.sigma.get(gfd_graph::GfdId::new(ged_idx)).disjuncts;
                for disjunct in disjuncts.iter().rev() {
                    let mut branch = store.clone();
                    if disjunct
                        .iter()
                        .all(|lit| branch.assert_literal(lit, &m).is_ok())
                    {
                        stack.push(branch);
                    }
                }
            }
            NextStep::BranchPremise(ged_idx, lit_idx, m) => {
                let lit = self.sigma.get(gfd_graph::GfdId::new(ged_idx)).premise[lit_idx].clone();
                self.both_ways(stack, store, &lit, &m);
            }
        }
    }

    /// Split the model family on a grounded literal: every model satisfies
    /// `lit` or `¬lit`, so both sides become branches (an inconsistent
    /// side is empty and needs none). `¬lit` lands on top of the stack —
    /// a falsified premise needs no enforcement, so it is explored first,
    /// as in the sequential search.
    fn both_ways(
        &self,
        stack: &mut Vec<GedStore>,
        store: GedStore,
        lit: &GedLiteral,
        m: &[NodeId],
    ) {
        let mut pos = store.clone();
        if pos.assert_literal(lit, m).is_ok() {
            stack.push(pos);
        }
        let mut neg = store;
        if neg.assert_negation(lit, m).is_ok() {
            stack.push(neg);
        }
    }

    /// Implication's quiescent-leaf test (the paper's Corollary 4 cases).
    fn imp_leaf(
        &self,
        stack: &mut Vec<GedStore>,
        mut store: GedStore,
        phi: &Ged,
        identity: &[NodeId],
    ) {
        // Some disjunct fully entailed → Y deduced on this branch.
        let entailed = phi
            .disjuncts
            .iter()
            .any(|d| d.iter().all(|lit| store.literal_entailed(lit, identity)));
        if entailed {
            return;
        }
        // A disjunct blocked only by an undetermined grounded attribute
        // literal (possible with order predicates): the family contains
        // models on both sides — split and require the goal on both.
        for disjunct in &phi.disjuncts {
            for lit in disjunct {
                if matches!(lit, GedLiteral::Id { .. }) {
                    continue; // falsified by keeping nodes distinct
                }
                if store.literal_grounded(lit, identity)
                    && !store.literal_entailed(lit, identity)
                    && !store.literal_refuted(lit, identity)
                {
                    let lit = lit.clone();
                    self.both_ways(stack, store, &lit, identity);
                    return;
                }
            }
        }
        // Every disjunct has a literal the generic minimal model
        // falsifies: this branch is a counterexample — Σ ̸|= ψ.
        self.refuted.store(true, Ordering::Relaxed);
        self.stop.store(true, Ordering::Relaxed);
    }
}

impl Task for GedTask<'_> {
    type Unit = BranchUnit;
    type Worker = GedWorker;

    fn worker(&self, _id: usize) -> GedWorker {
        GedWorker {
            branches_explored: 0,
        }
    }

    fn run_unit(&self, w: &mut GedWorker, unit: BranchUnit, ctx: &WorkerCtx<'_, BranchUnit>) {
        let span = ctx.trace_start();
        let explored0 = w.branches_explored;
        self.explore(w, unit, ctx);
        ctx.trace_span(
            EventKind::GedBranch,
            0,
            span,
            w.branches_explored - explored0,
            0,
        );
    }
}

impl GedTask<'_> {
    /// One scheduled unit's depth-first subtree walk (the body of
    /// [`Task::run_unit`], factored out so the trace span wraps every
    /// exit path uniformly).
    fn explore(&self, w: &mut GedWorker, unit: BranchUnit, ctx: &WorkerCtx<'_, BranchUnit>) {
        let mut stack: Vec<GedStore> = vec![unit.store];
        let deadline = self.cfg.split.then(|| Instant::now() + self.cfg.ttl);
        while let Some(store) = stack.pop() {
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            // The scheduler checks the wall clock only between units; a
            // unit exploring a large subtree must check cooperatively.
            if self.cfg.budget.expired() {
                self.deadline_exceeded.store(true, Ordering::Relaxed);
                self.stop.store(true, Ordering::Relaxed);
                return;
            }
            if self.branches.fetch_add(1, Ordering::Relaxed) >= self.cfg.max_branches {
                self.budget_exceeded.store(true, Ordering::Relaxed);
                self.stop.store(true, Ordering::Relaxed);
                return;
            }
            w.branches_explored += 1;
            self.step(&mut stack, store);
            // Straggler: drain every open branch into split units, DFS
            // order preserved (front of the deque = the branch this loop
            // would have popped next), and end the unit — idle workers
            // steal the shallowest branches from the back.
            if let Some(d) = deadline {
                if Instant::now() >= d && !stack.is_empty() {
                    let units: Vec<BranchUnit> = stack
                        .drain(..)
                        .rev()
                        .map(|store| BranchUnit { store })
                        .collect();
                    ctx.split(units);
                    return;
                }
            }
        }
    }
}

/// What the scheduler run resolved to, before goal-specific mapping.
struct GedRunOutput {
    witness: Option<GedStore>,
    refuted: bool,
    /// Why the run degraded, if it did (branch/deadline/unit budget or a
    /// panic abort); `None` for a run that searched to completion.
    interrupt: Option<Interrupt>,
    metrics: RunMetrics,
}

/// Run the branch search over a prepared canonical graph.
fn run_ged(
    sigma: &GedSet,
    base: &Graph,
    goal: GedGoal<'_>,
    seed: GedStore,
    cfg: &GedReasonConfig,
) -> GedRunOutput {
    let start = Instant::now();
    let p = cfg.workers.max(1);
    let stop = AtomicBool::new(false);
    let task = GedTask {
        sigma,
        base,
        goal,
        cfg,
        stop: &stop,
        branches: AtomicUsize::new(0),
        budget_exceeded: AtomicBool::new(false),
        deadline_exceeded: AtomicBool::new(false),
        witness: Mutex::new(None),
        refuted: AtomicBool::new(false),
    };
    let seed_units = vec![BranchUnit { store: seed }];

    let mut metrics = RunMetrics {
        workers: p,
        units_generated: seed_units.len(),
        ..Default::default()
    };
    let mut opts = cfg.budget.sched_options();
    opts.trace = cfg.trace;
    let run = run_scheduler_with(&task, seed_units, p, cfg.dispatch, &stop, opts);
    metrics.trace = run.trace;
    metrics.units_dispatched = run.units_executed;
    metrics.units_split = run.units_split;
    metrics.units_stolen = run.units_stolen;
    metrics.worker_busy = run.worker_busy;
    metrics.worker_idle = run.worker_idle;
    metrics.units_panicked = run.units_panicked;
    metrics.units_retried = run.units_retried;
    metrics.branches = run.workers.iter().map(|w| w.branches_explored).sum();
    metrics.early_terminated = stop.load(Ordering::Relaxed);
    metrics.elapsed = start.elapsed();
    metrics.deadline_slack_ms = cfg.budget.deadline_slack_ms();

    // Panic aborts outrank budget reasons (the run did not merely run
    // out of resources); the cooperative flags cover exhaustion detected
    // inside a unit, the scheduler outcome covers unit boundaries.
    let interrupt = Interrupt::from_outcome(&run.outcome)
        .or_else(|| {
            task.deadline_exceeded
                .load(Ordering::Relaxed)
                .then_some(Interrupt::Deadline)
        })
        .or_else(|| {
            task.budget_exceeded
                .load(Ordering::Relaxed)
                .then_some(Interrupt::Branches)
        });

    GedRunOutput {
        witness: task.witness.into_inner(),
        refuted: task.refuted.load(Ordering::Relaxed),
        interrupt,
        metrics,
    }
}

/// Check satisfiability of a set of GEDs on the shared scheduler.
///
/// `cfg.workers == 1` is the sequential small-model search;
/// [`crate::sat::ged_sat`] is exactly that instantiation.
pub fn ged_sat_with_config(sigma: &GedSet, cfg: &GedReasonConfig) -> GedSatRun {
    if sigma.is_empty() {
        // The empty set is modelled by any single-node graph.
        let mut g = Graph::new();
        g.add_node(gfd_graph::LabelId::WILDCARD);
        return GedSatRun {
            outcome: Some(GedSatOutcome::Satisfiable { witness: Some(g) }),
            interrupt: None,
            metrics: RunMetrics {
                workers: cfg.workers.max(1),
                ..Default::default()
            },
        };
    }
    // Canonical graph: disjoint union of all patterns.
    let mut base = Graph::new();
    for (_, ged) in sigma.iter() {
        base.append_disjoint(&ged.pattern.to_graph());
    }
    let seed = GedStore::new(&base);
    let out = run_ged(sigma, &base, GedGoal::Sat, seed, cfg);
    // A found model is definitive regardless of the budget flag: near
    // the budget, one worker can record the witness while another's
    // counter crosses the cap before observing stop. Only an
    // *inconclusive* interrupted run is "unknown".
    let outcome = if let Some(mut store) = out.witness {
        let witness = extract_witness(&mut store, &base);
        Some(GedSatOutcome::Satisfiable { witness })
    } else if out.interrupt.is_some() {
        None
    } else {
        Some(GedSatOutcome::Unsatisfiable)
    };
    let interrupt = if outcome.is_none() {
        out.interrupt
    } else {
        None
    };
    GedSatRun {
        outcome,
        interrupt,
        metrics: out.metrics,
    }
}

/// Decide whether `sigma` implies `phi` on the shared scheduler.
///
/// `cfg.workers == 1` is the sequential search;
/// [`crate::imp::ged_implies`] is exactly that instantiation.
pub fn ged_implies_with_config(sigma: &GedSet, phi: &Ged, cfg: &GedReasonConfig) -> GedImpRun {
    let base = phi.pattern.to_graph();
    let identity: Vec<NodeId> = (0..phi.pattern.node_count()).map(NodeId::new).collect();
    let mut store = GedStore::new(&base);
    // Assert X; an inconsistent premise makes ψ vacuously true.
    for lit in &phi.premise {
        if store.assert_literal(lit, &identity).is_err() {
            return GedImpRun {
                outcome: Some(GedImpOutcome::Implied),
                interrupt: None,
                metrics: RunMetrics {
                    workers: cfg.workers.max(1),
                    ..Default::default()
                },
            };
        }
    }
    let out = run_ged(sigma, &base, GedGoal::Imp { phi, identity }, store, cfg);
    // As in Sat: a found counterexample is definitive even when the
    // budget flag raced in; only exhaustion without one is "unknown".
    let outcome = if out.refuted {
        Some(GedImpOutcome::NotImplied)
    } else if out.interrupt.is_some() {
        None
    } else {
        Some(GedImpOutcome::Implied)
    };
    let interrupt = if outcome.is_none() {
        out.interrupt
    } else {
        None
    };
    GedImpRun {
        outcome,
        interrupt,
        metrics: out.metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ged::CmpOp;
    use gfd_graph::{LabelId, Pattern, VarId, Vocab};

    fn wildcard_node() -> Pattern {
        let mut p = Pattern::new();
        p.add_node(LabelId::WILDCARD, "x");
        p
    }

    /// Σ whose whole choice tree must be explored (unsatisfiable through
    /// disjunctions over one attribute): root + two disjunct branches.
    fn unsat_disjunctive(vocab: &mut Vocab, rules: usize) -> GedSet {
        let a = vocab.attr("A");
        let x = VarId::new(0);
        let mut out = Vec::new();
        for i in 0..rules {
            let lo = 2 * i as i64;
            out.push(Ged::new(
                format!("r{i}"),
                wildcard_node(),
                vec![],
                vec![
                    vec![GedLiteral::eq_const(x, a, lo)],
                    vec![GedLiteral::eq_const(x, a, lo + 1)],
                ],
            ));
        }
        GedSet::from_vec(out)
    }

    #[test]
    fn parallel_workers_agree_on_unsat_tree() {
        let mut vocab = Vocab::new();
        let sigma = unsat_disjunctive(&mut vocab, 3);
        for p in [1usize, 2, 8] {
            for dispatch in [DispatchMode::WorkStealing, DispatchMode::Coordinator] {
                let cfg = GedReasonConfig::with_workers(p)
                    .with_ttl(Duration::ZERO)
                    .with_dispatch(dispatch);
                let run = ged_sat_with_config(&sigma, &cfg);
                let out = run.outcome.expect("within budget");
                assert!(!out.is_satisfiable(), "p={p} {dispatch:?}");
                assert!(run.metrics.branches >= 3, "tree not explored");
            }
        }
    }

    #[test]
    fn forced_splitting_reports_split_units() {
        let mut vocab = Vocab::new();
        let sigma = unsat_disjunctive(&mut vocab, 4);
        let cfg = GedReasonConfig::with_workers(2).with_ttl(Duration::ZERO);
        let run = ged_sat_with_config(&sigma, &cfg);
        assert!(!run.outcome.unwrap().is_satisfiable());
        assert!(run.metrics.units_split > 0, "TTL=0 never split");
    }

    #[test]
    fn budget_exhaustion_reports_unknown_not_panic() {
        let mut vocab = Vocab::new();
        // Exhausting the tree needs 3 branch visits (root + 2 children);
        // a budget of 2 cannot finish, at any worker count.
        let sigma = unsat_disjunctive(&mut vocab, 2);
        for p in [1usize, 2, 8] {
            let cfg = GedReasonConfig::with_workers(p).with_max_branches(2);
            let run = ged_sat_with_config(&sigma, &cfg);
            assert!(run.outcome.is_none(), "p={p}: budget should be unknown");
            assert_eq!(run.interrupt, Some(Interrupt::Branches), "p={p}");
            assert!(run.metrics.early_terminated);
        }
    }

    #[test]
    fn expired_deadline_degrades_to_unknown() {
        let mut vocab = Vocab::new();
        let sigma = unsat_disjunctive(&mut vocab, 6);
        for p in [1usize, 2] {
            let cfg = GedReasonConfig::with_workers(p).with_budget(
                Budget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1)),
            );
            let run = ged_sat_with_config(&sigma, &cfg);
            assert!(run.outcome.is_none(), "p={p}");
            assert_eq!(run.interrupt, Some(Interrupt::Deadline), "p={p}");
            assert!(run.metrics.deadline_slack_ms.unwrap() < 0);
        }
    }

    #[test]
    fn first_witness_cancels_the_search() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let x = VarId::new(0);
        // Satisfiable immediately: one conjunctive rule, one branch.
        let sigma = GedSet::from_vec(vec![Ged::conjunctive(
            "r",
            wildcard_node(),
            vec![],
            vec![GedLiteral::cmp_const(x, a, CmpOp::Ge, 0i64)],
        )]);
        let run = ged_sat_with_config(&sigma, &GedReasonConfig::with_workers(4));
        assert!(run.outcome.unwrap().is_satisfiable());
        assert!(run.metrics.early_terminated, "witness should raise stop");
    }

    #[test]
    fn imp_runs_report_metrics() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let x = VarId::new(0);
        let sigma = GedSet::from_vec(vec![Ged::conjunctive(
            "r",
            wildcard_node(),
            vec![],
            vec![GedLiteral::eq_const(x, a, 1i64)],
        )]);
        let phi = Ged::conjunctive(
            "q",
            wildcard_node(),
            vec![],
            vec![GedLiteral::cmp_const(x, a, CmpOp::Ge, 1i64)],
        );
        for p in [1usize, 4] {
            let run = ged_implies_with_config(&sigma, &phi, &GedReasonConfig::with_workers(p));
            assert!(run.outcome.expect("within budget").is_implied(), "p={p}");
            assert!(run.metrics.branches >= 1);
            assert_eq!(run.metrics.workers, p);
        }
    }
}
