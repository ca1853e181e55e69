//! The unified reasoning driver: one fixpoint loop for `SeqSat`, `SeqImp`,
//! `ParSat` and `ParImp`, run on the `gfd-runtime` work-stealing scheduler.
//!
//! The paper's §V workload model is instantiated once here as
//! `ReasonTask`: pivoted work units `(Q[z], ϕ)` generated and
//! priority-ordered by [`crate::unit`], matched by `HomSearch`, enforced
//! into a per-worker [`EnforceEngine`], with
//!
//! * **asynchronous `ΔEq` broadcast** — each worker ships the ops recorded
//!   since its last broadcast to every peer as one shared `Arc<[EqOp]>`
//!   payload (a single allocation however many peers there are);
//! * **straggler splitting** — a unit matching past the TTL carves its
//!   untried sibling branches into prefix units pushed to the front of the
//!   worker's own deque (priority inheritance, paper's Example 6);
//! * **early termination** — a conflict, or for implication a deduced
//!   consequence, raises the scheduler's stop flag;
//! * **final convergence** — after quiescence the workers' op logs and
//!   unresolved pending matches are replayed into one engine and the
//!   (cheap, match-free) enforcement fixpoint is run. This closes the
//!   window where a pending premise was satisfied by a `ΔEq` that arrived
//!   after its worker went idle — required for exactness (DESIGN.md §7).
//!
//! The sequential algorithms are the `workers = 1` instantiation of the
//! same task: the peer list is empty so broadcast is naturally a no-op,
//! the single engine already *is* the global fixpoint (no convergence
//! replay), and the scheduler runs the one worker inline on the calling
//! thread. Sequential and parallel reasoning therefore cannot drift
//! semantically — they are the same code path.

use crate::budget::{Budget, Interrupt};
use crate::canonical::{build_plans_lazy, consequence_deducible, CanonicalGraph};
use crate::dependency::{generate_deducible, Consequence, Dependency};
use crate::enforce::EnforceEngine;
use crate::eq::{EqOp, EqRel};
use crate::error::Conflict;
use crate::gfd::Gfd;
use crate::sigma::GfdSet;
use crate::unit::{generate_units, order_units, WorkUnit};
use crossbeam_channel::{unbounded, Receiver, Sender};
use gfd_graph::GfdId;
use gfd_match::{HomSearch, Match, MatchPlan, RunOutcome, SearchLimits};
use gfd_runtime::sched::{run_scheduler_with, Task, WorkerCtx};
use gfd_runtime::{DispatchMode, EventKind, RunMetrics, RunOutcome as SchedOutcome, TraceSpec};
use parking_lot::Mutex;
use rustc_hash::FxHashSet;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a reasoning run is trying to decide.
#[derive(Clone, Copy)]
pub enum Goal<'a> {
    /// Satisfiability over `GΣ`.
    Sat,
    /// Implication of `ϕ` over `G^X_Q`.
    Imp(&'a Gfd),
    /// Implication of a *generating* dependency (GGD) over `G^X_Q` — the
    /// third goal of the generalized rule layer. Workers terminate early
    /// when the generating consequence becomes *deducible*: some
    /// extension of the identity match realizes the target subgraph in
    /// the canonical graph with every attribute assignment forced by the
    /// current relation. Mixed rule sets (Σ itself generating) route
    /// through the chase-based semantics in `gfd-chase` instead; this arm
    /// serves GGD queries against a literal Σ, whose enforcement never
    /// changes the topology the realization check probes.
    GgdImp(&'a Dependency),
}

impl<'a> Goal<'a> {
    /// The candidate's premise literals, for the X-subsumption priority
    /// boost shared by both implication arms (§VI-C).
    fn imp_premise(&self) -> Option<&'a [crate::literal::Literal]> {
        match self {
            Goal::Sat => None,
            Goal::Imp(phi) => Some(&phi.premise),
            Goal::GgdImp(dep) => Some(&dep.premise),
        }
    }
}

/// A run-ending event raised by a worker or the final convergence phase.
#[derive(Clone, Debug)]
pub enum TerminalEvent {
    /// Distinct constants forced onto one class (the `f_c` flag).
    Conflict(Conflict),
    /// `Y ⊆ EqH` reached (implication only).
    Consequence,
}

/// Tuning knobs of the unified driver (§V-B, §VI-C).
///
/// The one run configuration of Sat and Imp: sequential runs are
/// `workers = 1`, parallel runs `workers = p`.
#[derive(Clone, Debug)]
pub struct ReasonConfig {
    /// Number of workers `p`. `1` runs inline on the calling thread.
    pub workers: usize,
    /// Straggler threshold: a work unit matching longer than this is split
    /// (the paper's TTL, Exp-4 varies it from 0.1 s to 8 s).
    pub ttl: Duration,
    /// Pipelined parallelism: enforce each match as soon as it is found.
    /// With `false` (the paper's `*np` variants) a unit first enumerates
    /// *all* its matches, then enforces them.
    pub pipeline: bool,
    /// Work-unit splitting on TTL expiry. With `false` (the `*nb`
    /// variants) stragglers run to completion on one worker.
    pub split: bool,
    /// Order work units by the dependency-graph topological order. With
    /// `false`, input order is used.
    pub use_dependency_order: bool,
    /// Skip units whose pivot component cannot host the pattern.
    pub prune_components: bool,
    /// How units reach the workers: per-worker deques with stealing
    /// (default) or the centralized-queue baseline.
    pub dispatch: DispatchMode,
    /// Resource limits (deadline, max units). Exhaustion degrades the run
    /// to an unknown outcome (DESIGN.md §11.2); the default is unlimited.
    pub budget: Budget,
    /// Structured tracing (DESIGN.md §13). Disabled by default; when
    /// enabled the scheduler and every work unit record typed spans into
    /// per-worker ring buffers, returned on `RunMetrics::trace`.
    pub trace: TraceSpec,
}

impl Default for ReasonConfig {
    fn default() -> Self {
        ReasonConfig {
            workers: 4,
            ttl: Duration::from_secs(2),
            pipeline: true,
            split: true,
            use_dependency_order: true,
            prune_components: true,
            dispatch: DispatchMode::WorkStealing,
            budget: Budget::unlimited(),
            trace: TraceSpec::default(),
        }
    }
}

impl ReasonConfig {
    /// Default configuration with `p` workers.
    pub fn with_workers(workers: usize) -> Self {
        ReasonConfig {
            workers,
            ..Self::default()
        }
    }

    /// The sequential configuration behind `seq_sat`/`seq_imp`: one
    /// worker, no straggler splitting, every other knob at its default.
    pub fn sequential() -> Self {
        ReasonConfig {
            workers: 1,
            split: false,
            ..Self::default()
        }
    }

    /// The `*np` ablation: no pipelining.
    pub fn without_pipeline(mut self) -> Self {
        self.pipeline = false;
        self
    }

    /// The `*nb` ablation: no work-unit splitting.
    pub fn without_split(mut self) -> Self {
        self.split = false;
        self
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

    /// Override the resource budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Enable structured tracing with the given spec.
    pub fn with_trace(mut self, trace: TraceSpec) -> Self {
        self.trace = trace;
        self
    }
}

/// The outcome of a reasoning run, before goal-specific interpretation.
pub struct ReasonRun {
    /// Early or final terminal event, if any.
    pub terminal: Option<TerminalEvent>,
    /// The merged engine after the convergence phase (absent when the run
    /// terminated early or was degraded by its budget).
    pub engine: Option<EnforceEngine>,
    /// How the scheduler run ended. Anything other than `Completed` /
    /// `Stopped` means the fixpoint was not reached: a missing terminal
    /// event then maps to an *unknown* outcome, never a definite one.
    pub sched_outcome: SchedOutcome,
    /// Run counters.
    pub metrics: RunMetrics,
}

/// One `ΔEq` broadcast payload: the ops a worker recorded since its last
/// broadcast, shared across all peers as a single allocation.
type DeltaPayload = Arc<[EqOp]>;

/// Is the goal's terminal consequence condition met under `eq`? `Sat`
/// never is (it terminates on conflicts only); the two implication arms
/// test literal deducibility and generating-target realization
/// respectively.
fn goal_consequence_deduced(goal: Goal<'_>, canon: &CanonicalGraph, eq: &mut EqRel) -> bool {
    match goal {
        Goal::Sat => false,
        Goal::Imp(phi) => consequence_deducible(eq, phi),
        Goal::GgdImp(dep) => match &dep.consequence {
            Consequence::Literals(lits) => crate::canonical::consequence_lits_deducible(eq, lits),
            Consequence::Generate(gen) => {
                let m: Vec<gfd_graph::NodeId> = (0..dep.pattern.node_count())
                    .map(gfd_graph::NodeId::new)
                    .collect();
                generate_deducible(eq, &canon.index, gen, &m)
            }
        },
    }
}

/// The goal-parameterized reasoning workload run by the scheduler.
struct ReasonTask<'a> {
    sigma: &'a GfdSet,
    canon: &'a CanonicalGraph,
    plans: &'a [Option<MatchPlan>],
    goal: Goal<'a>,
    cfg: &'a ReasonConfig,
    eq0: &'a EqRel,
    stop: &'a AtomicBool,
    /// `ΔEq` broadcast mesh: sender `i` feeds worker `i`'s inbox. Each
    /// worker takes its receiver out of the slot at startup.
    delta_txs: Vec<Sender<DeltaPayload>>,
    delta_rxs: Mutex<Vec<Option<Receiver<DeltaPayload>>>>,
    /// First terminal event raised anywhere in the run.
    terminal: Mutex<Option<TerminalEvent>>,
}

/// Per-worker reasoning state.
struct ReasonWorker {
    engine: EnforceEngine,
    rx_delta: Option<Receiver<DeltaPayload>>,
    tx_peers: Vec<Sender<DeltaPayload>>,
    broadcast_cursor: usize,
    last_y_version: u64,
    /// This worker already raised a terminal event; stop doing work.
    done: bool,
    matches: u64,
    ops_sent: u64,
}

impl<'a> ReasonTask<'a> {
    /// Raise a terminal event: record it (first writer wins) and set the
    /// global stop flag so every worker aborts its search.
    fn terminal(&self, w: &mut ReasonWorker, event: TerminalEvent) {
        if w.done {
            return;
        }
        w.done = true;
        let mut slot = self.terminal.lock();
        if slot.is_none() {
            *slot = Some(event);
        }
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Apply queued remote deltas (cascading local pending rechecks), then
    /// re-test the consequence for implication goals.
    fn apply_inbox(&self, w: &mut ReasonWorker) {
        if let Some(rx) = &w.rx_delta {
            while let Ok(ops) = rx.try_recv() {
                if let Err(c) = w.engine.apply_remote_ops(self.sigma, &ops) {
                    self.terminal(w, TerminalEvent::Conflict(c));
                    return;
                }
            }
        }
        self.check_consequence(w);
    }

    fn check_consequence(&self, w: &mut ReasonWorker) {
        if w.done || matches!(self.goal, Goal::Sat) {
            return;
        }
        let v = w.engine.eq.version();
        if v != w.last_y_version {
            w.last_y_version = v;
            if goal_consequence_deduced(self.goal, self.canon, &mut w.engine.eq) {
                self.terminal(w, TerminalEvent::Consequence);
            }
        }
    }

    /// Ship ops recorded since the last broadcast to every peer. The
    /// payload is shared as one `Arc<[EqOp]>`: a single allocation however
    /// many peers there are.
    fn broadcast(&self, w: &mut ReasonWorker) {
        if w.tx_peers.is_empty() {
            return;
        }
        let new = w.engine.delta_since(w.broadcast_cursor);
        if new.is_empty() {
            return;
        }
        let ops: DeltaPayload = Arc::from(new);
        w.broadcast_cursor = w.engine.delta_len();
        w.ops_sent += ops.len() as u64;
        for tx in &w.tx_peers {
            let _ = tx.send(Arc::clone(&ops));
        }
    }

    /// Pipelined mode: enforce each match the moment `HomMatch` produces
    /// it (streaming `HomMatch ∥ CheckAttr`).
    fn run_streaming(
        &self,
        w: &mut ReasonWorker,
        search: &mut HomSearch<'_>,
        gfd_id: GfdId,
        priority: u32,
        ctx: &WorkerCtx<'_, WorkUnit>,
    ) {
        loop {
            let deadline = self.cfg.split.then(|| Instant::now() + self.cfg.ttl);
            let limits = SearchLimits {
                deadline,
                stop: Some(self.stop),
            };
            let sigma = self.sigma;
            let canon = self.canon;
            let engine = &mut w.engine;
            let matches = &mut w.matches;
            let goal = self.goal;
            let mut last_version = w.last_y_version;
            let mut conflict: Option<Conflict> = None;
            let mut y_hit = false;
            let outcome = search.run(
                |m| {
                    *matches += 1;
                    match engine.process_match(sigma, gfd_id, m) {
                        Err(c) => {
                            conflict = Some(c);
                            ControlFlow::Break(())
                        }
                        Ok(()) => {
                            if !matches!(goal, Goal::Sat) {
                                let v = engine.eq.version();
                                if v != last_version {
                                    last_version = v;
                                    if goal_consequence_deduced(goal, canon, &mut engine.eq) {
                                        y_hit = true;
                                        return ControlFlow::Break(());
                                    }
                                }
                            }
                            ControlFlow::Continue(())
                        }
                    }
                },
                limits,
            );
            w.last_y_version = last_version;
            if let Some(c) = conflict {
                self.terminal(w, TerminalEvent::Conflict(c));
                return;
            }
            if y_hit {
                self.terminal(w, TerminalEvent::Consequence);
                return;
            }
            match outcome {
                RunOutcome::Exhausted | RunOutcome::Stopped => return,
                RunOutcome::Deadline => {
                    self.split_straggler(search, gfd_id, priority, ctx);
                    // Broadcast between TTL periods so long units still
                    // propagate their enforcements promptly.
                    self.broadcast(w);
                }
            }
        }
    }

    /// Non-pipelined (`*np`) mode: first enumerate every match of the
    /// unit, then enforce them one by one — the ablation baseline of
    /// Exp-1/Exp-4.
    fn run_collect_then_check(
        &self,
        w: &mut ReasonWorker,
        search: &mut HomSearch<'_>,
        gfd_id: GfdId,
        priority: u32,
        ctx: &WorkerCtx<'_, WorkUnit>,
    ) {
        let mut matches: Vec<Match> = Vec::new();
        loop {
            let deadline = self.cfg.split.then(|| Instant::now() + self.cfg.ttl);
            let limits = SearchLimits {
                deadline,
                stop: Some(self.stop),
            };
            let count = &mut w.matches;
            let outcome = search.run(
                |m| {
                    *count += 1;
                    matches.push(m);
                    ControlFlow::Continue(())
                },
                limits,
            );
            match outcome {
                RunOutcome::Exhausted | RunOutcome::Stopped => break,
                RunOutcome::Deadline => {
                    self.split_straggler(search, gfd_id, priority, ctx);
                    self.broadcast(w);
                }
            }
        }
        for m in matches {
            if w.done || self.stop.load(Ordering::Relaxed) {
                return;
            }
            if let Err(c) = w.engine.process_match(self.sigma, gfd_id, m) {
                self.terminal(w, TerminalEvent::Conflict(c));
                return;
            }
            self.check_consequence(w);
        }
    }

    /// TTL expired: carve the shallowest untried sibling branches into
    /// prefix units and push them to the front of this worker's deque
    /// (paper's Example 6; the split inherits the parent's priority).
    fn split_straggler(
        &self,
        search: &mut HomSearch<'_>,
        gfd_id: GfdId,
        priority: u32,
        ctx: &WorkerCtx<'_, WorkUnit>,
    ) {
        if !self.cfg.split {
            return;
        }
        let prefixes = search.split_shallowest();
        if prefixes.is_empty() {
            return;
        }
        let units: Vec<WorkUnit> = prefixes
            .into_iter()
            .map(|prefix| WorkUnit {
                gfd: gfd_id,
                prefix,
                priority,
            })
            .collect();
        ctx.split(units);
    }
}

impl Task for ReasonTask<'_> {
    type Unit = WorkUnit;
    type Worker = ReasonWorker;

    fn worker(&self, id: usize) -> ReasonWorker {
        let rx_delta = self.delta_rxs.lock()[id].take();
        let tx_peers = self
            .delta_txs
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != id)
            .map(|(_, tx)| tx.clone())
            .collect();
        ReasonWorker {
            engine: EnforceEngine::with_eq(self.eq0.clone()),
            rx_delta,
            tx_peers,
            broadcast_cursor: 0,
            last_y_version: 0,
            done: false,
            matches: 0,
            ops_sent: 0,
        }
    }

    fn run_unit(&self, w: &mut ReasonWorker, unit: WorkUnit, ctx: &WorkerCtx<'_, WorkUnit>) {
        if w.done || self.stop.load(Ordering::Relaxed) {
            return;
        }
        self.apply_inbox(w);
        if w.done {
            return;
        }
        let gfd_id = unit.gfd;
        let gfd = &self.sigma[gfd_id];
        let plan = self.plans[gfd_id.index()]
            .as_ref()
            .expect("a unit exists, so its GFD has pivot candidates and a plan");
        let mut search = HomSearch::new(&self.canon.graph, &self.canon.index, &gfd.pattern, plan)
            .with_prefix(&unit.prefix);

        let span = ctx.trace_start();
        let matches0 = w.matches;
        if self.cfg.pipeline {
            self.run_streaming(w, &mut search, gfd_id, unit.priority, ctx);
        } else {
            self.run_collect_then_check(w, &mut search, gfd_id, unit.priority, ctx);
        }
        ctx.trace_span(
            EventKind::RuleEval,
            gfd_id.index() as u32,
            span,
            w.matches - matches0,
            0,
        );
        self.broadcast(w);
    }

    fn on_idle(&self, w: &mut ReasonWorker, _ctx: &WorkerCtx<'_, WorkUnit>) {
        self.apply_inbox(w);
    }
}

/// Execute a reasoning run over a prepared canonical graph.
///
/// This is the one driver behind `SeqSat`, `SeqImp`, `ParSat` and
/// `ParImp`; the sequential algorithms call it with `cfg.workers == 1`.
pub fn run_reason(
    sigma: &GfdSet,
    goal: Goal<'_>,
    eq0: EqRel,
    canon: &CanonicalGraph,
    cfg: &ReasonConfig,
) -> ReasonRun {
    let start = Instant::now();
    let p = cfg.workers.max(1);
    let mut metrics = RunMetrics {
        workers: p,
        ..Default::default()
    };

    let (pivots, plans) = build_plans_lazy(sigma, &canon.index);
    let mut units = generate_units(sigma, canon, &pivots, cfg.prune_components);
    if cfg.use_dependency_order {
        let boosted: Option<Vec<bool>> = goal.imp_premise().map(|premise| {
            let x_attrs: FxHashSet<_> = premise
                .iter()
                .flat_map(crate::literal::Literal::attrs)
                .collect();
            sigma
                .iter()
                .map(|(_, g)| g.premise_attrs().all(|a| x_attrs.contains(&a)))
                .collect()
        });
        order_units(&mut units, sigma, canon, &pivots, boosted.as_deref());
    }
    metrics.units_generated = units.len();

    let stop = AtomicBool::new(false);
    let mut delta_txs = Vec::with_capacity(p);
    let mut delta_rxs = Vec::with_capacity(p);
    for _ in 0..p {
        let (tx, rx) = unbounded::<DeltaPayload>();
        delta_txs.push(tx);
        delta_rxs.push(Some(rx));
    }
    let task = ReasonTask {
        sigma,
        canon,
        plans: &plans,
        goal,
        cfg,
        eq0: &eq0,
        stop: &stop,
        delta_txs,
        delta_rxs: Mutex::new(delta_rxs),
        terminal: Mutex::new(None),
    };

    let opts = cfg.budget.sched_options(cfg.trace);
    let run = run_scheduler_with(&task, units, p, cfg.dispatch, &stop, opts);
    let (mut workers, sched_outcome) = metrics.fold_run(run);
    for w in &workers {
        metrics.matches += w.matches;
        metrics.delta_ops_broadcast += w.ops_sent;
        metrics.pending += w.engine.stats.pending_registered;
        metrics.rechecks += w.engine.stats.rechecks;
    }

    let mut terminal = task.terminal.into_inner();
    metrics.early_terminated = terminal.is_some();

    let engine = if terminal.is_some() {
        None
    } else if workers.len() == 1 {
        // One worker with no peers: its engine already is the global
        // fixpoint — no convergence replay needed.
        Some(workers.pop().expect("one worker").engine)
    } else {
        // ---- final convergence phase ----
        // Replay every worker's full op log, then the unresolved pending
        // matches, into one engine: any enforcement that any interleaving
        // could have produced is reproduced here (DESIGN.md §7).
        let mut deltas: Vec<Vec<EqOp>> = Vec::with_capacity(workers.len());
        let mut pendings: Vec<(GfdId, Match)> = Vec::new();
        for w in workers {
            let (delta, pending) = w.engine.into_state();
            deltas.push(delta);
            pendings.extend(pending);
        }
        let mut engine = EnforceEngine::with_eq(eq0.clone());
        'merge: {
            for delta in &deltas {
                if let Err(c) = engine.apply_remote_ops(sigma, delta) {
                    terminal = Some(TerminalEvent::Conflict(c));
                    break 'merge;
                }
            }
            for (gfd, m) in pendings {
                if let Err(c) = engine.process_match(sigma, gfd, m) {
                    terminal = Some(TerminalEvent::Conflict(c));
                    break 'merge;
                }
            }
            if !matches!(goal, Goal::Sat) && goal_consequence_deduced(goal, canon, &mut engine.eq) {
                terminal = Some(TerminalEvent::Consequence);
            }
        }
        (terminal.is_none()).then_some(engine)
    };

    // A degraded run (deadline, unit budget, panic abort) did not reach
    // the fixpoint: its merged state must never be read as a model. Any
    // terminal event found on the way — enforcement is monotone, so a
    // conflict derived from partial work is still definitive — survives.
    let engine = if terminal.is_none() && Interrupt::from_outcome(&sched_outcome).is_some() {
        None
    } else {
        engine
    };

    metrics.elapsed = start.elapsed();
    metrics.deadline_slack_ms = cfg.budget.deadline_slack_ms();
    ReasonRun {
        terminal,
        engine,
        sched_outcome,
        metrics,
    }
}
