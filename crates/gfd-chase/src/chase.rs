//! A deliberately *naive* chase engine over canonical graphs.
//!
//! This is the baseline the paper compares against (`ParImpRDF`, following
//! Hellings et al.'s chase for RDF FDs): a round-based fixpoint that
//! re-enumerates every match of every rule each round, with **no**
//! dependency ordering, **no** inverted pending index, and **no** early
//! consequence cut inside a round. Same answers as `SeqSat`/`SeqImp`,
//! strictly more work — which is exactly the point of the comparison in
//! Fig. 5 and Fig. 6(f).
//!
//! Since the scheduler port, each round's **premise scan** runs as a
//! [`Task`] on the shared `gfd-runtime` work-stealing scheduler instead
//! of a private loop: the cached match lists are chunked into scan units,
//! every worker evaluates premises against its own clone of the
//! round-start relation (premise evaluation only path-compresses, so a
//! clone is semantically inert), and the fired `(rule, match)` pairs are
//! applied **serially in deterministic order** between rounds. A premise
//! that a mid-round enforcement would have unlocked simply fires one
//! round later — the fixpoint (and any conflict) is unchanged because
//! enforcement is monotone, while the round structure the baseline is
//! *supposed* to pay for is preserved. Snapshot semantics hold at every
//! worker count (including the sequential `workers = 1`), so
//! [`ChaseStats`] round/eval counts are identical across `p` — they can
//! run higher than the pre-port scan, which applied consequences
//! mid-round, did for cascading rule orders; that is a uniform shift of
//! the baseline, not a scan-order artifact.

use gfd_core::{
    eval_premise_lits, generate_deducible, Budget, CanonicalGraph, Conflict, Consequence, DepSet,
    EqRel, GfdSet, Interrupt, Literal, Operand, PremiseStatus,
};
use gfd_graph::{AttrId, Graph, LabelId, MatchIndex, NodeId, ValueId, VarId};
use gfd_match::{find_all_matches, Match};
use gfd_runtime::sched::{run_scheduler_with, SchedOptions, SchedRun, Task, WorkerCtx};
use gfd_runtime::{
    failpoint, DispatchMode, EventKind, RunMetrics, TraceBuf, TraceSpec, CONTROL_WORKER,
};
use rustc_hash::FxHashSet;
use std::cell::RefCell;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// The control-track ring buffer a chase run records its phase spans
/// into (`ChaseRound`, `ApplyPlan`, `ApplyCommit` — DESIGN.md §13). The
/// chase driver runs on the calling thread, outside any scheduler
/// worker, so these spans carry [`CONTROL_WORKER`] and are absorbed into
/// the run's merged trace when it finishes.
struct ControlTrace(RefCell<TraceBuf>);

impl ControlTrace {
    fn new(spec: TraceSpec) -> Self {
        ControlTrace(RefCell::new(TraceBuf::new(spec.control(), CONTROL_WORKER)))
    }

    fn start(&self) -> gfd_runtime::SpanStart {
        self.0.borrow().start()
    }

    fn span(&self, kind: EventKind, id: u32, start: gfd_runtime::SpanStart, a: u64, b: u64) {
        self.0.borrow_mut().span(kind, id, start, a, b);
    }

    /// Move the recorded events into `metrics.trace`, leaving the buffer
    /// empty (the chase calls this once, on its single exit path).
    fn flush_into(&self, metrics: &mut RunMetrics) {
        let buf = self
            .0
            .replace(TraceBuf::new(TraceSpec::disabled(), CONTROL_WORKER));
        metrics.trace.absorb_buf(buf);
    }
}

/// Scheduler knobs of the chase baseline.
#[derive(Clone, Debug)]
pub struct ChaseConfig {
    /// Worker threads; `1` runs the scan inline on the calling thread.
    pub workers: usize,
    /// Straggler threshold for one scan unit: past it, the unit's
    /// remaining matches are split for idle workers to steal.
    pub ttl: Duration,
    /// Matches per initial scan unit.
    pub batch: usize,
    /// How units reach the workers.
    pub dispatch: DispatchMode,
    /// Termination guard for generating dependencies: the chase gives up
    /// (reporting "unknown" instead of looping forever) once this many
    /// fresh nodes have been materialized. GGD chains like
    /// `person → CREATE person` have no finite fixpoint; the budget bounds
    /// them the way `max_branches` bounds the GED search (DESIGN.md §10).
    /// Irrelevant to literal-only rule sets.
    pub max_generated_nodes: u64,
    /// Unified resource budget (DESIGN.md §11.2): the deadline is checked
    /// at round boundaries and inside the scan via the scheduler, the unit
    /// cap across all rounds. Exhaustion degrades to an `Interrupted`
    /// outcome — the chase never claims a fixpoint it did not reach.
    pub budget: Budget,
    /// Structured tracing (DESIGN.md §13): per-rule scan spans on the
    /// scheduler workers, `ChaseRound`/`ApplyPlan`/`ApplyCommit` phase
    /// spans on the control track. Off by default.
    pub trace: gfd_runtime::TraceSpec,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            workers: 1,
            ttl: Duration::from_millis(100),
            batch: 256,
            dispatch: DispatchMode::WorkStealing,
            max_generated_nodes: 100_000,
            budget: Budget::unlimited(),
            trace: gfd_runtime::TraceSpec::disabled(),
        }
    }
}

impl ChaseConfig {
    /// A config with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        ChaseConfig {
            workers,
            ..Self::default()
        }
    }

    /// Attach a unified resource budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Scheduler options for one round's scan: the global deadline plus
    /// whatever of the unit budget is left after `units_so_far`.
    fn round_sched_options(&self, units_so_far: u64) -> SchedOptions {
        SchedOptions {
            deadline: self.budget.deadline,
            max_units: self
                .budget
                .max_units
                .map(|max| max.saturating_sub(units_so_far)),
            unit_retries: 0,
            trace: self.trace,
        }
    }
}

/// Counters reported by the chase.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaseStats {
    /// Fixpoint rounds executed.
    pub rounds: u64,
    /// Premise evaluations across all rounds (the re-scanning overhead).
    pub premise_evals: u64,
    /// Matches enumerated. Match lists are cached per rule and counted
    /// once per enumeration; generating rules force a re-enumeration
    /// whenever materialization changed the topology.
    pub matches_enumerated: u64,
    /// Fresh nodes materialized by generating consequences (zero for
    /// literal-only rule sets).
    pub generated_nodes: u64,
    /// Realization checks run against round-start snapshots.
    pub realization_checks: u64,
    /// Firings committed by splicing a concurrently-built patch — the
    /// parallel-independent set of the conflict partition (DESIGN.md
    /// §12.2). Zero for the literal [`GfdSet`] baseline, which keeps
    /// the fully serial apply.
    pub apply_independent: u64,
    /// Firings whose touched classes or nodes overlapped an earlier
    /// firing of the same round, replayed through the serial fallback.
    pub apply_conflicts: u64,
    /// Wall time spent in premise scans, across all rounds.
    pub scan_time: Duration,
    /// Wall time spent planning and committing consequences, across all
    /// completed apply phases (a round cut short mid-apply is not
    /// booked).
    pub apply_time: Duration,
}

/// Outcome of chasing Σ over a canonical graph.
pub enum ChaseOutcome {
    /// Fixpoint reached without conflict; the final relation is returned.
    Fixpoint(EqRel),
    /// Two distinct constants were forced onto one class.
    Conflict(Conflict),
    /// The run was cut short — deadline, unit budget, or an injected
    /// fault — before the fixpoint: no definite answer.
    Interrupted(Interrupt),
}

/// Apply the consequence of `gfd` at `m`; returns whether anything changed.
fn apply_consequence(eq: &mut EqRel, gfd: &gfd_core::Gfd, m: &[NodeId]) -> Result<bool, Conflict> {
    apply_literals(eq, &gfd.consequence, m)
}

/// Apply a literal-conjunction consequence at `m`; returns whether
/// anything changed. Shared by the [`GfdSet`] baseline and the literal
/// arm of the generalized [`DepSet`] chase.
fn apply_literals(eq: &mut EqRel, lits: &[Literal], m: &[NodeId]) -> Result<bool, Conflict> {
    let mut changed = false;
    for lit in lits {
        let k1 = (m[lit.var.index()], lit.attr);
        match &lit.rhs {
            Operand::Const(c) => {
                changed |= eq.bind(k1, *c)?.changed;
            }
            Operand::Attr(v2, a2) => {
                let k2 = (m[v2.index()], *a2);
                changed |= eq.merge(k1, k2)?.changed;
            }
        }
    }
    Ok(changed)
}

/// A contiguous slice of one rule's cached match list.
#[derive(Clone, Copy)]
struct ScanUnit {
    rule: u32,
    start: u32,
    end: u32,
}

/// Per-worker scan state for one round.
struct ScanWorker {
    /// Clone of the round-start relation; mutated only by union-find
    /// path compression inside `eval_premise`, never by enforcement.
    eq: EqRel,
    /// `(rule, match index)` pairs whose premise the snapshot satisfies.
    fired: Vec<(u32, u32)>,
    premise_evals: u64,
}

/// One round's premise scan as a scheduler workload. The task only needs
/// each rule's premise literals, so the same scan serves the classic
/// [`GfdSet`] baseline and the generalized [`DepSet`] chase — a rule's
/// consequence action is irrelevant until the serial apply phase.
struct ScanTask<'a> {
    premises: &'a [&'a [Literal]],
    matches: &'a [Vec<Match>],
    snapshot: &'a EqRel,
    ttl: Duration,
}

impl Task for ScanTask<'_> {
    type Unit = ScanUnit;
    type Worker = ScanWorker;

    fn worker(&self, _id: usize) -> ScanWorker {
        ScanWorker {
            eq: self.snapshot.clone(),
            fired: Vec::new(),
            premise_evals: 0,
        }
    }

    fn run_unit(&self, w: &mut ScanWorker, unit: ScanUnit, ctx: &WorkerCtx<'_, ScanUnit>) {
        let span = ctx.trace_start();
        let evals0 = w.premise_evals;
        let fired0 = w.fired.len() as u64;
        let premise = self.premises[unit.rule as usize];
        let list = &self.matches[unit.rule as usize];
        let deadline = Instant::now() + self.ttl;
        for idx in unit.start..unit.end {
            w.premise_evals += 1;
            if let PremiseStatus::Satisfied =
                eval_premise_lits(&mut w.eq, premise, &list[idx as usize])
            {
                w.fired.push((unit.rule, idx));
            }
            // Straggler: offer the rest of the range in two halves (the
            // back half is what an idle worker will steal).
            let next = idx + 1;
            if next < unit.end && Instant::now() >= deadline {
                let mid = next + (unit.end - next) / 2;
                let mut rest = vec![ScanUnit {
                    rule: unit.rule,
                    start: next,
                    end: mid,
                }];
                if mid < unit.end {
                    rest.push(ScanUnit {
                        rule: unit.rule,
                        start: mid,
                        end: unit.end,
                    });
                }
                ctx.split(rest);
                break;
            }
        }
        ctx.trace_span(
            EventKind::RuleEval,
            unit.rule,
            span,
            w.premise_evals - evals0,
            w.fired.len() as u64 - fired0,
        );
    }
}

/// A node operand inside a [`Patch`]: a premise node fixed by the
/// firing's match, or the `k`-th fresh node the patch creates. Fresh
/// nodes stay relative so a patch can be built concurrently and
/// committed at whatever ids the deterministic walk reaches.
#[derive(Clone, Copy)]
enum RelNode {
    /// A node bound by the premise match.
    Premise(NodeId),
    /// The `k`-th fresh node of this firing.
    Fresh(u32),
}

/// One relation mutation inside a [`Patch`].
#[derive(Clone)]
enum RelOp {
    Bind(RelNode, AttrId, ValueId),
    Merge(RelNode, AttrId, RelNode, AttrId),
}

/// The precomputed mutation buffer of one fired consequence: fresh-node
/// labels (empty for literal consequences), generated edges, and
/// relation ops. Built concurrently on the scheduler during the apply
/// phase's planning pass; spliced (independent set) or discarded in
/// favour of the serial fallback (conflicting residual) at commit.
#[derive(Default)]
struct Patch {
    labels: Vec<LabelId>,
    edges: Vec<(RelNode, LabelId, RelNode)>,
    ops: Vec<RelOp>,
}

/// What the planning pass decided for one pending firing.
enum FiringPlan {
    /// Generating firing whose target is already realized in the
    /// round-start snapshot: nothing to do.
    Realized,
    /// Mutation buffer ready to commit.
    Patch(Patch),
}

fn rel(v: VarId, m: &[NodeId], shared: usize) -> RelNode {
    if v.index() < shared {
        RelNode::Premise(m[v.index()])
    } else {
        RelNode::Fresh((v.index() - shared) as u32)
    }
}

fn rel_op(lit: &Literal, m: &[NodeId], shared: usize) -> RelOp {
    let r1 = rel(lit.var, m, shared);
    match &lit.rhs {
        Operand::Const(c) => RelOp::Bind(r1, lit.attr, *c),
        Operand::Attr(v2, a2) => RelOp::Merge(r1, lit.attr, rel(*v2, m, shared), *a2),
    }
}

/// Apply one relative op against `eq`, resolving fresh nodes through
/// `fresh`. Returns whether the relation changed.
fn commit_op(eq: &mut EqRel, op: &RelOp, fresh: &[NodeId]) -> Result<bool, Conflict> {
    let abs = |r: RelNode| match r {
        RelNode::Premise(n) => n,
        RelNode::Fresh(k) => fresh[k as usize],
    };
    match op {
        RelOp::Bind(r, a, v) => Ok(eq.bind((abs(*r), *a), *v)?.changed),
        RelOp::Merge(r1, a1, r2, a2) => Ok(eq.merge((abs(*r1), *a1), (abs(*r2), *a2))?.changed),
    }
}

fn splice_ops(eq: &mut EqRel, ops: &[RelOp], fresh: &[NodeId]) -> Result<bool, Conflict> {
    let mut changed = false;
    for op in ops {
        changed |= commit_op(eq, op, fresh)?;
    }
    Ok(changed)
}

/// Commit a generating patch: create the fresh nodes (ids fall out of
/// the walk order, identically to the serial `materialize`), add the
/// generated edges, splice the relation ops. Returns the fresh-node
/// count.
fn splice_patch(graph: &mut Graph, eq: &mut EqRel, patch: &Patch) -> Result<usize, Conflict> {
    let fresh: Vec<NodeId> = patch.labels.iter().map(|&l| graph.add_node(l)).collect();
    for &(s, l, d) in &patch.edges {
        let abs = |r: RelNode| match r {
            RelNode::Premise(n) => n,
            RelNode::Fresh(k) => fresh[k as usize],
        };
        graph.add_edge(abs(s), l, abs(d));
    }
    splice_ops(eq, &patch.ops, &fresh)?;
    Ok(fresh.len())
}

/// A contiguous chunk of the round's pending firings to plan.
#[derive(Clone, Copy)]
struct ApplyUnit {
    start: u32,
    end: u32,
}

/// Per-worker planning state: a clone of the round-start relation for
/// realization checks (mutated only by path compression and latent
/// `ensure`s — semantically inert), plus the plans produced.
struct ApplyWorker {
    eq: EqRel,
    plans: Vec<(u32, FiringPlan)>,
    realization_checks: u64,
}

/// The apply phase's planning pass as a scheduler workload: every
/// pending firing's realization check runs against the round-start
/// snapshot (checks are read-only, so they are all trivially parallel
/// under round-snapshot semantics) and its mutation buffer is built
/// concurrently. Nothing here touches the live graph or relation —
/// mutation happens only in the deterministic commit walk.
struct ApplyTask<'a, I: MatchIndex> {
    deps: &'a DepSet,
    matches: &'a [Vec<Match>],
    /// The round's pending `(rule, match index)` firings, sorted.
    pending: &'a [(u32, u32)],
    index: &'a I,
    snapshot: &'a EqRel,
    ttl: Duration,
}

impl<I: MatchIndex> Task for ApplyTask<'_, I> {
    type Unit = ApplyUnit;
    type Worker = ApplyWorker;

    fn worker(&self, _id: usize) -> ApplyWorker {
        ApplyWorker {
            eq: self.snapshot.clone(),
            plans: Vec::new(),
            realization_checks: 0,
        }
    }

    fn run_unit(&self, w: &mut ApplyWorker, unit: ApplyUnit, ctx: &WorkerCtx<'_, ApplyUnit>) {
        let deadline = Instant::now() + self.ttl;
        for i in unit.start..unit.end {
            let (rule, idx) = self.pending[i as usize];
            let dep = &self.deps.as_slice()[rule as usize];
            let m = &self.matches[rule as usize][idx as usize];
            let plan = match &dep.consequence {
                Consequence::Literals(lits) => {
                    let mut patch = Patch::default();
                    patch
                        .ops
                        .extend(lits.iter().map(|lit| rel_op(lit, m, m.len())));
                    FiringPlan::Patch(patch)
                }
                Consequence::Generate(gen) => {
                    w.realization_checks += 1;
                    if generate_deducible(&mut w.eq, self.index, gen, m) {
                        FiringPlan::Realized
                    } else {
                        let mut patch = Patch::default();
                        patch
                            .labels
                            .extend(gen.fresh_vars().map(|v| gen.pattern.label(v)));
                        patch.edges.extend(gen.pattern.edges().iter().map(|e| {
                            (
                                rel(e.src, m, gen.shared),
                                e.label,
                                rel(e.dst, m, gen.shared),
                            )
                        }));
                        patch
                            .ops
                            .extend(gen.attrs.iter().map(|lit| rel_op(lit, m, gen.shared)));
                        FiringPlan::Patch(patch)
                    }
                }
            };
            w.plans.push((i, plan));
            // Straggler: offer the rest of the range in two halves, as
            // the scan does.
            let next = i + 1;
            if next < unit.end && Instant::now() >= deadline {
                let mid = next + (unit.end - next) / 2;
                let mut rest = vec![ApplyUnit {
                    start: next,
                    end: mid,
                }];
                if mid < unit.end {
                    rest.push(ApplyUnit {
                        start: mid,
                        end: unit.end,
                    });
                }
                ctx.split(rest);
                return;
            }
        }
    }
}

/// Fold one scheduler run's counters and per-worker times into the
/// accumulated chase metrics.
fn absorb_run<W>(metrics: &mut RunMetrics, run: &SchedRun<W>) {
    metrics.trace.merge(&run.trace);
    metrics.units_dispatched += run.units_executed;
    metrics.units_split += run.units_split;
    metrics.units_stolen += run.units_stolen;
    metrics.units_panicked += run.units_panicked;
    metrics.units_retried += run.units_retried;
    for (acc, d) in metrics.worker_busy.iter_mut().zip(&run.worker_busy) {
        *acc += *d;
    }
    for (acc, d) in metrics.worker_idle.iter_mut().zip(&run.worker_idle) {
        *acc += *d;
    }
}

/// Dispatch the planning pass for one round's pending firings. Returns
/// the plans in pending order plus one worker's snapshot clone (reused
/// as the partition probe), or the interrupt that cut the pass short.
#[allow(clippy::too_many_arguments)]
fn plan_round<I: MatchIndex>(
    deps: &DepSet,
    all_matches: &[Vec<Match>],
    pending: &[(u32, u32)],
    index: &I,
    snapshot: &EqRel,
    config: &ChaseConfig,
    p: usize,
    stats: &mut ChaseStats,
    metrics: &mut RunMetrics,
) -> Result<(Vec<FiringPlan>, EqRel), Interrupt> {
    let batch = config.batch.max(1);
    let mut units: Vec<ApplyUnit> = Vec::new();
    let mut start = 0usize;
    while start < pending.len() {
        let end = (start + batch).min(pending.len());
        units.push(ApplyUnit {
            start: start as u32,
            end: end as u32,
        });
        start = end;
    }
    let stop = AtomicBool::new(false);
    let task = ApplyTask {
        deps,
        matches: all_matches,
        pending,
        index,
        snapshot,
        ttl: config.ttl,
    };
    metrics.units_generated += units.len();
    let opts = config.round_sched_options(metrics.units_dispatched);
    let run = run_scheduler_with(&task, units, p, config.dispatch, &stop, opts);
    absorb_run(metrics, &run);
    let interrupt = Interrupt::from_outcome(&run.outcome);
    let mut plans: Vec<Option<FiringPlan>> = (0..pending.len()).map(|_| None).collect();
    let mut probe: Option<EqRel> = None;
    for w in run.workers {
        stats.realization_checks += w.realization_checks;
        for (i, plan) in w.plans {
            plans[i as usize] = Some(plan);
        }
        probe.get_or_insert(w.eq);
    }
    if let Some(interrupt) = interrupt {
        return Err(interrupt);
    }
    let plans = plans
        .into_iter()
        .map(|p| p.expect("a completed planning pass plans every firing"))
        .collect();
    Ok((plans, probe.expect("at least one worker state")))
}

/// The greedy conflict partition (DESIGN.md §12.2). Walk the round's
/// plans in deterministic (rule, match index) order; each firing claims
/// its touched equivalence *classes* — premise attribute keys resolved
/// to class ids against the round-start snapshot — and its touched
/// premise *nodes* (adjacency-list writes of generated edges). A firing
/// whose claims are all unclaimed joins the independent set and commits
/// from its patch; any overlap routes it to the serial fallback.
///
/// Class-level (not key-level) resolution is what makes the criterion
/// the commutation condition of attributed-graph parallel independence:
/// two independent firings write disjoint union-find components, touch
/// disjoint adjacency lists, and create disjoint fresh-node ranges, so
/// their patches compose in either order with identical outcome —
/// including identical conflict behaviour.
///
/// The probe may carry extra latent keys from the planning pass; that
/// never changes *which keys share a class* (planning only
/// path-compresses), so the partition is invariant across worker
/// counts.
fn partition_independent(plans: &[FiringPlan], probe: &mut EqRel) -> Vec<bool> {
    let mut independent = vec![false; plans.len()];
    let mut claimed_classes: FxHashSet<u32> = FxHashSet::default();
    let mut claimed_nodes: FxHashSet<NodeId> = FxHashSet::default();
    let mut classes: Vec<u32> = Vec::new();
    let mut nodes: Vec<NodeId> = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        let FiringPlan::Patch(patch) = plan else {
            // Realized: writes nothing, independent of everything.
            independent[i] = true;
            continue;
        };
        classes.clear();
        nodes.clear();
        for (s, _, d) in &patch.edges {
            if let RelNode::Premise(n) = s {
                nodes.push(*n);
            }
            if let RelNode::Premise(n) = d {
                nodes.push(*n);
            }
        }
        for op in &patch.ops {
            let mut claim = |r: &RelNode, a: AttrId| {
                if let RelNode::Premise(n) = r {
                    classes.push(probe.class_id((*n, a)));
                }
            };
            match op {
                RelOp::Bind(r, a, _) => claim(r, *a),
                RelOp::Merge(r1, a1, r2, a2) => {
                    claim(r1, *a1);
                    claim(r2, *a2);
                }
            }
        }
        classes.sort_unstable();
        classes.dedup();
        nodes.sort_unstable();
        nodes.dedup();
        let free = classes.iter().all(|c| !claimed_classes.contains(c))
            && nodes.iter().all(|n| !claimed_nodes.contains(n));
        if free {
            claimed_classes.extend(classes.iter().copied());
            claimed_nodes.extend(nodes.iter().copied());
            independent[i] = true;
        }
    }
    independent
}

/// Chase Σ over `canon` starting from `eq0` until fixpoint or conflict,
/// with the default (sequential) configuration.
///
/// Match lists are enumerated once per rule and cached (the graph topology
/// never changes); every round re-evaluates every premise — the naive part.
pub fn chase_to_fixpoint(
    sigma: &GfdSet,
    canon: &CanonicalGraph,
    eq0: EqRel,
) -> (ChaseOutcome, ChaseStats) {
    let (outcome, stats, _) =
        chase_to_fixpoint_with_config(sigma, canon, eq0, &ChaseConfig::default());
    (outcome, stats)
}

/// Chase Σ over `canon` to fixpoint or conflict, with each round's
/// premise scan dispatched on the shared work-stealing scheduler. Also
/// returns the unified scheduler metrics accumulated over all rounds.
pub fn chase_to_fixpoint_with_config(
    sigma: &GfdSet,
    canon: &CanonicalGraph,
    eq0: EqRel,
    config: &ChaseConfig,
) -> (ChaseOutcome, ChaseStats, RunMetrics) {
    let start = Instant::now();
    let p = config.workers.max(1);
    let mut stats = ChaseStats::default();
    let mut metrics = RunMetrics {
        workers: p,
        ..Default::default()
    };
    metrics.worker_busy = vec![Duration::ZERO; p];
    metrics.worker_idle = vec![Duration::ZERO; p];
    let mut eq = eq0;

    // Enumerate all matches up front (no pivoting, no pruning: naive).
    let mut all_matches: Vec<Vec<Match>> = Vec::with_capacity(sigma.len());
    for (_, gfd) in sigma.iter() {
        let ms = find_all_matches(&canon.graph, &canon.index, &gfd.pattern);
        stats.matches_enumerated += ms.len() as u64;
        all_matches.push(ms);
    }

    let premises: Vec<&[Literal]> = sigma
        .as_slice()
        .iter()
        .map(|g| g.premise.as_slice())
        .collect();
    let ctl = ControlTrace::new(config.trace);
    let done = |outcome: ChaseOutcome, stats: ChaseStats, mut metrics: RunMetrics| {
        ctl.flush_into(&mut metrics);
        metrics.elapsed = start.elapsed();
        metrics.deadline_slack_ms = config.budget.deadline_slack_ms();
        (outcome, stats, metrics)
    };
    loop {
        // Round boundary: the cooperative deadline check the scheduler
        // cannot make for us between scans.
        if config.budget.expired() {
            metrics.early_terminated = true;
            return done(
                ChaseOutcome::Interrupted(Interrupt::Deadline),
                stats,
                metrics,
            );
        }
        stats.rounds += 1;
        let round = stats.rounds as u32;
        let round_span = ctl.start();
        let (fired, interrupt) = scan_round(
            &premises,
            &all_matches,
            &eq,
            config,
            p,
            &mut stats,
            &mut metrics,
        );
        if let Some(interrupt) = interrupt {
            // A degraded scan saw only part of this round's premises;
            // claiming a fixpoint (or applying a partial round) would be
            // answering a question we did not finish asking.
            metrics.early_terminated = true;
            return done(ChaseOutcome::Interrupted(interrupt), stats, metrics);
        }

        // ---- serial apply phase (the deliberately naive baseline) ----
        if failpoint::triggered("chase/apply") {
            metrics.early_terminated = true;
            return done(
                ChaseOutcome::Interrupted(Interrupt::Aborted(
                    "failpoint chase/apply fired".to_string(),
                )),
                stats,
                metrics,
            );
        }
        let apply_start = Instant::now();
        let apply_span = ctl.start();
        let fired_count = fired.len() as u64;
        let mut changed = false;
        for (rule, idx) in fired {
            let id = gfd_graph::GfdId::new(rule as usize);
            let gfd = &sigma.as_slice()[rule as usize];
            match apply_consequence(&mut eq, gfd, &all_matches[rule as usize][idx as usize]) {
                Ok(c) => changed |= c,
                Err(e) => {
                    metrics.early_terminated = true;
                    return done(ChaseOutcome::Conflict(e.with_gfd(id)), stats, metrics);
                }
            }
        }
        stats.apply_time += apply_start.elapsed();
        // The literal baseline applies fully serially: its whole round is
        // booked as the conflicting residual (`a = 0` independent).
        ctl.span(EventKind::ApplyCommit, round, apply_span, 0, fired_count);
        ctl.span(
            EventKind::ChaseRound,
            round,
            round_span,
            fired_count,
            sigma.len() as u64,
        );
        if !changed {
            return done(ChaseOutcome::Fixpoint(eq), stats, metrics);
        }
    }
}

/// Dispatch one round's premise scan on the shared scheduler and collect
/// the fired `(rule, match index)` pairs in deterministic order (the
/// sequential scan's order, whatever the worker interleaving was).
fn scan_round(
    premises: &[&[Literal]],
    all_matches: &[Vec<Match>],
    snapshot: &EqRel,
    config: &ChaseConfig,
    p: usize,
    stats: &mut ChaseStats,
    metrics: &mut RunMetrics,
) -> (Vec<(u32, u32)>, Option<Interrupt>) {
    let scan_start = Instant::now();
    let batch = config.batch.max(1);
    let mut units: Vec<ScanUnit> = Vec::new();
    for (rule, list) in all_matches.iter().enumerate() {
        let mut start = 0usize;
        while start < list.len() {
            let end = (start + batch).min(list.len());
            units.push(ScanUnit {
                rule: rule as u32,
                start: start as u32,
                end: end as u32,
            });
            start = end;
        }
    }
    let stop = AtomicBool::new(false);
    let task = ScanTask {
        premises,
        matches: all_matches,
        snapshot,
        ttl: config.ttl,
    };
    metrics.units_generated += units.len();
    let opts = config.round_sched_options(metrics.units_dispatched);
    let run = run_scheduler_with(&task, units, p, config.dispatch, &stop, opts);
    absorb_run(metrics, &run);
    let mut fired: Vec<(u32, u32)> = Vec::new();
    for w in run.workers {
        stats.premise_evals += w.premise_evals;
        fired.extend(w.fired);
    }
    fired.sort_unstable();
    stats.scan_time += scan_start.elapsed();
    (fired, Interrupt::from_outcome(&run.outcome))
}

/// Outcome of chasing a generalized dependency set over a growable graph.
pub enum DepChaseOutcome {
    /// Fixpoint reached: the chased graph (base plus every materialized
    /// subgraph) and the final relation.
    Fixpoint {
        /// The chased graph.
        graph: Box<Graph>,
        /// The final equivalence relation.
        eq: Box<EqRel>,
    },
    /// Two distinct constants were forced onto one class.
    Conflict(Conflict),
    /// The fresh-node budget ran out before a fixpoint: the question is
    /// undecided (mirrors the GED search's branch budget — report
    /// "unknown", never loop forever).
    BudgetExhausted {
        /// Fresh nodes materialized before giving up.
        generated_nodes: u64,
    },
    /// The run was cut short — deadline, unit budget, or an injected
    /// fault — before the fixpoint: no definite answer.
    Interrupted(Interrupt),
}

/// Chase a generalized [`DepSet`] over `graph0` to fixpoint, conflict or
/// budget exhaustion, starting from `eq0`.
///
/// Each round runs the premise scan of **every** dependency as scan units
/// on the shared scheduler (identical to the literal chase), then the
/// apply phase handles both consequence actions in two passes:
///
/// * a **parallel planning pass**, also on the scheduler: every
///   generating firing's *realization* is checked against the
///   **round-start** topology and relation snapshot — checks are
///   read-only, so they are all independent by construction — and every
///   firing's mutation buffer (`Patch`) is built concurrently. A
///   `(rule, match)` key fires at most once across rounds.
/// * a **deterministic commit walk** in sorted `(rule, match index)`
///   order: the greedy conflict partition (DESIGN.md §12.2) splits the
///   round into the parallel-independent set — disjoint touched
///   equivalence classes, premise nodes, and fresh-node ranges, whose
///   patches provably commute and are spliced directly — and the
///   conflicting residual, which replays the original fully serial
///   apply. Because the walk order equals the old serial order, node
///   ids, conflict attribution, and budget cut points are byte-identical
///   to the serial chase at every worker count.
///
/// When a round materialized topology, matches are re-enumerated against
/// the grown graph before the next round; fixpoint is reached when a
/// round applies nothing new. Literal-only sets never materialize, so
/// this degenerates to exactly the cached-match literal chase.
pub fn dep_chase_with_config(
    deps: &DepSet,
    graph0: Graph,
    eq0: EqRel,
    config: &ChaseConfig,
) -> (DepChaseOutcome, ChaseStats, RunMetrics) {
    let start = Instant::now();
    let p = config.workers.max(1);
    let mut stats = ChaseStats::default();
    let mut metrics = RunMetrics {
        workers: p,
        ..Default::default()
    };
    metrics.worker_busy = vec![Duration::ZERO; p];
    metrics.worker_idle = vec![Duration::ZERO; p];

    let mut graph = graph0;
    let mut eq = eq0;
    let premises: Vec<&[Literal]> = deps
        .as_slice()
        .iter()
        .map(|d| d.premise.as_slice())
        .collect();
    // A generating firing's identity: once materialized (or found
    // realized), the same `(rule, match)` never fires again.
    type FiredKey = (u32, Match);
    let mut fired_gen: FxHashSet<FiredKey> = FxHashSet::default();

    let ctl = ControlTrace::new(config.trace);
    let done = |outcome: DepChaseOutcome, stats: ChaseStats, mut metrics: RunMetrics| {
        ctl.flush_into(&mut metrics);
        metrics.elapsed = start.elapsed();
        metrics.deadline_slack_ms = config.budget.deadline_slack_ms();
        (outcome, stats, metrics)
    };

    'rebuild: loop {
        // (Re-)freeze the current topology and enumerate premise matches.
        let canon = CanonicalGraph::from_graph(graph.clone());
        let mut all_matches: Vec<Vec<Match>> = Vec::with_capacity(deps.len());
        for (_, dep) in deps.iter() {
            let ms = find_all_matches(&canon.graph, &canon.index, &dep.pattern);
            stats.matches_enumerated += ms.len() as u64;
            all_matches.push(ms);
        }

        loop {
            if config.budget.expired() {
                metrics.early_terminated = true;
                return done(
                    DepChaseOutcome::Interrupted(Interrupt::Deadline),
                    stats,
                    metrics,
                );
            }
            stats.rounds += 1;
            let round = stats.rounds as u32;
            let round_span = ctl.start();
            let (fired, interrupt) = scan_round(
                &premises,
                &all_matches,
                &eq,
                config,
                p,
                &mut stats,
                &mut metrics,
            );
            if let Some(interrupt) = interrupt {
                metrics.early_terminated = true;
                return done(DepChaseOutcome::Interrupted(interrupt), stats, metrics);
            }

            // ---- apply phase: plan in parallel, commit in order ----
            if failpoint::triggered("chase/apply") {
                metrics.early_terminated = true;
                return done(
                    DepChaseOutcome::Interrupted(Interrupt::Aborted(
                        "failpoint chase/apply fired".to_string(),
                    )),
                    stats,
                    metrics,
                );
            }
            // Pending firings: literal consequences as-is, generating
            // firings deduped against every earlier round (a (rule,
            // match) key fires at most once). Within a round every match
            // index is distinct, so the round cannot collide with
            // itself.
            let mut pending: Vec<(u32, u32)> = Vec::with_capacity(fired.len());
            for &(rule, idx) in &fired {
                match &deps.as_slice()[rule as usize].consequence {
                    Consequence::Literals(_) => pending.push((rule, idx)),
                    Consequence::Generate(_) => {
                        let key: FiredKey =
                            (rule, all_matches[rule as usize][idx as usize].clone());
                        if fired_gen.insert(key) {
                            pending.push((rule, idx));
                        }
                    }
                }
            }

            // Planning pass (on the scheduler): realization checks are
            // read-only against the round-start snapshots — trivially
            // parallel under round-snapshot semantics — and every
            // firing's mutation buffer is built concurrently. The
            // greedy partition then splits the round into the
            // parallel-independent set (disjoint touched classes,
            // nodes, and fresh ranges — those patches commute) and the
            // conflicting residual, which replays the serial apply.
            let apply_start = Instant::now();
            let plan_span = ctl.start();
            let checks0 = stats.realization_checks;
            let (plans, independent) = if pending.is_empty() {
                (Vec::new(), Vec::new())
            } else {
                match plan_round(
                    deps,
                    &all_matches,
                    &pending,
                    &canon.index,
                    &eq,
                    config,
                    p,
                    &mut stats,
                    &mut metrics,
                ) {
                    Ok((plans, mut probe)) => {
                        let independent = partition_independent(&plans, &mut probe);
                        (plans, independent)
                    }
                    Err(interrupt) => {
                        metrics.early_terminated = true;
                        return done(DepChaseOutcome::Interrupted(interrupt), stats, metrics);
                    }
                }
            };
            ctl.span(
                EventKind::ApplyPlan,
                round,
                plan_span,
                pending.len() as u64,
                stats.realization_checks - checks0,
            );

            // Deterministic commit walk in sorted (rule, match index)
            // order — the same order the fully serial apply used, so
            // node ids, conflict attribution and budget cut points are
            // identical at every worker count.
            let topo_before = graph.topology_version();
            let commit_span = ctl.start();
            let independent0 = stats.apply_independent;
            let conflicts0 = stats.apply_conflicts;
            let mut changed = false;
            for (i, &(rule, idx)) in pending.iter().enumerate() {
                let id = gfd_graph::GfdId::new(rule as usize);
                let dep = &deps.as_slice()[rule as usize];
                let m = &all_matches[rule as usize][idx as usize];
                match (&dep.consequence, &plans[i]) {
                    (_, FiringPlan::Realized) => {}
                    (Consequence::Literals(lits), FiringPlan::Patch(patch)) => {
                        let applied = if independent[i] {
                            stats.apply_independent += 1;
                            splice_ops(&mut eq, &patch.ops, &[])
                        } else {
                            stats.apply_conflicts += 1;
                            apply_literals(&mut eq, lits, m)
                        };
                        match applied {
                            Ok(c) => changed |= c,
                            Err(e) => {
                                metrics.early_terminated = true;
                                return done(
                                    DepChaseOutcome::Conflict(e.with_gfd(id)),
                                    stats,
                                    metrics,
                                );
                            }
                        }
                    }
                    (Consequence::Generate(gen), FiringPlan::Patch(patch)) => {
                        let materialized = if independent[i] {
                            stats.apply_independent += 1;
                            splice_patch(&mut graph, &mut eq, patch)
                        } else {
                            stats.apply_conflicts += 1;
                            gen.materialize(&mut graph, m, &mut |lit, asn| {
                                let k1 = (asn[lit.var.index()], lit.attr);
                                match &lit.rhs {
                                    Operand::Const(c) => eq.bind(k1, *c).map(|_| ()),
                                    Operand::Attr(v2, a2) => {
                                        eq.merge(k1, (asn[v2.index()], *a2)).map(|_| ())
                                    }
                                }
                            })
                            .map(|fresh| fresh.len())
                        };
                        match materialized {
                            Ok(fresh) => {
                                stats.generated_nodes += fresh as u64;
                                changed = true;
                                if stats.generated_nodes > config.max_generated_nodes {
                                    metrics.early_terminated = true;
                                    return done(
                                        DepChaseOutcome::BudgetExhausted {
                                            generated_nodes: stats.generated_nodes,
                                        },
                                        stats,
                                        metrics,
                                    );
                                }
                            }
                            Err(e) => {
                                metrics.early_terminated = true;
                                return done(
                                    DepChaseOutcome::Conflict(e.with_gfd(id)),
                                    stats,
                                    metrics,
                                );
                            }
                        }
                    }
                }
            }
            stats.apply_time += apply_start.elapsed();
            ctl.span(
                EventKind::ApplyCommit,
                round,
                commit_span,
                stats.apply_independent - independent0,
                stats.apply_conflicts - conflicts0,
            );
            ctl.span(
                EventKind::ChaseRound,
                round,
                round_span,
                fired.len() as u64,
                deps.len() as u64,
            );
            if !changed {
                return done(
                    DepChaseOutcome::Fixpoint {
                        graph: Box::new(graph),
                        eq: Box::new(eq),
                    },
                    stats,
                    metrics,
                );
            }
            if graph.topology_version() != topo_before {
                // Materialization grew the graph: matches (and the frozen
                // index the realization check probes) are stale.
                continue 'rebuild;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::{Gfd, Literal};
    use gfd_graph::{Pattern, ValueId as VId, VarId, Vocab};

    fn unary(vocab: &mut Vocab, name: &str, pre: Vec<Literal>, post: Vec<Literal>) -> Gfd {
        let mut p = Pattern::new();
        p.add_node(vocab.label("t"), "x");
        Gfd::new(name, p, pre, post)
    }

    fn chain_sigma(vocab: &mut Vocab) -> GfdSet {
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let c = vocab.attr("c");
        let x = VarId::new(0);
        // Deliberately ordered so each round unlocks the next rule.
        GfdSet::from_vec(vec![
            unary(
                vocab,
                "b_to_c",
                vec![Literal::eq_const(x, b, 1i64)],
                vec![Literal::eq_const(x, c, 1i64)],
            ),
            unary(
                vocab,
                "a_to_b",
                vec![Literal::eq_const(x, a, 1i64)],
                vec![Literal::eq_const(x, b, 1i64)],
            ),
            unary(vocab, "seed", vec![], vec![Literal::eq_const(x, a, 1i64)]),
        ])
    }

    #[test]
    fn chase_derives_chains_across_rounds() {
        let mut vocab = Vocab::new();
        let c = vocab.attr("c");
        let sigma = chain_sigma(&mut vocab);
        let (canon, node_of) = CanonicalGraph::for_sigma(&sigma);
        let (outcome, stats) = chase_to_fixpoint(&sigma, &canon, EqRel::new());
        match outcome {
            ChaseOutcome::Fixpoint(mut eq) => {
                // Every t-node (one per unary pattern copy) derives c=1.
                for nodes in &node_of {
                    assert!(eq.deduces_const((nodes[0], c), VId::of(1i64)));
                }
            }
            ChaseOutcome::Conflict(c) => panic!("unexpected conflict: {c}"),
            ChaseOutcome::Interrupted(i) => panic!("unexpected interrupt: {i}"),
        }
        // The chain needs multiple rounds — the naive overhead the paper
        // measures.
        assert!(stats.rounds >= 3, "rounds = {}", stats.rounds);
        assert!(stats.premise_evals > stats.matches_enumerated);
    }

    #[test]
    fn chase_detects_conflicts() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let x = VarId::new(0);
        let sigma = GfdSet::from_vec(vec![
            unary(
                &mut vocab,
                "zero",
                vec![],
                vec![Literal::eq_const(x, a, 0i64)],
            ),
            unary(
                &mut vocab,
                "one",
                vec![],
                vec![Literal::eq_const(x, a, 1i64)],
            ),
        ]);
        let (canon, _) = CanonicalGraph::for_sigma(&sigma);
        let (outcome, _) = chase_to_fixpoint(&sigma, &canon, EqRel::new());
        assert!(matches!(outcome, ChaseOutcome::Conflict(_)));
    }

    #[test]
    fn empty_sigma_fixpoints_immediately() {
        let sigma = GfdSet::new();
        let (canon, _) = CanonicalGraph::for_sigma(&sigma);
        let (outcome, stats) = chase_to_fixpoint(&sigma, &canon, EqRel::new());
        assert!(matches!(outcome, ChaseOutcome::Fixpoint(_)));
        assert_eq!(stats.rounds, 1);
    }

    /// The scheduler port must not change what the chase derives: every
    /// worker count, dispatch mode, and a TTL of zero (forced splitting
    /// with tiny batches) reach the same fixpoint as the sequential scan.
    #[test]
    fn scan_parallelism_is_answer_invariant() {
        let mut vocab = Vocab::new();
        let c = vocab.attr("c");
        let sigma = chain_sigma(&mut vocab);
        let (canon, node_of) = CanonicalGraph::for_sigma(&sigma);
        for p in [1usize, 2, 8] {
            for dispatch in [DispatchMode::WorkStealing, DispatchMode::Coordinator] {
                let cfg = ChaseConfig {
                    workers: p,
                    ttl: Duration::ZERO,
                    batch: 1,
                    dispatch,
                    ..ChaseConfig::default()
                };
                let (outcome, stats, metrics) =
                    chase_to_fixpoint_with_config(&sigma, &canon, EqRel::new(), &cfg);
                match outcome {
                    ChaseOutcome::Fixpoint(mut eq) => {
                        for nodes in &node_of {
                            assert!(
                                eq.deduces_const((nodes[0], c), VId::of(1i64)),
                                "p={p} {dispatch:?}"
                            );
                        }
                    }
                    ChaseOutcome::Conflict(e) => panic!("p={p} {dispatch:?}: {e}"),
                    ChaseOutcome::Interrupted(i) => panic!("p={p} {dispatch:?}: {i}"),
                }
                assert!(stats.rounds >= 3);
                assert_eq!(metrics.workers, p);
                assert!(metrics.units_dispatched >= metrics.units_generated as u64);
            }
        }
    }

    /// Tracing on: the run's merged trace carries per-rule scan spans
    /// from the workers and round/apply phase spans from the control
    /// track, one `ChaseRound` per round. Tracing off (the default):
    /// nothing is recorded.
    #[test]
    fn tracing_records_rule_and_phase_spans() {
        let mut vocab = Vocab::new();
        let sigma = chain_sigma(&mut vocab);
        let (canon, _) = CanonicalGraph::for_sigma(&sigma);
        let cfg = ChaseConfig {
            trace: TraceSpec::enabled(),
            ..ChaseConfig::with_workers(2)
        };
        let (outcome, stats, metrics) =
            chase_to_fixpoint_with_config(&sigma, &canon, EqRel::new(), &cfg);
        assert!(matches!(outcome, ChaseOutcome::Fixpoint(_)));
        let count =
            |k: EventKind| metrics.trace.events.iter().filter(|e| e.kind == k).count() as u64;
        assert!(count(EventKind::RuleEval) > 0, "no scan spans recorded");
        assert_eq!(count(EventKind::ChaseRound), stats.rounds);
        assert_eq!(count(EventKind::ApplyCommit), stats.rounds);
        // Control spans carry the control worker id; scan spans do not.
        for e in &metrics.trace.events {
            match e.kind {
                EventKind::ChaseRound | EventKind::ApplyPlan | EventKind::ApplyCommit => {
                    assert_eq!(e.worker, CONTROL_WORKER, "{:?}", e.kind);
                }
                EventKind::RuleEval => assert_ne!(e.worker, CONTROL_WORKER),
                _ => {}
            }
        }

        let (_, _, quiet) =
            chase_to_fixpoint_with_config(&sigma, &canon, EqRel::new(), &ChaseConfig::default());
        assert!(quiet.trace.is_empty(), "default config must not trace");
    }

    #[test]
    fn conflicts_survive_the_parallel_scan() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let x = VarId::new(0);
        let sigma = GfdSet::from_vec(vec![
            unary(
                &mut vocab,
                "zero",
                vec![],
                vec![Literal::eq_const(x, a, 0i64)],
            ),
            unary(
                &mut vocab,
                "one",
                vec![],
                vec![Literal::eq_const(x, a, 1i64)],
            ),
        ]);
        let (canon, _) = CanonicalGraph::for_sigma(&sigma);
        for p in [2usize, 4] {
            let cfg = ChaseConfig::with_workers(p);
            let (outcome, _, metrics) =
                chase_to_fixpoint_with_config(&sigma, &canon, EqRel::new(), &cfg);
            assert!(matches!(outcome, ChaseOutcome::Conflict(_)), "p={p}");
            assert!(metrics.early_terminated);
        }
    }
}
