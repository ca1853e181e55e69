//! The parallel detection engine.
//!
//! Since the scheduler unification, detection is a second [`Task`]
//! implementation on the shared `gfd-runtime` work-stealing scheduler —
//! the same dispatch, TTL straggler splitting, stop-flag early termination
//! and [`RunMetrics`] as the reasoning driver, with detection-specific
//! semantics (premise/consequence evaluation against the *data* graph and
//! a global violation budget) layered on top. The engine no longer owns a
//! private queue/TTL/split loop.

use crate::report::{DetectionReport, RuleStats, ViolationRecord};
use crate::units::{initial_units, DetectUnit, RulePlans};
use gfd_core::validate::literal_holds;
use gfd_core::{Budget, Consequence, DepSet, GfdSet, Interrupt};
use gfd_graph::{Graph, LabelIndex, MatchIndex, NodeId};
use gfd_match::{HomSearch, RunOutcome, SearchLimits};
use gfd_runtime::sched::{run_scheduler_with, Task, WorkerCtx};
use gfd_runtime::{DispatchMode, EventKind, RunMetrics, TraceSpec};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Configuration of a detection run.
#[derive(Clone, Debug)]
pub struct DetectConfig {
    /// Worker threads (`p` in the paper). 0 means "number of CPUs".
    pub workers: usize,
    /// Straggler threshold: a unit running longer than this is split and
    /// its untried branches are offered to other workers (§V, Example 6).
    pub ttl: Duration,
    /// Stop after this many violations (`usize::MAX` = find all).
    pub max_violations: usize,
    /// Pivot candidates per initial work unit.
    pub batch_size: usize,
    /// How units reach the workers: per-worker deques with stealing
    /// (default) or the centralized-queue baseline.
    pub dispatch: DispatchMode,
    /// Unified resource budget (DESIGN.md §11.2): deadline and unit cap
    /// enforced by the scheduler at unit boundaries. Exhaustion yields a
    /// partial report flagged with [`DetectionReport::interrupted`] — the
    /// violations found so far are real, the sweep just did not finish.
    pub budget: Budget,
    /// Structured tracing (DESIGN.md §13): per-rule eval spans plus the
    /// scheduler's own steal/split/budget events, returned on
    /// `RunMetrics::trace`. Off by default.
    pub trace: TraceSpec,
}

impl Default for DetectConfig {
    fn default() -> Self {
        DetectConfig {
            workers: 0,
            ttl: Duration::from_millis(100),
            max_violations: usize::MAX,
            batch_size: 1024,
            dispatch: DispatchMode::WorkStealing,
            budget: Budget::unlimited(),
            trace: TraceSpec::disabled(),
        }
    }
}

impl DetectConfig {
    /// A config with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        DetectConfig {
            workers,
            ..Default::default()
        }
    }

    /// Attach a unified resource budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        }
    }
}

/// The detection workload run by the shared scheduler. Generic over the
/// [`MatchIndex`] like the matcher itself: the static pipeline passes a
/// [`LabelIndex`], the incremental engine a `gfd_graph::DeltaIndex`.
struct DetectTask<'a, I: MatchIndex> {
    graph: &'a Graph,
    index: &'a I,
    sigma: &'a DepSet,
    plans: &'a RulePlans,
    /// Violations found so far (global budget counter).
    found: AtomicUsize,
    stop: &'a AtomicBool,
    max_violations: usize,
    ttl: Duration,
}

impl<I: MatchIndex> DetectTask<'_, I> {
    fn budget_left(&self) -> bool {
        self.found.load(Ordering::Relaxed) < self.max_violations
    }

    /// Reserve one violation slot; returns false when the budget is spent.
    fn reserve(&self) -> bool {
        let prev = self.found.fetch_add(1, Ordering::Relaxed);
        if prev >= self.max_violations {
            self.found.fetch_sub(1, Ordering::Relaxed);
            self.stop.store(true, Ordering::Relaxed);
            return false;
        }
        if prev + 1 == self.max_violations {
            self.stop.store(true, Ordering::Relaxed);
        }
        true
    }

    /// Check one match against its rule, recording a violation if the
    /// premise holds on the data but the consequence does not: for
    /// literal consequences some literal fails on the concrete values;
    /// for generating consequences no extension of the match realizes
    /// the target subgraph (the witness of the missing subgraph is the
    /// `(rule, match)` pair itself — the report renders the required
    /// nodes/edges/assignments from it).
    fn check_match(
        &self,
        local: &mut Local,
        gfd_id: gfd_graph::GfdId,
        m: Box<[NodeId]>,
    ) -> ControlFlow<()> {
        let dep = self.sigma.get(gfd_id);
        let stats = &mut local.per_rule[gfd_id.index()];
        stats.matches += 1;
        let premise_ok = dep.premise.iter().all(|l| literal_holds(self.graph, l, &m));
        if !premise_ok {
            return ControlFlow::Continue(());
        }
        stats.premise_hits += 1;
        let failed: Vec<usize> = match &dep.consequence {
            Consequence::Literals(lits) => {
                let failed: Vec<usize> = lits
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| !literal_holds(self.graph, l, &m))
                    .map(|(i, _)| i)
                    .collect();
                if failed.is_empty() {
                    return ControlFlow::Continue(());
                }
                failed
            }
            Consequence::Generate(gen) => {
                let realized = gen.realized(self.index, &m, &mut |lit, asn| {
                    literal_holds(self.graph, lit, asn)
                });
                if realized {
                    return ControlFlow::Continue(());
                }
                Vec::new()
            }
        };
        if !self.reserve() {
            return ControlFlow::Break(());
        }
        local.per_rule[gfd_id.index()].violations += 1;
        local.violations.push(ViolationRecord {
            gfd: gfd_id,
            m,
            failed,
        });
        if self.stop.load(Ordering::Relaxed) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    /// Run one pivoted search until exhausted, splitting on TTL expiry.
    fn run_unit_search(
        &self,
        local: &mut Local,
        gfd_id: gfd_graph::GfdId,
        mut search: HomSearch<'_, I>,
        ctx: &WorkerCtx<'_, DetectUnit>,
    ) {
        loop {
            let deadline = Instant::now() + self.ttl;
            let limits = SearchLimits {
                deadline: Some(deadline),
                stop: Some(self.stop),
            };
            let outcome = search.run(|m| self.check_match(local, gfd_id, m), limits);
            match outcome {
                RunOutcome::Exhausted | RunOutcome::Stopped => return,
                RunOutcome::Deadline => {
                    // Straggler: carve off the untried sibling branches and
                    // offer them through the scheduler (an idle worker will
                    // steal them), then keep going locally.
                    let prefixes = search.split_shallowest();
                    if !prefixes.is_empty() {
                        ctx.split(
                            prefixes
                                .into_iter()
                                .map(|prefix| DetectUnit::Prefix {
                                    gfd: gfd_id,
                                    prefix,
                                })
                                .collect(),
                        );
                    }
                }
            }
        }
    }
}

/// Thread-local accumulation, merged after the scheduler joins.
#[derive(Default)]
struct Local {
    violations: Vec<ViolationRecord>,
    per_rule: Vec<RuleStats>,
}

impl Local {
    fn new(rules: usize) -> Self {
        Local {
            violations: Vec::new(),
            per_rule: vec![RuleStats::default(); rules],
        }
    }
}

impl<I: MatchIndex> Task for DetectTask<'_, I> {
    type Unit = DetectUnit;
    type Worker = Local;

    fn worker(&self, _id: usize) -> Local {
        Local::new(self.sigma.len())
    }

    fn run_unit(&self, local: &mut Local, unit: DetectUnit, ctx: &WorkerCtx<'_, DetectUnit>) {
        if self.stop.load(Ordering::Relaxed) || !self.budget_left() {
            self.stop.store(true, Ordering::Relaxed);
            return;
        }
        let gfd_id = unit.gfd();
        let dep = self.sigma.get(gfd_id);
        let plan = &self.plans.plans[gfd_id.index()];
        let span = ctx.trace_start();
        let stats0 = local.per_rule[gfd_id.index()];
        match unit {
            DetectUnit::Pivots { batch, .. } => {
                for z in batch {
                    if self.stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let search = HomSearch::new(self.graph, self.index, &dep.pattern, plan)
                        .with_prefix(&[z]);
                    self.run_unit_search(local, gfd_id, search, ctx);
                }
            }
            DetectUnit::Prefix { prefix, .. } => {
                let search =
                    HomSearch::new(self.graph, self.index, &dep.pattern, plan).with_prefix(&prefix);
                self.run_unit_search(local, gfd_id, search, ctx);
            }
        }
        let stats = &local.per_rule[gfd_id.index()];
        ctx.trace_span(
            EventKind::RuleEval,
            gfd_id.index() as u32,
            span,
            stats.matches - stats0.matches,
            stats.violations - stats0.violations,
        );
    }
}

/// Detect violations of a GFD set in `graph` — the literal-only shim
/// over [`detect_deps`], kept so pre-refactor call sites (and behavior)
/// stay byte-identical.
pub fn detect(graph: &Graph, sigma: &GfdSet, config: &DetectConfig) -> DetectionReport {
    detect_deps(graph, &DepSet::from_gfds(sigma.clone()), config)
}

/// Detect violations of a generalized dependency set (GFDs and GGDs,
/// mixed freely) in `graph` on the shared work-stealing scheduler.
pub fn detect_deps(graph: &Graph, sigma: &DepSet, config: &DetectConfig) -> DetectionReport {
    let start = Instant::now();
    let index = LabelIndex::build(graph);
    let plans = RulePlans::build(sigma, &index);
    let units = initial_units(sigma, &index, &plans, config.batch_size);
    let mut report = detect_units(graph, &index, sigma, &plans, units, config);
    // `elapsed` covers the whole run including the freeze and plan
    // build, as it always has; detect_units alone times only dispatch.
    report.metrics.elapsed = start.elapsed();
    report
}

/// Run an explicit unit queue against an explicit index on the shared
/// scheduler — the entry point the incremental engine uses to re-check
/// only the dirty-frontier pivots over a delta-CSR overlay. [`detect`]
/// is the "all pivots, fresh [`LabelIndex`]" instantiation.
pub fn detect_units<I: MatchIndex>(
    graph: &Graph,
    index: &I,
    sigma: &DepSet,
    plans: &RulePlans,
    units: Vec<DetectUnit>,
    config: &DetectConfig,
) -> DetectionReport {
    let start = Instant::now();
    let workers = config.effective_workers();
    let stop = AtomicBool::new(false);
    let task = DetectTask {
        graph,
        index,
        sigma,
        plans,
        found: AtomicUsize::new(0),
        stop: &stop,
        max_violations: config.max_violations,
        ttl: config.ttl,
    };

    let mut metrics = RunMetrics {
        workers,
        units_generated: units.len(),
        ..Default::default()
    };
    let opts = config.budget.sched_options(config.trace);
    let run = run_scheduler_with(&task, units, workers, config.dispatch, &stop, opts);
    let (locals, outcome) = metrics.fold_run(run);
    metrics.elapsed = start.elapsed();
    metrics.deadline_slack_ms = config.budget.deadline_slack_ms();
    let interrupted = Interrupt::from_outcome(&outcome);
    merge_report(sigma, locals, metrics, config, interrupted)
}

/// Sequential reference detector (one worker, same code path). Used by
/// tests to check the parallel pool finds the identical violation set.
pub fn detect_sequential(graph: &Graph, sigma: &GfdSet, config: &DetectConfig) -> DetectionReport {
    let mut cfg = config.clone();
    cfg.workers = 1;
    detect(graph, sigma, &cfg)
}

fn merge_report(
    sigma: &DepSet,
    locals: Vec<Local>,
    mut metrics: RunMetrics,
    config: &DetectConfig,
    interrupted: Option<Interrupt>,
) -> DetectionReport {
    let mut violations = Vec::new();
    let mut per_rule = vec![RuleStats::default(); sigma.len()];
    for local in locals {
        violations.extend(local.violations);
        for (total, part) in per_rule.iter_mut().zip(&local.per_rule) {
            total.matches += part.matches;
            total.premise_hits += part.premise_hits;
            total.violations += part.violations;
        }
    }
    metrics.matches = per_rule.iter().map(|s| s.matches).sum();
    // Deterministic order regardless of worker interleaving.
    violations.sort_by(|a, b| (a.gfd, &a.m).cmp(&(b.gfd, &b.m)));
    let truncated = violations.len() >= config.max_violations;
    metrics.early_terminated = truncated || interrupted.is_some();
    DetectionReport {
        violations,
        per_rule,
        truncated,
        interrupted,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::{Gfd, Literal};
    use gfd_graph::{Pattern, Value, Vocab};

    /// A chain graph t0 → t1 → … with alternating attribute values, plus a
    /// rule requiring equal values across each edge: every edge between a
    /// mismatched pair is a violation.
    fn chain_setup(n: usize) -> (Graph, GfdSet, Vocab) {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let e = vocab.label("e");
        let a = vocab.attr("a");
        let mut g = Graph::new();
        let mut prev = None;
        for i in 0..n {
            let node = g.add_node(t);
            g.set_attr(node, a, Value::int((i % 2) as i64));
            if let Some(p) = prev {
                g.add_edge(p, e, node);
            }
            prev = Some(node);
        }
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        p.add_edge(x, e, y);
        let gfd = Gfd::new(
            "eq-across-edge",
            p,
            vec![],
            vec![Literal::eq_attr(x, a, y, a)],
        );
        (g, GfdSet::from_vec(vec![gfd]), vocab)
    }

    #[test]
    fn finds_every_violation_in_a_chain() {
        let (g, sigma, _) = chain_setup(50);
        let report = detect(&g, &sigma, &DetectConfig::with_workers(4));
        // All 49 edges connect a 0-node to a 1-node.
        assert_eq!(report.violations.len(), 49);
        assert!(!report.truncated);
        assert_eq!(report.per_rule[0].matches, 49);
        assert_eq!(report.per_rule[0].premise_hits, 49);
    }

    #[test]
    fn parallel_agrees_with_sequential() {
        let (g, sigma, _) = chain_setup(64);
        let seq = detect_sequential(&g, &sigma, &DetectConfig::default());
        let par = detect(&g, &sigma, &DetectConfig::with_workers(8));
        let key = |r: &ViolationRecord| (r.gfd, r.m.clone());
        let s: Vec<_> = seq.violations.iter().map(key).collect();
        let p: Vec<_> = par.violations.iter().map(key).collect();
        assert_eq!(s, p);
    }

    #[test]
    fn dispatch_modes_agree() {
        let (g, sigma, _) = chain_setup(64);
        let stealing = detect(&g, &sigma, &DetectConfig::with_workers(4));
        let coordinator = detect(
            &g,
            &sigma,
            &DetectConfig {
                dispatch: DispatchMode::Coordinator,
                ..DetectConfig::with_workers(4)
            },
        );
        assert_eq!(stealing.violations.len(), coordinator.violations.len());
        assert_eq!(coordinator.metrics.units_stolen, 0);
    }

    #[test]
    fn budget_truncates_early() {
        let (g, sigma, _) = chain_setup(100);
        let config = DetectConfig {
            max_violations: 5,
            ..DetectConfig::with_workers(4)
        };
        let report = detect(&g, &sigma, &config);
        assert_eq!(report.violations.len(), 5);
        assert!(report.truncated);
        assert!(report.metrics.early_terminated);
    }

    #[test]
    fn clean_graph_reports_clean() {
        let (mut g, sigma, mut vocab) = chain_setup(10);
        let a = vocab.attr("a");
        for v in g.nodes().collect::<Vec<_>>() {
            g.set_attr(v, a, Value::int(0));
        }
        let report = detect(&g, &sigma, &DetectConfig::with_workers(2));
        assert!(report.is_clean());
        assert_eq!(report.per_rule[0].matches, 9);
        assert_eq!(report.per_rule[0].violations, 0);
    }

    #[test]
    fn tiny_ttl_still_finds_everything() {
        let (g, sigma, _) = chain_setup(80);
        let config = DetectConfig {
            ttl: Duration::ZERO,
            batch_size: 8,
            ..DetectConfig::with_workers(4)
        };
        let report = detect(&g, &sigma, &config);
        assert_eq!(report.violations.len(), 79);
    }

    #[test]
    fn empty_rule_set_is_trivially_clean() {
        let (g, _, _) = chain_setup(5);
        let sigma = GfdSet::new();
        let report = detect(&g, &sigma, &DetectConfig::with_workers(2));
        assert!(report.is_clean());
        assert_eq!(report.metrics.units_dispatched, 0);
    }

    #[test]
    fn empty_graph_is_trivially_clean() {
        let (_, sigma, _) = chain_setup(5);
        let g = Graph::new();
        let report = detect(&g, &sigma, &DetectConfig::with_workers(2));
        assert!(report.is_clean());
        assert_eq!(report.total_matches(), 0);
    }
}
