//! The `ggd_chase` phase: a mixed GFD + GGD set chased to fixpoint at one
//! and at two workers.

use crate::measure::{median, shuffled, time_ms, trace_spec, Metrics, Op, Overhead, Tally};
use crate::spans::Spans;
use gfd_chase::{
    dep_chase_with_config, dep_sat_with_config, ChaseConfig, ChaseStats, DepChaseOutcome,
    DepSatOutcome, DepSatResult,
};
use gfd_core::{extract_model, DepSet, Dependency, EqRel};
use gfd_gen::{mixed_ggd_workload, GgdGenConfig};
use gfd_graph::{Graph, Vocab};
use gfd_runtime::{EventKind, RunMetrics, TraceSpec};
use std::cell::RefCell;
use std::time::Duration;

/// Input sizes of the phase.
#[derive(Clone, Copy, Debug)]
pub struct ChaseSize {
    /// Tiers of the generation chain.
    pub depth: usize,
    /// Generating rules per tier.
    pub per_tier: usize,
    /// Largest fan-out of one firing.
    pub fanout: usize,
    /// Literal rules mixed in.
    pub literal: usize,
}

/// The set Exp-8 uses at its quick scale.
pub const FULL: ChaseSize = ChaseSize {
    depth: 5,
    per_tier: 3,
    fanout: 3,
    literal: 8,
};

/// The companion size other workloads run.
pub const SMALL: ChaseSize = ChaseSize {
    depth: 6,
    per_tier: 2,
    fanout: 3,
    literal: 4,
};

/// Generator seed of the rule set, Exp-8's. The generator draws each
/// rule's fan-out from it, and the generated-node count is the product
/// of the per-tier fan-outs, so another generator seed changes the work
/// several-fold.
pub const SET_SEED: u64 = 7;

/// Generate the phase's rule set: Exp-8's set in an order drawn from
/// `seed`.
pub fn setup(size: &ChaseSize, seed: u64) -> DepSet {
    let deps = mixed_ggd_workload(
        &GgdGenConfig {
            chain_depth: size.depth,
            gen_per_tier: size.per_tier,
            fanout: size.fanout,
            literal_rules: size.literal,
            seed: SET_SEED,
        },
        &mut Vocab::new(),
    );
    let all: Vec<Dependency> = deps.iter().map(|(_, d)| d.clone()).collect();
    let mut out = DepSet::new();
    for d in shuffled(&all, seed) {
        out.push(d);
    }
    out
}

/// Chase settings of Exp-8.
fn config(workers: usize, trace: TraceSpec) -> ChaseConfig {
    ChaseConfig {
        workers,
        ttl: Duration::from_micros(200),
        batch: 8,
        max_generated_nodes: 10_000_000,
        trace,
        ..ChaseConfig::default()
    }
}

/// Fewest p = 1 / p = 2 pairs per run.
const MIN_PAIRS: usize = 5;

fn model_nodes(r: &DepSatResult) -> Option<usize> {
    match &r.outcome {
        DepSatOutcome::Satisfiable(m) => Some(m.node_count()),
        _ => None,
    }
}

/// The p = 2 answer must match the p = 1 answer: same rounds, same
/// generated nodes, same model size.
fn agree(a: (&ChaseStats, Option<usize>), b: (&ChaseStats, Option<usize>)) -> bool {
    a.1.is_some()
        && a.1 == b.1
        && a.0.rounds == b.0.rounds
        && a.0.generated_nodes == b.0.generated_nodes
}

/// Samples of one run: wall times when untraced, layer splits of the
/// p = 2 chase when traced.
#[derive(Default)]
pub struct Samples {
    p1_ms: Vec<f64>,
    p2_ms: Vec<f64>,
    p2: Vec<Layers>,
}

/// The phase's call — one chase at p = 1 and one at p = 2, in alternating
/// order — as an op taking `share` of the run. With `spans`, each chase
/// is split into its public calls.
pub fn ops<'a>(
    deps: &'a DepSet,
    share: f64,
    spans: Option<&'a RefCell<Spans>>,
    samples: &'a mut Samples,
    overhead: Option<&'a mut Overhead>,
) -> Vec<Op<'a>> {
    let spec = trace_spec(spans.is_some());
    let (c1, c2) = (config(1, spec), config(2, spec));
    let mut calls = 0usize;
    let pair_op = move |tally: &mut Tally| {
        let p2_first = calls % 2 == 1;
        calls += 1;
        match spans {
            None => {
                let run = |c: &ChaseConfig| time_ms(|| dep_sat_with_config(deps, c));
                let ((ms1, r1), (ms2, r2)) = if p2_first {
                    let b = run(&c2);
                    (run(&c1), b)
                } else {
                    let a = run(&c1);
                    (a, run(&c2))
                };
                let n1 = model_nodes(&r1);
                if tally.check(n1.is_some()) {
                    samples.p1_ms.push(ms1);
                }
                if tally.check(agree((&r1.stats, n1), (&r2.stats, model_nodes(&r2)))) {
                    samples.p2_ms.push(ms2);
                }
            }
            Some(sp) => {
                let mut s = sp.borrow_mut();
                let (a, b) = if p2_first {
                    let b = traced_chase(deps, &c2, &mut s);
                    (traced_chase(deps, &c1, &mut s), b)
                } else {
                    let a = traced_chase(deps, &c1, &mut s);
                    (a, traced_chase(deps, &c2, &mut s))
                };
                tally.check(a.model_nodes.is_some());
                if tally.check(agree((&a.stats, a.model_nodes), (&b.stats, b.model_nodes))) {
                    samples.p2.push(b);
                }
            }
        }
    };
    let mut ops = vec![Op::new(share, MIN_PAIRS, pair_op)];
    if let Some(o) = overhead {
        ops.push(o.op(crate::OVERHEAD_SHARE, move |spec| {
            time_ms(|| dep_sat_with_config(deps, &config(2, spec))).0
        }));
    }
    ops
}

/// End-to-end metrics: `chase_p1_ms`, `chase_p2_ms`.
pub fn report(samples: &Samples, out: &mut Metrics) {
    out.put("chase_p1_ms", median(&samples.p1_ms), "ms");
    out.put("chase_p2_ms", median(&samples.p2_ms), "ms");
}

/// Per-layer numbers of one traced chase.
struct Layers {
    run_ms: f64,
    stats: ChaseStats,
    metrics: RunMetrics,
    model_nodes: Option<usize>,
}

/// `dep_sat_with_config` on a generating set, split into its public
/// calls: building `GΣ`, the chase, and model extraction.
fn traced_chase(deps: &DepSet, cfg: &ChaseConfig, spans: &mut Spans) -> Layers {
    let root = if cfg.workers == 1 {
        "chase_p1"
    } else {
        "chase_p2"
    };
    let (layers, _keep) = spans.span(root, |s| {
        let graph = s.span("chase.gsigma", |_| {
            assert!(deps.to_gfds().is_none(), "the chase set must be generating");
            let mut graph = Graph::new();
            for (_, dep) in deps.iter() {
                graph.append_disjoint(&dep.pattern.to_graph());
            }
            graph
        });
        let (outcome, stats, metrics) = s.span("chase.run", |_| {
            dep_chase_with_config(deps, graph, EqRel::new(), cfg)
        });
        let (model, chased) = match outcome {
            DepChaseOutcome::Fixpoint { graph, mut eq } => {
                let model = s.span("chase.model", |_| extract_model(&graph, &mut eq));
                (Some(model), Some((graph, eq)))
            }
            _ => (None, None),
        };
        let layers = Layers {
            run_ms: s.last("chase.run"),
            stats,
            metrics,
            model_nodes: model.as_ref().map(Graph::node_count),
        };
        // Large intermediates drop after the root span closes.
        (layers, (model, chased))
    });
    layers
}

/// Per-layer metrics of the traced p = 2 chases.
pub fn report_layers(samples: &Samples, out: &mut Metrics) {
    let runs = &samples.p2;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let med = |f: &dyn Fn(&Layers) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let count = |f: &dyn Fn(&ChaseStats) -> u64| med(&|l| f(&l.stats) as f64);
    out.put("chase.rounds", count(&|s| s.rounds), "count");
    out.put("chase.premise_evals", count(&|s| s.premise_evals), "count");
    out.put("chase.matches", count(&|s| s.matches_enumerated), "count");
    out.put(
        "chase.realization_checks",
        count(&|s| s.realization_checks),
        "count",
    );
    out.put(
        "chase.generated_nodes",
        count(&|s| s.generated_nodes),
        "count",
    );
    out.put("chase.scan_ms", med(&|l| ms(l.stats.scan_time)), "ms");
    out.put("chase.apply_ms", med(&|l| ms(l.stats.apply_time)), "ms");
    out.put(
        "chase.residual_ms",
        med(&|l| l.run_ms - ms(l.stats.scan_time) - ms(l.stats.apply_time)),
        "ms",
    );
    out.put(
        "chase.conflict_ratio",
        med(&|l| {
            let firings = l.stats.apply_independent + l.stats.apply_conflicts;
            l.stats.apply_conflicts as f64 / (firings as f64).max(1.0)
        }),
        "ratio",
    );
    out.put(
        "sched.chase_makespan_ms",
        med(&|l| ms(l.metrics.makespan().unwrap_or_default())),
        "ms",
    );
    out.put(
        "sched.chase_idle_ms",
        med(&|l| ms(l.metrics.total_idle())),
        "ms",
    );
    let phase_ms = |l: &Layers, kind: EventKind| -> f64 {
        let profile = l.metrics.trace.profile();
        let ns: u64 = match kind {
            EventKind::RuleEval => profile.rules.iter().map(|r| r.time_ns).sum(),
            _ => profile
                .phases
                .iter()
                .filter(|p| p.kind == kind)
                .map(|p| p.time_ns)
                .sum(),
        };
        ns as f64 / 1e6
    };
    out.put(
        "trace.rule_eval_ms",
        med(&|l| phase_ms(l, EventKind::RuleEval)),
        "ms",
    );
    out.put(
        "trace.apply_plan_ms",
        med(&|l| phase_ms(l, EventKind::ApplyPlan)),
        "ms",
    );
    out.put(
        "trace.apply_commit_ms",
        med(&|l| phase_ms(l, EventKind::ApplyCommit)),
        "ms",
    );
    let dropped: u64 = runs.iter().map(|l| l.metrics.trace.dropped).sum();
    out.add("trace.dropped", dropped as f64, "count");
}
