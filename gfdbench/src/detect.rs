//! The `detect_stream` phase: full detection sweeps on a uniform data
//! graph and on a skewed hub graph, and a stream of small update batches
//! through the incremental detector — all with two workers.

use crate::measure::{
    median, percentile, shuffled, time_ms, trace_spec, Metrics, Op, Overhead, Tally,
};
use crate::spans::Spans;
use gfd_core::{DepSet, GfdSet};
use gfd_detect::{
    detect, detect_sequential, detect_units, initial_units, DetectConfig, DetectionReport,
    RulePlans, ViolationRecord,
};
use gfd_gen::{
    delta_stream, hub_workload, plant_violation, random_graph, real_life_workload, Dataset,
    DeltaStreamConfig, GraphGenConfig, HubGenConfig,
};
use gfd_graph::{DeltaBatch, Graph, LabelIndex};
use gfd_incr::{BatchReport, IncrConfig, IncrementalDetector};
use gfd_match::IntersectStrategy;
use gfd_runtime::{EventKind, TraceSpec};
use std::cell::RefCell;
use std::time::Duration;

/// Input sizes of the phase.
#[derive(Clone, Copy, Debug)]
pub struct DetectSize {
    /// Nodes of the uniform data graph (edges are three times as many).
    pub nodes: usize,
    /// Mined-style rules checked on it.
    pub rules: usize,
    /// Rules with a planted violation.
    pub planted: usize,
    /// Nodes of the hub graph.
    pub hub_nodes: usize,
    /// Hubs of the hub graph.
    pub hubs: usize,
    /// Spokes per hub.
    pub hub_degree: usize,
    /// Update batches of the stream, each 0.1% of |E|: enough that the
    /// p90 has at least ten samples beyond it.
    pub batches: usize,
}

/// The full size.
pub const FULL: DetectSize = DetectSize {
    nodes: 60_000,
    rules: 200,
    planted: 10,
    hub_nodes: 20_000,
    hubs: 32,
    hub_degree: 128,
    batches: 200,
};

/// The companion size other workloads run.
pub const SMALL: DetectSize = DetectSize {
    nodes: 20_000,
    rules: 80,
    planted: 5,
    hub_nodes: 20_000,
    hubs: 32,
    hub_degree: 128,
    batches: 110,
};

/// A violation set's size and an order-sensitive hash of its records
/// (reports are sorted by rule and match).
type Fingerprint = (usize, u64);

/// Fingerprint of a sorted violation list.
fn fingerprint(violations: &[ViolationRecord]) -> Fingerprint {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut mix = |x: usize| {
        h ^= x as u64;
        h = h.wrapping_mul(0x0100_0000_01B3);
    };
    for v in violations {
        mix(v.gfd.index());
        mix(v.m.len());
        v.m.iter().for_each(|n| mix(n.index()));
    }
    (violations.len(), h)
}

/// Generated inputs plus the seeded incremental detector.
pub struct DetectInput {
    sigma: GfdSet,
    graph: Graph,
    hub_graph: Graph,
    hub_sigma: GfdSet,
    stream: Vec<DeltaBatch>,
    incr: IncrementalDetector,
    /// Wall time of the incremental detector's seed pass.
    pub seed_ms: f64,
}

fn config(trace: TraceSpec) -> DetectConfig {
    DetectConfig {
        trace,
        ..DetectConfig::with_workers(crate::WORKERS)
    }
}

/// Overlay share of the base edge count at which the incremental
/// detector re-freezes. The library default (0.25) is never reached by a
/// stream of 200 batches of 0.1% of |E|, which would leave the
/// compaction layer unmeasured; at 0.05 both stream sizes compact.
const COMPACT_FRACTION: f64 = 0.05;

/// Generator seed of the mined-style rules: a fixed rule set, like the
/// reasoning phase's Σ (detection cost over freshly generated rules
/// varies by half from one generator seed to the next).
pub const RULES_SEED: u64 = 7;

/// Generate the phase's inputs and seed the incremental detector (its
/// first index and detection pass). The rules are fixed and put in an
/// order drawn from `seed`; the graphs and the update stream are drawn
/// from `seed`. `trace` configures the detector's own tracing for the
/// whole stream.
pub fn setup(size: &DetectSize, seed: u64, trace: TraceSpec) -> DetectInput {
    let mut w = real_life_workload(Dataset::DBpedia, size.rules, RULES_SEED, None);
    w.sigma = GfdSet::from_vec(shuffled(w.sigma.as_slice(), seed));
    let mut graph = random_graph(
        &w.schema,
        &GraphGenConfig {
            nodes: size.nodes,
            edges: size.nodes * 3,
            attr_prob: 0.3,
            seed,
        },
    );
    for (i, (_, gfd)) in w.sigma.iter().take(size.planted).enumerate() {
        plant_violation(
            &mut graph,
            gfd,
            &w.schema,
            seed.wrapping_add(600 + i as u64),
        );
    }
    let stream = delta_stream(
        &graph,
        &w.schema,
        &DeltaStreamConfig {
            batches: size.batches,
            edge_fraction: 0.001,
            seed: seed ^ 0x5EED_D317,
            ..Default::default()
        },
    );
    let hub = hub_workload(&HubGenConfig {
        nodes: size.hub_nodes,
        hubs: size.hubs,
        hub_degree: size.hub_degree,
        seed,
        ..HubGenConfig::default()
    });
    let (seed_ms, incr) = time_ms(|| {
        IncrementalDetector::new(
            graph.clone(),
            w.sigma.clone(),
            IncrConfig {
                detect: config(trace),
                compact_fraction: COMPACT_FRACTION,
            },
        )
    });
    DetectInput {
        sigma: w.sigma,
        graph,
        hub_graph: hub.graph,
        hub_sigma: hub.sigma,
        stream,
        incr,
        seed_ms,
    }
}

/// Answers the checks compare against, computed by the one-worker
/// reference detector outside every timed region.
pub struct DetectRefs {
    uniform: Fingerprint,
    hub: Fingerprint,
}

/// Compute the reference violation sets.
pub fn references(input: &DetectInput) -> DetectRefs {
    let cfg = config(TraceSpec::disabled());
    DetectRefs {
        uniform: fingerprint(&detect_sequential(&input.graph, &input.sigma, &cfg).violations),
        hub: fingerprint(&detect_sequential(&input.hub_graph, &input.hub_sigma, &cfg).violations),
    }
}

fn sound(r: &DetectionReport, want: Fingerprint) -> bool {
    r.interrupted.is_none() && !r.truncated && fingerprint(&r.violations) == want
}

/// Time shares of the phase: uniform sweeps, hub sweeps, the stream.
const SHARES: [f64; 3] = [0.2, 0.25, 0.55];
/// Fewest sweeps of each graph per run.
const MIN_SWEEPS: usize = 5;

/// One applied batch: wall time, update count, and what the detector did.
type BatchSample = (f64, usize, BatchReport);

/// Samples of one run: wall times when untraced, layer splits when traced.
#[derive(Default)]
pub struct Samples {
    detect_ms: Vec<f64>,
    hub_ms: Vec<f64>,
    sweeps: Vec<Sweep>,
    hub: Vec<Sweep>,
    batches: Vec<BatchSample>,
}

/// The phase's calls — uniform sweeps, hub sweeps and the update stream,
/// one batch per call — as ops sharing `share` of the run. With `spans`,
/// each sweep is split into its layer calls.
pub fn ops<'a>(
    input: &'a mut DetectInput,
    refs: &'a DetectRefs,
    share: f64,
    spans: Option<&'a RefCell<Spans>>,
    samples: &'a mut Samples,
    overhead: Option<&'a mut Overhead>,
) -> Vec<Op<'a>> {
    let spec = trace_spec(spans.is_some());
    let cfg = config(spec);
    let DetectInput {
        sigma,
        graph,
        hub_graph,
        hub_sigma,
        stream,
        incr,
        ..
    } = input;
    let Samples {
        detect_ms,
        hub_ms,
        sweeps,
        hub,
        batches,
    } = samples;
    let (sigma, graph, hub_graph, hub_sigma) = (&*sigma, &*graph, &*hub_graph, &*hub_sigma);
    let (c1, c2) = (cfg.clone(), cfg);
    let sweep_op = move |tally: &mut Tally| match spans {
        None => {
            let (ms, r) = time_ms(|| detect(graph, sigma, &c1));
            if tally.check(sound(&r, refs.uniform)) {
                detect_ms.push(ms);
            }
        }
        Some(sp) => {
            let sw = traced_sweep("detect", graph, sigma, &c1, &mut sp.borrow_mut());
            if tally.check(sound(&sw.report, refs.uniform)) {
                sweeps.push(sw);
            }
        }
    };
    let hub_op = move |tally: &mut Tally| match spans {
        None => {
            let (ms, r) = time_ms(|| detect(hub_graph, hub_sigma, &c2));
            if tally.check(sound(&r, refs.hub)) {
                hub_ms.push(ms);
            }
        }
        Some(sp) => {
            let sw = traced_sweep(
                "hub_detect",
                hub_graph,
                hub_sigma,
                &c2,
                &mut sp.borrow_mut(),
            );
            if tally.check(sound(&sw.report, refs.hub)) {
                hub.push(sw);
            }
        }
    };
    // The stream's answers are checked once it has been applied in full
    // (see [`finish`]).
    let stream: &'a [DeltaBatch] = stream;
    let batch_op = move |_: &mut Tally| {
        let batch = &stream[batches.len()];
        let (ms, rep) = match spans {
            None => time_ms(|| incr.apply(batch)),
            Some(sp) => {
                let mut s = sp.borrow_mut();
                let rep = s.span("batch", |s| s.span("incr.apply", |_| incr.apply(batch)));
                (s.last_root_ms(), rep)
            }
        };
        batches.push((ms, batch.len(), rep));
    };
    let mut ops = vec![
        Op::new(share * SHARES[0], MIN_SWEEPS, sweep_op),
        Op::new(share * SHARES[1], MIN_SWEEPS, hub_op),
        Op::exactly(stream.len(), share * SHARES[2], batch_op),
    ];
    if let Some(o) = overhead {
        ops.push(o.op(crate::OVERHEAD_SHARE, move |spec| {
            time_ms(|| detect(graph, sigma, &config(spec))).0
        }));
    }
    ops
}

/// Check the stream's outcome: after the last batch, the detector's
/// violation cache must equal a fresh detection of the final graph.
/// Every batch counts as one answer; on a mismatch all of them fail and
/// their samples are dropped.
pub fn finish(input: &DetectInput, samples: &mut Samples, tally: &mut Tally) {
    let n = samples.batches.len() as u64;
    let fresh = detect(
        input.incr.graph(),
        &input.sigma,
        &config(TraceSpec::disabled()),
    );
    tally.attempted += n;
    if !sound(&fresh, fingerprint(input.incr.violations())) {
        tally.failed += n;
        samples.batches.clear();
    }
}

/// End-to-end metrics: `detect_ms`, `hub_detect_ms`, `batch_p50_ms`,
/// `batch_p90_ms`, and `update_ops_per_s` — the median over batches of
/// updates applied per second of apply time (a median, like the other
/// timings, so that a few batches slowed by the host do not set it).
pub fn report(samples: &Samples, out: &mut Metrics) {
    let batch_ms: Vec<f64> = samples.batches.iter().map(|b| b.0).collect();
    let rates: Vec<f64> = samples
        .batches
        .iter()
        .map(|&(ms, ops, _)| ops as f64 / (ms / 1e3))
        .collect();
    out.put("detect_ms", median(&samples.detect_ms), "ms");
    out.put("hub_detect_ms", median(&samples.hub_ms), "ms");
    out.put("batch_p50_ms", median(&batch_ms), "ms");
    out.put("batch_p90_ms", percentile(&batch_ms, 0.9), "ms");
    out.put("update_ops_per_s", median(&rates), "1/s");
}

/// Per-layer numbers of one traced sweep.
struct Sweep {
    index_ms: f64,
    plan_ms: f64,
    units_ms: f64,
    sweep_ms: f64,
    bitset_steps: usize,
    report: DetectionReport,
}

/// `detect` split into its public layer calls, each in its own span.
fn traced_sweep(
    root: &'static str,
    graph: &Graph,
    sigma: &GfdSet,
    cfg: &DetectConfig,
    spans: &mut Spans,
) -> Sweep {
    let (sweep, _keep) = spans.span(root, |s| {
        let index = s.span("graph.index", |_| LabelIndex::build(graph));
        let deps = s.span("detect.convert", |_| DepSet::from_gfds(sigma.clone()));
        let plans = s.span("plan", |_| RulePlans::build(&deps, &index));
        let units = s.span("detect.units", |_| {
            initial_units(&deps, &index, &plans, cfg.batch_size)
        });
        let report = s.span("detect.sweep", |_| {
            detect_units(graph, &index, &deps, &plans, units, cfg)
        });
        let bitset_steps = plans
            .plans
            .iter()
            .flat_map(|p| p.steps())
            .filter(|st| st.strategy == IntersectStrategy::Bitset)
            .count();
        let sweep = Sweep {
            index_ms: s.last("graph.index"),
            plan_ms: s.last("plan"),
            units_ms: s.last("detect.units"),
            sweep_ms: s.last("detect.sweep"),
            bitset_steps,
            report,
        };
        // Large intermediates drop after the root span closes.
        (sweep, (index, deps, plans))
    });
    sweep
}

/// Per-layer metrics of the traced sweeps and stream.
pub fn report_layers(samples: &Samples, out: &mut Metrics) {
    let (sweeps, hub, batches) = (&samples.sweeps, &samples.hub, &samples.batches);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let med = |v: &[Sweep], f: &dyn Fn(&Sweep) -> f64| median(&v.iter().map(f).collect::<Vec<_>>());
    out.put("graph.index_build_ms", med(sweeps, &|s| s.index_ms), "ms");
    out.put("plan.hub_build_ms", med(hub, &|s| s.plan_ms), "ms");
    let steps =
        sweeps.last().map_or(0, |s| s.bitset_steps) + hub.last().map_or(0, |s| s.bitset_steps);
    out.add("plan.bitset_steps", steps as f64, "count");
    out.put("detect.units_ms", med(sweeps, &|s| s.units_ms), "ms");
    out.put("detect.sweep_ms", med(sweeps, &|s| s.sweep_ms), "ms");
    out.put(
        "detect.busy_ms",
        med(sweeps, &|s| ms(s.report.metrics.total_busy())),
        "ms",
    );
    out.put("detect.hub_sweep_ms", med(hub, &|s| s.sweep_ms), "ms");
    let (matches, violations) = sweeps.last().map_or((0, 0), |s| {
        (s.report.total_matches(), s.report.violations.len())
    });
    out.put("detect.matches", matches as f64, "count");
    out.put("detect.violations", violations as f64, "count");
    out.put(
        "detect.violations_per_match",
        violations as f64 / (matches as f64).max(1.0),
        "ratio",
    );

    let sum = |f: &dyn Fn(&BatchReport) -> usize| -> f64 {
        batches.iter().map(|s| f(&s.2)).sum::<usize>() as f64
    };
    let ops: usize = batches.iter().map(|s| s.1).sum();
    out.put("incr.dirty_nodes", sum(&|r| r.dirty_nodes), "count");
    out.put("incr.rerun_pivots", sum(&|r| r.rerun_pivots), "count");
    out.put(
        "incr.rerun_pivots_per_op",
        sum(&|r| r.rerun_pivots) / (ops as f64).max(1.0),
        "ratio",
    );
    out.put("incr.evicted", sum(&|r| r.evicted), "count");
    out.put("incr.found", sum(&|r| r.found), "count");
    out.put(
        "incr.compactions",
        sum(&|r| usize::from(r.compacted)),
        "count",
    );
    let busy: Vec<f64> = batches
        .iter()
        .map(|s| ms(s.2.metrics.total_busy()))
        .collect();
    out.put("incr.busy_ms", median(&busy), "ms");
    let phase_ms = |kind: EventKind| -> f64 {
        let ns: u64 = batches
            .iter()
            .flat_map(|s| s.2.metrics.trace.profile().phases)
            .filter(|p| p.kind == kind)
            .map(|p| p.time_ns)
            .sum();
        ns as f64 / 1e6
    };
    out.put(
        "trace.frontier_bfs_ms",
        phase_ms(EventKind::FrontierBfs),
        "ms",
    );
    out.put("trace.compact_ms", phase_ms(EventKind::Compact), "ms");
    let dropped: u64 = sweeps
        .iter()
        .chain(hub)
        .map(|s| s.report.metrics.trace.dropped)
        .chain(batches.iter().map(|s| s.2.metrics.trace.dropped))
        .sum();
    out.add("trace.dropped", dropped as f64, "count");
}
