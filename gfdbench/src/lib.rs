//! Wall-clock benchmark of the reasoning, detection and chase layers.
//!
//! A run generates seeded inputs with `gfd-gen`, calls the public entry
//! points of `gfd-core`, `gfd-detect`, `gfd-incr` and `gfd-chase` in
//! closed loops, checks every answer, and reports named metrics. Every
//! run executes all three phases — [`reason`], [`detect`] and [`chase`] —
//! so that every metric is reported on every workload; the workload picks
//! which phase runs at full size with most of the time, while the other
//! two run at a companion size. An untraced run reports the end-to-end
//! metrics; a traced run splits the same calls into their public layer
//! calls under [`spans::Spans`] and reports the per-layer metrics.

pub mod chase;
pub mod detect;
pub mod measure;
pub mod reason;
pub mod spans;

use gfd_runtime::TraceSpec;
use measure::{
    closed_loop, interleave, median, peak_rss_mb, time_ms, trace_spec, Metrics, Overhead, Tally,
};
use spans::Spans;
use std::cell::RefCell;
use std::time::Duration;

/// End-to-end metrics, reported by untraced runs (`--trace 0`), as listed
/// in `BENCHMARK.json`.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "peak_rss_mb",
    "sat_ms",
    "unsat_ms",
    "imp_p50_ms",
    "detect_ms",
    "batch_p50_ms",
    "update_ops_per_s",
    "chase_p1_ms",
];

/// End-to-end metrics an untraced run prints in its table but leaves out
/// of its result line and of `BENCHMARK.json`, so no bound is set on
/// them. On a two-vCPU host whose hypervisor steals a varying share of
/// the CPU (0% to 19% per 30-second run), and whose second vCPU at times
/// stays idle while two threads are runnable, these moved between runs of
/// the same code by more than the largest bound allows: the p90s by 30%
/// to 70% (steal falls on the tail first), the two-worker chase by 22% to
/// 34% (each of its rounds waits on both workers), and the two-worker hub
/// sweep, nearly all parallel, between about 75 ms and 140 ms.
pub const UNGATED: &[&str] = &["imp_p90_ms", "batch_p90_ms", "chase_p2_ms", "hub_detect_ms"];

/// Per-layer metrics, reported by traced runs (`--trace 1`), as listed in
/// `BENCHMARK.json`.
pub const PER_LAYER: &[&str] = &[
    "canonical.build_ms",
    "canonical.nodes",
    "plan.build_ms",
    "plan.sat_build_ms",
    "plan.hub_build_ms",
    "plan.bitset_steps",
    "unit.generate_ms",
    "unit.order_ms",
    "unit.count",
    "unit.imp_order_ms",
    "unit.imp_count",
    "sched.busy_ms",
    "sched.idle_ms",
    "sched.makespan_ms",
    "sched.units_dispatched",
    "sched.units_split",
    "sched.units_stolen",
    "sched.outside_ms",
    "sched.imp_outside_ms",
    "sched.chase_makespan_ms",
    "sched.chase_idle_ms",
    "enforce.matches",
    "enforce.pending",
    "enforce.rechecks",
    "enforce.delta_ops",
    "model.extract_ms",
    "graph.index_build_ms",
    "detect.units_ms",
    "detect.sweep_ms",
    "detect.busy_ms",
    "detect.hub_sweep_ms",
    "detect.matches",
    "detect.violations",
    "detect.violations_per_match",
    "incr.seed_ms",
    "incr.dirty_nodes",
    "incr.rerun_pivots",
    "incr.rerun_pivots_per_op",
    "incr.evicted",
    "incr.found",
    "incr.compactions",
    "incr.busy_ms",
    "chase.rounds",
    "chase.premise_evals",
    "chase.matches",
    "chase.realization_checks",
    "chase.generated_nodes",
    "chase.scan_ms",
    "chase.apply_ms",
    "chase.residual_ms",
    "chase.conflict_ratio",
    "trace.overhead_pct",
    "trace.dropped",
    "trace.rule_eval_ms",
    "trace.apply_plan_ms",
    "trace.apply_commit_ms",
    "trace.frontier_bfs_ms",
    "trace.compact_ms",
];

/// A workload: which phase runs at full size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Sat and Imp verdicts over |Σ| = 2000.
    Reason,
    /// Detection sweeps and an update stream on a 60k-node graph.
    DetectStream,
    /// The mixed GGD chase at p = 1 and p = 2.
    GgdChase,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Reason, Workload::DetectStream, Workload::GgdChase];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Reason => "reason",
            Workload::DetectStream => "detect_stream",
            Workload::GgdChase => "ggd_chase",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of the three phases.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Reasoning phase.
    pub reason: reason::ReasonSize,
    /// Detection phase.
    pub detect: detect::DetectSize,
    /// Chase phase.
    pub chase: chase::ChaseSize,
}

impl Sizes {
    /// The workload's own phase at full size, the others at companion size.
    pub fn for_workload(w: Workload) -> Self {
        let pick = |own: Workload| own == w;
        Sizes {
            reason: if pick(Workload::Reason) {
                reason::FULL
            } else {
                reason::SMALL
            },
            detect: if pick(Workload::DetectStream) {
                detect::FULL
            } else {
                detect::SMALL
            },
            chase: if pick(Workload::GgdChase) {
                chase::FULL
            } else {
                chase::SMALL
            },
        }
    }
}

/// Worker count of every reasoning and detection call: the bench host
/// has two cores.
pub const WORKERS: usize = 2;

/// Fewest set-ups per run; `setup_s` is their median.
pub const MIN_SETUPS: usize = 5;
/// Share of the run's seconds spent setting up (beyond [`MIN_SETUPS`]).
pub const SETUP_SHARE: f64 = 0.05;
/// Share of the run's measuring time the workload's own phase gets; the
/// two companion phases split the rest.
pub const OWN_SHARE: f64 = 0.7;
/// Share of a traced run's measuring time spent on `trace.overhead_pct`,
/// taken from the own phase.
pub const OVERHEAD_SHARE: f64 = 0.1;

/// What one run of the benchmark produced.
pub struct RunResult {
    /// Answers attempted and failed.
    pub tally: Tally,
    /// Metrics in report order.
    pub metrics: Metrics,
    /// Checks that failed outside the answer tally (the layer-sum check).
    pub problems: Vec<String>,
    /// The traced run's spans.
    pub spans: Option<Spans>,
}

struct Inputs {
    reason: reason::ReasonInput,
    detect: detect::DetectInput,
    chase: gfd_core::DepSet,
}

fn setup(sizes: &Sizes, seed: u64, trace: TraceSpec) -> Inputs {
    Inputs {
        reason: reason::setup(&sizes.reason, seed),
        detect: detect::setup(&sizes.detect, seed, trace),
        chase: chase::setup(&sizes.chase, seed),
    }
}

/// Run `workload` at `sizes` for about `seconds` of measurement: set up
/// several times, then interleave every phase's calls in one closed loop.
/// A traced run reports the per-layer metrics instead of the end-to-end
/// ones.
pub fn run(workload: Workload, sizes: &Sizes, seed: u64, seconds: f64, traced: bool) -> RunResult {
    let spec = trace_spec(traced);
    let (mut setup_s, mut seed_ms) = (Vec::new(), Vec::new());
    let mut inputs = None;
    closed_loop(
        MIN_SETUPS,
        Duration::from_secs_f64(seconds * SETUP_SHARE),
        |_| {
            drop(inputs.take());
            let (ms, built) = time_ms(|| setup(sizes, seed, spec));
            setup_s.push(ms / 1e3);
            seed_ms.push(built.detect.seed_ms);
            inputs = Some(built);
        },
    );
    let mut inputs = inputs.expect("at least one set-up");
    let refs = detect::references(&inputs.detect);

    let share = |phase: Workload| {
        if phase != workload {
            (1.0 - OWN_SHARE) / 2.0
        } else if traced {
            OWN_SHARE - OVERHEAD_SHARE
        } else {
            OWN_SHARE
        }
    };
    let spans = traced.then(|| RefCell::new(Spans::default()));
    let mut rs = reason::Samples::default();
    let mut ds = detect::Samples::default();
    let mut cs = chase::Samples::default();
    let mut overhead = Overhead::default();
    let mut tally = Tally::default();
    {
        let Inputs {
            reason: ri,
            detect: di,
            chase: ci,
        } = &mut inputs;
        let sp = spans.as_ref();
        // A traced run also times the workload's own end-to-end call with
        // the program's tracing off and on.
        let mut oh = traced.then_some(&mut overhead);
        let mut own = |w: Workload| if w == workload { oh.take() } else { None };
        let (rw, dw, cw) = (Workload::Reason, Workload::DetectStream, Workload::GgdChase);
        let mut ops = reason::ops(ri, &sizes.reason, share(rw), sp, &mut rs, own(rw));
        ops.extend(detect::ops(di, &refs, share(dw), sp, &mut ds, own(dw)));
        ops.extend(chase::ops(ci, share(cw), sp, &mut cs, own(cw)));
        interleave(&mut ops, Duration::from_secs_f64(seconds), &mut tally);
    }
    detect::finish(&inputs.detect, &mut ds, &mut tally);

    let mut metrics = Metrics::default();
    let m = &mut metrics;
    if traced {
        reason::report_layers(&rs, m);
        detect::report_layers(&ds, m);
        chase::report_layers(&cs, m);
        m.put("incr.seed_ms", median(&seed_ms), "ms");
        m.put("trace.overhead_pct", overhead.pct(), "%");
    } else {
        reason::report(&rs, m);
        detect::report(&ds, m);
        chase::report(&cs, m);
        m.put("setup_s", median(&setup_s), "s");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    let spans = spans.map(RefCell::into_inner);
    let problems = spans
        .iter()
        .flat_map(Spans::check)
        .map(|v| format!("layer-sum check: {v}"))
        .collect();
    RunResult {
        tally,
        metrics,
        problems,
        spans,
    }
}
