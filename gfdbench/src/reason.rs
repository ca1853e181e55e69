//! The `reason` phase: Sat verdicts on a satisfiable mined-style Σ, Sat
//! verdicts on Σ plus an injected conflict chain, and a stream of
//! implication queries — all through `run_reason` with two workers.

use crate::measure::{
    median, percentile, shuffled, time_ms, trace_spec, Metrics, Op, Overhead, SplitMix, Tally,
};
use crate::spans::Spans;
use gfd_core::{
    build_plans_lazy, consequence_deducible, extract_model, generate_units, graph_satisfies_all,
    imp_with_config, order_units, run_reason, sat_with_config, CanonicalGraph, EqRel, Gfd, GfdSet,
    Goal, Literal, ReasonConfig, TerminalEvent,
};
use gfd_gen::{
    implied_probe, inject_chain_conflict, not_implied_probe, real_life_workload, Dataset, ImpProbe,
};
use gfd_match::{IntersectStrategy, MatchPlan};
use gfd_runtime::{RunMetrics, TraceSpec};
use std::cell::RefCell;
use std::collections::HashSet;
use std::time::Duration;

/// Input sizes of the phase.
#[derive(Clone, Copy, Debug)]
pub struct ReasonSize {
    /// |Σ| of the mined-style rule set.
    pub sigma: usize,
    /// Depth of the injected conflict chain.
    pub chain: usize,
    /// Distinct implication probes the query stream cycles through.
    pub probes: usize,
    /// Fewest implication queries per run: enough that the p90 has at
    /// least ten samples beyond it.
    pub min_queries: usize,
}

/// The paper's smallest Exp-2 size.
pub const FULL: ReasonSize = ReasonSize {
    sigma: 2000,
    chain: 6,
    probes: 128,
    min_queries: 110,
};

/// The companion size other workloads run.
pub const SMALL: ReasonSize = ReasonSize {
    sigma: 1000,
    chain: 5,
    probes: 64,
    min_queries: 110,
};

/// Generated inputs with the answers the generator constructed.
pub struct ReasonInput {
    /// Satisfiable by construction.
    pub sigma: GfdSet,
    /// Σ plus a conflict chain: unsatisfiable by construction.
    pub unsat: GfdSet,
    /// Implication queries, about half of them implied.
    pub probes: Vec<ImpProbe>,
}

/// Generator seed of the mined-style Σ. Σ is a fixed data set, like the
/// paper's mined sets: the cost of Sat over a freshly generated Σ varies
/// by about a fifth from one generator seed to the next.
pub const SIGMA_SEED: u64 = 7;

/// Generate the phase's inputs: the fixed Σ in an order drawn from
/// `seed`, and a query stream drawn from `seed`.
pub fn setup(size: &ReasonSize, seed: u64) -> ReasonInput {
    let mut w = real_life_workload(Dataset::DBpedia, size.sigma, SIGMA_SEED, None);
    w.sigma = GfdSet::from_vec(shuffled(w.sigma.as_slice(), seed));
    let mut unsat = w.sigma.clone();
    inject_chain_conflict(&mut unsat, &w.schema, size.chain, SIGMA_SEED ^ 0xC4A1_7C0F);
    let mut rng = SplitMix(seed ^ 0x1A9B_0E5E);
    let mut probes = Vec::with_capacity(size.probes);
    while probes.len() < size.probes {
        let s = rng.next_u64();
        if s & 1 == 0 {
            if let Some(phi) = implied_probe(&w.sigma, &w.schema, s) {
                probes.push(ImpProbe {
                    phi,
                    expect_implied: true,
                });
            }
        } else {
            probes.push(ImpProbe {
                phi: not_implied_probe(&w.sigma, &w.schema, &mut w.vocab, s),
                expect_implied: false,
            });
        }
    }
    ReasonInput {
        sigma: w.sigma,
        unsat,
        probes,
    }
}

fn config(trace: TraceSpec) -> ReasonConfig {
    ReasonConfig::with_workers(crate::WORKERS).with_trace(trace)
}

/// Time shares of the phase: Sat, Unsat, Imp.
const SHARES: [f64; 3] = [0.35, 0.2, 0.45];
/// Fewest Sat and Unsat verdicts per run.
const MIN_VERDICTS: usize = 5;

/// A Sat verdict is right when Σ came out satisfiable and the model
/// satisfies Σ by the independent validator (checked outside the timed
/// region).
fn sat_ok(sigma: &GfdSet, model: Option<&gfd_graph::Graph>) -> bool {
    model.is_some_and(|m| graph_satisfies_all(m, sigma))
}

/// Samples of one run: wall times when untraced, layer splits when traced.
#[derive(Default)]
pub struct Samples {
    sat_ms: Vec<f64>,
    unsat_ms: Vec<f64>,
    imp_ms: Vec<f64>,
    sat: Vec<Layers>,
    imp: Vec<Layers>,
}

/// The phase's calls — Sat, Unsat and Imp verdicts — as ops sharing
/// `share` of the run. With `spans`, each call is split into its layer
/// calls.
pub fn ops<'a>(
    input: &'a ReasonInput,
    size: &ReasonSize,
    share: f64,
    spans: Option<&'a RefCell<Spans>>,
    samples: &'a mut Samples,
    overhead: Option<&'a mut Overhead>,
) -> Vec<Op<'a>> {
    let spec = trace_spec(spans.is_some());
    let cfg = config(spec);
    let Samples {
        sat_ms,
        unsat_ms,
        imp_ms,
        sat,
        imp,
    } = samples;
    let (c1, c2, c3) = (cfg.clone(), cfg.clone(), cfg);
    let sat_op = move |tally: &mut Tally| {
        let sigma = &input.sigma;
        match spans {
            None => {
                let (ms, r) = time_ms(|| sat_with_config(sigma, &c1));
                if tally.check(sat_ok(sigma, r.model())) {
                    sat_ms.push(ms);
                }
            }
            Some(sp) => {
                let (verdict, layers) = traced_call(sigma, None, &c1, &mut sp.borrow_mut());
                let model = match &verdict {
                    Verdict::Satisfiable(m) => Some(&**m),
                    _ => None,
                };
                if tally.check(sat_ok(sigma, model)) {
                    sat.extend(layers);
                }
            }
        }
    };
    let unsat_op = move |tally: &mut Tally| match spans {
        None => {
            let (ms, r) = time_ms(|| sat_with_config(&input.unsat, &c2));
            if tally.check(!r.is_satisfiable() && !r.is_unknown()) {
                unsat_ms.push(ms);
            }
        }
        Some(sp) => {
            let (verdict, _) = traced_call(&input.unsat, None, &c2, &mut sp.borrow_mut());
            tally.check(matches!(verdict, Verdict::Unsatisfiable));
        }
    };
    let mut next = 0;
    let imp_op = move |tally: &mut Tally| {
        let probe = &input.probes[next % input.probes.len()];
        next += 1;
        match spans {
            None => {
                let (ms, r) = time_ms(|| imp_with_config(&input.sigma, &probe.phi, &c3));
                if tally.check(!r.is_unknown() && r.is_implied() == probe.expect_implied) {
                    imp_ms.push(ms);
                }
            }
            Some(sp) => {
                let (verdict, layers) =
                    traced_call(&input.sigma, Some(&probe.phi), &c3, &mut sp.borrow_mut());
                let implied = match verdict {
                    Verdict::Implied => Some(true),
                    Verdict::NotImplied => Some(false),
                    _ => None,
                };
                if tally.check(implied == Some(probe.expect_implied)) {
                    imp.extend(layers);
                }
            }
        }
    };
    let mut ops = vec![
        Op::new(share * SHARES[0], MIN_VERDICTS, sat_op),
        Op::new(share * SHARES[1], MIN_VERDICTS, unsat_op),
        Op::new(share * SHARES[2], size.min_queries, imp_op),
    ];
    if let Some(o) = overhead {
        ops.push(o.op(crate::OVERHEAD_SHARE, move |spec| {
            time_ms(|| sat_with_config(&input.sigma, &config(spec))).0
        }));
    }
    ops
}

/// End-to-end metrics: `sat_ms`, `unsat_ms`, `imp_p50_ms`, `imp_p90_ms`.
pub fn report(samples: &Samples, out: &mut Metrics) {
    out.put("sat_ms", median(&samples.sat_ms), "ms");
    out.put("unsat_ms", median(&samples.unsat_ms), "ms");
    out.put("imp_p50_ms", median(&samples.imp_ms), "ms");
    out.put("imp_p90_ms", percentile(&samples.imp_ms, 0.9), "ms");
}

/// Per-layer numbers of one traced reasoning call.
struct Layers {
    canonical_ms: f64,
    nodes: usize,
    plan_ms: f64,
    bitset_steps: usize,
    generate_ms: f64,
    order_ms: f64,
    units: usize,
    outside_ms: f64,
    model_ms: f64,
    metrics: RunMetrics,
}

fn bitset_steps<'a>(plans: impl IntoIterator<Item = &'a MatchPlan>) -> usize {
    plans
        .into_iter()
        .flat_map(MatchPlan::steps)
        .filter(|s| s.strategy == IntersectStrategy::Bitset)
        .count()
}

/// How a traced call ended.
enum Verdict {
    Satisfiable(Box<gfd_graph::Graph>),
    Unsatisfiable,
    Implied,
    NotImplied,
    Unknown,
}

/// The X-subsumption boost of implication (§VI-C): rules whose premise
/// attributes all occur in ϕ's premise are ordered first.
fn boosted(sigma: &GfdSet, premise: &[Literal]) -> Vec<bool> {
    let x: HashSet<_> = premise.iter().flat_map(Literal::attrs).collect();
    sigma
        .iter()
        .map(|(_, g)| g.premise_attrs().all(|a| x.contains(&a)))
        .collect()
}

/// `sat_with_config` / `imp_with_config` split into their public layer
/// calls, each in its own span. `run_reason` repeats the plan and unit
/// calls internally; timing them separately here is what lets
/// `sched.outside_ms` name its own serial residual.
fn traced_call(
    sigma: &GfdSet,
    phi: Option<&Gfd>,
    cfg: &ReasonConfig,
    spans: &mut Spans,
) -> (Verdict, Option<Layers>) {
    let root = if phi.is_some() { "imp" } else { "sat" };
    let (verdict, layers, _keep) = spans.span(root, |s| {
        // Implication's short-circuits: an empty or already-deducible Y,
        // or an inconsistent X, decide the query before any matching.
        let prepared = s.span("canonical", |_| match phi {
            None => Ok((CanonicalGraph::for_sigma(sigma).0, EqRel::new())),
            Some(phi) if phi.consequence.is_empty() => Err(Verdict::Implied),
            Some(phi) => match CanonicalGraph::for_phi(phi) {
                Err(_) => Err(Verdict::Implied),
                Ok((canon, eqx)) => {
                    if consequence_deducible(&mut eqx.clone(), phi) {
                        Err(Verdict::Implied)
                    } else {
                        Ok((canon, eqx))
                    }
                }
            },
        });
        let (canon, eq0) = match prepared {
            Ok(pair) => pair,
            Err(v) => return (v, None, None),
        };
        let (pivots, plans) = s.span("plan", |_| build_plans_lazy(sigma, &canon.index));
        let mut units = s.span("unit.generate", |_| {
            generate_units(sigma, &canon, &pivots, cfg.prune_components)
        });
        s.span("unit.order", |_| {
            let boost = phi.map(|phi| boosted(sigma, &phi.premise));
            order_units(&mut units, sigma, &canon, &pivots, boost.as_deref());
        });
        let goal = phi.map_or(Goal::Sat, Goal::Imp);
        let run = s.span("reason", |_| run_reason(sigma, goal, eq0, &canon, cfg));
        let verdict = match (&run.terminal, run.engine) {
            (Some(TerminalEvent::Conflict(_)), _) if phi.is_none() => Verdict::Unsatisfiable,
            (Some(_), _) => Verdict::Implied,
            (None, Some(_)) if phi.is_some() => Verdict::NotImplied,
            (None, Some(mut engine)) => Verdict::Satisfiable(Box::new(
                s.span("model", |_| extract_model(&canon.graph, &mut engine.eq)),
            )),
            (None, None) => Verdict::Unknown,
        };
        let plan_ms = s.last("plan");
        let generate_ms = s.last("unit.generate");
        let order_ms = s.last("unit.order");
        let makespan_ms = run.metrics.makespan().unwrap_or_default().as_secs_f64() * 1e3;
        let layers = Layers {
            canonical_ms: s.last("canonical"),
            nodes: canon.graph.node_count(),
            plan_ms,
            bitset_steps: bitset_steps(plans.iter().flatten()),
            generate_ms,
            order_ms,
            units: units.len(),
            outside_ms: s.last("reason") - plan_ms - generate_ms - order_ms - makespan_ms,
            model_ms: s.last("model"),
            metrics: run.metrics,
        };
        // Large intermediates drop after the root span closes.
        (verdict, Some(layers), Some((canon, plans, units)))
    });
    (verdict, layers)
}

/// Per-layer metrics of the traced Sat and Imp calls.
pub fn report_layers(samples: &Samples, out: &mut Metrics) {
    let (sat, imp) = (&samples.sat, &samples.imp);
    let med =
        |v: &[Layers], f: &dyn Fn(&Layers) -> f64| median(&v.iter().map(f).collect::<Vec<_>>());
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    out.put("canonical.build_ms", med(sat, &|l| l.canonical_ms), "ms");
    out.put("canonical.nodes", med(sat, &|l| l.nodes as f64), "count");
    out.put("plan.build_ms", med(imp, &|l| l.plan_ms), "ms");
    out.put("plan.sat_build_ms", med(sat, &|l| l.plan_ms), "ms");
    let steps = sat.last().map_or(0, |l| l.bitset_steps) + imp.last().map_or(0, |l| l.bitset_steps);
    out.add("plan.bitset_steps", steps as f64, "count");
    out.put("unit.generate_ms", med(sat, &|l| l.generate_ms), "ms");
    out.put("unit.order_ms", med(sat, &|l| l.order_ms), "ms");
    out.put("unit.count", med(sat, &|l| l.units as f64), "count");
    out.put("unit.imp_order_ms", med(imp, &|l| l.order_ms), "ms");
    out.put("unit.imp_count", med(imp, &|l| l.units as f64), "count");
    out.put(
        "sched.busy_ms",
        med(sat, &|l| ms(l.metrics.total_busy())),
        "ms",
    );
    out.put(
        "sched.idle_ms",
        med(sat, &|l| ms(l.metrics.total_idle())),
        "ms",
    );
    out.put(
        "sched.makespan_ms",
        med(sat, &|l| ms(l.metrics.makespan().unwrap_or_default())),
        "ms",
    );
    out.put(
        "sched.units_dispatched",
        med(sat, &|l| l.metrics.units_dispatched as f64),
        "count",
    );
    out.put(
        "sched.units_split",
        med(sat, &|l| l.metrics.units_split as f64),
        "count",
    );
    out.put(
        "sched.units_stolen",
        med(sat, &|l| l.metrics.units_stolen as f64),
        "count",
    );
    out.put("sched.outside_ms", med(sat, &|l| l.outside_ms), "ms");
    out.put("sched.imp_outside_ms", med(imp, &|l| l.outside_ms), "ms");
    out.put(
        "enforce.matches",
        med(sat, &|l| l.metrics.matches as f64),
        "count",
    );
    out.put(
        "enforce.pending",
        med(sat, &|l| l.metrics.pending as f64),
        "count",
    );
    out.put(
        "enforce.rechecks",
        med(sat, &|l| l.metrics.rechecks as f64),
        "count",
    );
    out.put(
        "enforce.delta_ops",
        med(sat, &|l| l.metrics.delta_ops_broadcast as f64),
        "count",
    );
    out.put("model.extract_ms", med(sat, &|l| l.model_ms), "ms");
    let dropped: u64 = sat.iter().chain(imp).map(|l| l.metrics.trace.dropped).sum();
    out.add("trace.dropped", dropped as f64, "count");
}
