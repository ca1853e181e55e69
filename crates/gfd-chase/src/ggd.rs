//! Reasoning over generalized dependency sets (GFDs + GGDs): the routing
//! layer of the third `Goal`.
//!
//! * A **literal-only** [`DepSet`] is exactly a GFD set: [`dep_sat`] and
//!   [`dep_imp`] lower it through the [`Dependency`]↔`Gfd` shim and run
//!   the original `gfd-core` algorithms — same engine, same answers,
//!   same metrics (the "pure-GFD inputs behave identically" guarantee).
//!   A generating *candidate* ϕ against a literal Σ still runs on the
//!   unified driver via [`gfd_core::ggd_imp_with_config`]
//!   (`Goal::GgdImp`), because literal enforcement never changes the
//!   topology the realization check probes.
//! * A **mixed** set routes through the chase arms,
//!   [`crate::sat_chase::chase_sat_with_config`] and
//!   [`crate::imp_rdf::chase_imp_with_config`] — the same functions that
//!   serve as the paper's chase baseline on literal sets. Scan units and
//!   apply planning run on the shared scheduler, and the fresh-node
//!   budget turns potential non-termination into an explicit `Unknown`
//!   outcome.
//!
//! Satisfiability of a mixed Σ chases the disjoint union of every
//! premise pattern (the `GΣ` construction, unchanged); implication
//! chases ϕ's canonical graph `G^X_Q` and then tests ϕ's consequence —
//! literal deducibility or generating-target realization — on the chased
//! result.

use crate::chase::{ChaseConfig, ChaseStats};
use crate::imp_rdf::chase_imp_with_config;
use crate::sat_chase::chase_sat_with_config;
use gfd_core::{
    ggd_imp_with_config, imp_with_config, sat_with_config, Conflict, DepSet, Dependency,
    ImpOutcome, ImpliedVia, Interrupt, ReasonConfig, SatOutcome,
};
use gfd_graph::Graph;
use gfd_runtime::RunMetrics;

/// The outcome of satisfiability over a generalized dependency set.
#[derive(Debug)]
pub enum DepSatOutcome {
    /// Σ has a model (the chased graph populated through the relation).
    Satisfiable(Box<Graph>),
    /// Enforcement forces two distinct constants onto one class.
    Unsatisfiable(Conflict),
    /// The fresh-node budget ran out before a fixpoint: undecided.
    Unknown {
        /// Fresh nodes materialized before giving up.
        generated_nodes: u64,
    },
    /// The run was cut short — deadline, unit budget, or an injected
    /// fault — before a verdict: undecided.
    Interrupted(Interrupt),
}

/// Result + statistics of [`dep_sat`].
pub struct DepSatResult {
    /// The verdict.
    pub outcome: DepSatOutcome,
    /// Chase counters (all zero when the literal-only fast path ran).
    pub stats: ChaseStats,
    /// Unified scheduler metrics.
    pub metrics: RunMetrics,
}

impl DepSatResult {
    /// True iff Σ was found satisfiable.
    pub fn is_satisfiable(&self) -> bool {
        matches!(self.outcome, DepSatOutcome::Satisfiable(_))
    }

    /// True iff the run degraded before a verdict.
    pub fn is_unknown(&self) -> bool {
        matches!(
            self.outcome,
            DepSatOutcome::Unknown { .. } | DepSatOutcome::Interrupted(_)
        )
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Graph> {
        match &self.outcome {
            DepSatOutcome::Satisfiable(m) => Some(m),
            _ => None,
        }
    }
}

/// Map a chase worker/TTL/dispatch/budget/trace configuration onto the
/// unified driver's knobs for the literal-only fast path. The TTL passes
/// through verbatim: `Duration::ZERO` means "force splitting on every
/// unit" on both routes, matching the repo-wide convention the
/// equivalence suites rely on.
fn reason_config(cfg: &ChaseConfig) -> ReasonConfig {
    ReasonConfig {
        workers: cfg.workers.max(1),
        ttl: cfg.ttl,
        dispatch: cfg.dispatch,
        budget: cfg.budget,
        trace: cfg.trace,
        ..ReasonConfig::default()
    }
}

/// Check satisfiability of a generalized Σ with the default
/// configuration.
pub fn dep_sat(deps: &DepSet) -> DepSatResult {
    dep_sat_with_config(deps, &ChaseConfig::default())
}

/// Check satisfiability of a generalized Σ: literal-only sets run
/// [`sat_with_config`] (SeqSat/ParSat), mixed sets the chase over `GΣ`
/// ([`chase_sat_with_config`]).
pub fn dep_sat_with_config(deps: &DepSet, config: &ChaseConfig) -> DepSatResult {
    if let Some(gfds) = deps.to_gfds() {
        let r = sat_with_config(&gfds, &reason_config(config));
        let outcome = match r.outcome {
            SatOutcome::Satisfiable(m) => DepSatOutcome::Satisfiable(m),
            SatOutcome::Unsatisfiable(c) => DepSatOutcome::Unsatisfiable(c),
            SatOutcome::Unknown(i) => DepSatOutcome::Interrupted(i),
        };
        return DepSatResult {
            outcome,
            stats: ChaseStats::default(),
            metrics: r.stats,
        };
    }

    chase_sat_with_config(deps, config)
}

/// The outcome of implication over a generalized dependency set.
#[derive(Debug)]
pub enum DepImpOutcome {
    /// `Σ |= ϕ`.
    Implied(ImpliedVia),
    /// `Σ 6|= ϕ` under the chase semantics.
    NotImplied,
    /// The fresh-node budget ran out before a verdict.
    Unknown {
        /// Fresh nodes materialized before giving up.
        generated_nodes: u64,
    },
    /// The run was cut short — deadline, unit budget, or an injected
    /// fault — before a verdict: undecided.
    Interrupted(Interrupt),
}

/// Result + statistics of [`dep_imp`].
pub struct DepImpResult {
    /// The verdict.
    pub outcome: DepImpOutcome,
    /// Chase counters (all zero when the driver fast path ran).
    pub stats: ChaseStats,
    /// Unified scheduler metrics.
    pub metrics: RunMetrics,
}

impl DepImpResult {
    /// True iff `Σ |= ϕ`.
    pub fn is_implied(&self) -> bool {
        matches!(self.outcome, DepImpOutcome::Implied(_))
    }

    /// True iff the run degraded before a verdict.
    pub fn is_unknown(&self) -> bool {
        matches!(
            self.outcome,
            DepImpOutcome::Unknown { .. } | DepImpOutcome::Interrupted(_)
        )
    }
}

/// Check `Σ |= ϕ` over generalized dependencies with the default
/// configuration.
pub fn dep_imp(deps: &DepSet, phi: &Dependency) -> DepImpResult {
    dep_imp_with_config(deps, phi, &ChaseConfig::default())
}

/// Check `Σ |= ϕ` over generalized dependencies: when Σ is literal the
/// unified driver decides it (including generating candidates, via
/// `Goal::GgdImp`); a mixed Σ chases `G^X_Q` to fixpoint and tests ϕ's
/// consequence on the result ([`chase_imp_with_config`]).
pub fn dep_imp_with_config(deps: &DepSet, phi: &Dependency, config: &ChaseConfig) -> DepImpResult {
    if let Some(gfds) = deps.to_gfds() {
        let r = match phi.as_gfd() {
            Some(gfd) => imp_with_config(&gfds, &gfd, &reason_config(config)),
            None => ggd_imp_with_config(&gfds, phi, &reason_config(config)),
        };
        let outcome = match r.outcome {
            ImpOutcome::Implied(via) => DepImpOutcome::Implied(via),
            ImpOutcome::NotImplied => DepImpOutcome::NotImplied,
            ImpOutcome::Unknown(i) => DepImpOutcome::Interrupted(i),
        };
        return DepImpResult {
            outcome,
            stats: ChaseStats::default(),
            metrics: r.stats,
        };
    }

    chase_imp_with_config(deps, phi, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::{seq_imp, seq_sat, Consequence, GenerateConsequence, Gfd, GfdSet, Literal};
    use gfd_graph::{Pattern, ValueId, VarId, Vocab};

    fn unary(vocab: &mut Vocab, label: &str) -> Pattern {
        let mut p = Pattern::new();
        p.add_node(vocab.label(label), "x");
        p
    }

    /// tier0 → CREATE tier1 child with a1 = 1; plus a literal rule off
    /// the generated attribute.
    fn chain_deps(vocab: &mut Vocab) -> DepSet {
        let t0 = unary(vocab, "tier0");
        let a1 = vocab.attr("a1");
        let b = vocab.attr("b");
        let mut gen = GenerateConsequence::over(&t0);
        let y = gen.add_fresh(vocab.label("tier1"), "y");
        gen.add_edge(VarId::new(0), vocab.label("next"), y);
        gen.push_attr(Literal::eq_const(y, a1, 1i64));
        let ggd = Dependency::new("grow", t0, vec![], Consequence::Generate(gen));
        let t1 = unary(vocab, "tier1");
        let lit = Dependency::from_gfd(Gfd::new(
            "mark",
            t1,
            vec![Literal::eq_const(VarId::new(0), a1, 1i64)],
            vec![Literal::eq_const(VarId::new(0), b, 7i64)],
        ));
        DepSet::from_vec(vec![ggd, lit])
    }

    #[test]
    fn literal_only_sets_route_to_the_driver() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let x = VarId::new(0);
        let mk = |vocab: &mut Vocab, v: i64| {
            Gfd::new(
                "g",
                unary(vocab, "t"),
                vec![],
                vec![Literal::eq_const(x, a, v)],
            )
        };
        let unsat = GfdSet::from_vec(vec![mk(&mut vocab, 0), mk(&mut vocab, 1)]);
        let deps = DepSet::from_gfds(unsat.clone());
        let r = dep_sat(&deps);
        assert!(!r.is_satisfiable());
        assert!(!seq_sat(&unsat).is_satisfiable());
        assert_eq!(r.stats.rounds, 0, "fast path must not chase");

        let sat = GfdSet::from_vec(vec![mk(&mut vocab, 0)]);
        let deps = DepSet::from_gfds(sat.clone());
        let r = dep_sat(&deps);
        assert!(r.is_satisfiable());
        let phi = sat.as_slice()[0].clone();
        let ri = dep_imp(&deps, &Dependency::from_gfd(phi.clone()));
        assert_eq!(ri.is_implied(), seq_imp(&sat, &phi).is_implied());
    }

    #[test]
    fn literal_only_route_forwards_tracing() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let rule = Gfd::new(
            "g",
            unary(&mut vocab, "t"),
            vec![],
            vec![Literal::eq_const(VarId::new(0), a, 0i64)],
        );
        let deps = DepSet::from_gfds(GfdSet::from_vec(vec![rule.clone()]));
        let cfg = ChaseConfig {
            trace: gfd_runtime::TraceSpec::enabled(),
            ..ChaseConfig::with_workers(2)
        };
        let r = dep_sat_with_config(&deps, &cfg);
        assert!(r.is_satisfiable());
        assert!(!r.metrics.trace.events.is_empty(), "sat trace dropped");
        let r = dep_imp_with_config(&deps, &Dependency::from_gfd(rule), &cfg);
        assert!(r.is_implied());
        assert!(!r.metrics.trace.events.is_empty(), "imp trace dropped");
    }

    #[test]
    fn generating_chase_grows_and_derives() {
        let mut vocab = Vocab::new();
        let deps = chain_deps(&mut vocab);
        let r = dep_sat(&deps);
        assert!(r.is_satisfiable(), "chain workload must be satisfiable");
        assert!(r.stats.generated_nodes >= 1, "{:?}", r.stats);
        let model = r.model().unwrap();
        // One tier0 premise copy + one tier1 premise copy + the generated
        // tier1 child.
        assert_eq!(model.node_count(), 3);
        assert!(model.edge_count() >= 1);
        // The generated child got a1 = 1, which fired the literal rule to
        // b = 7 on it — visible in the extracted model.
        let a1 = vocab.attr("a1");
        let b = vocab.attr("b");
        let derived = model.nodes().any(|n| {
            model.attr(n, a1) == Some(ValueId::of(1i64))
                && model.attr(n, b) == Some(ValueId::of(7i64))
        });
        assert!(derived, "generated node must cascade into literal rules");
    }

    /// The chase books the matches it enumerates into the run report,
    /// on the mixed route and on the literal baseline alike.
    #[test]
    fn chase_reports_the_matches_it_enumerates() {
        let mut vocab = Vocab::new();
        let mixed = dep_sat_with_config(&chain_deps(&mut vocab), &ChaseConfig::default());
        let a = vocab.attr("a");
        let literal = DepSet::from_gfds(GfdSet::from_vec(vec![Gfd::new(
            "g",
            unary(&mut vocab, "t"),
            vec![],
            vec![Literal::eq_const(VarId::new(0), a, 0i64)],
        )]));
        let baseline = crate::sat_chase::chase_sat(&literal);
        for r in [&mixed, &baseline] {
            assert!(r.stats.matches_enumerated > 0, "{:?}", r.stats);
            assert_eq!(r.metrics.matches, r.stats.matches_enumerated);
        }
    }

    #[test]
    fn generated_attr_conflicts_make_unsat() {
        let mut vocab = Vocab::new();
        let mut deps = chain_deps(&mut vocab);
        let a1 = vocab.attr("a1");
        deps.push(Dependency::from_gfd(Gfd::new(
            "deny",
            unary(&mut vocab, "tier1"),
            vec![],
            vec![Literal::eq_const(VarId::new(0), a1, -1i64)],
        )));
        let r = dep_sat(&deps);
        assert!(
            matches!(r.outcome, DepSatOutcome::Unsatisfiable(_)),
            "generated a1=1 must clash with the denial's a1=-1"
        );
    }

    #[test]
    fn runaway_generation_hits_the_budget() {
        let mut vocab = Vocab::new();
        // person → CREATE person: no finite fixpoint.
        let p = unary(&mut vocab, "person");
        let mut gen = GenerateConsequence::over(&p);
        let y = gen.add_fresh(vocab.label("person"), "y");
        gen.add_edge(VarId::new(0), vocab.label("parentOf"), y);
        let deps = DepSet::from_vec(vec![Dependency::new(
            "spawn",
            p,
            vec![],
            Consequence::Generate(gen),
        )]);
        let cfg = ChaseConfig {
            max_generated_nodes: 50,
            ..ChaseConfig::default()
        };
        let r = dep_sat_with_config(&deps, &cfg);
        assert!(r.is_unknown(), "must give up, not loop");
        assert!(matches!(
            r.outcome,
            DepSatOutcome::Unknown { generated_nodes } if generated_nodes > 50
        ));
    }

    #[test]
    fn ggd_implication_by_literal_sigma_uses_the_driver() {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let e = vocab.label("e");
        let a = vocab.attr("a");
        // ϕ: pattern x -e-> y, CREATE nothing structural but require
        // y.a = 1 as a generated assignment. Σ: ∅ → y.a = 1 over the same
        // shape.
        let mut p = Pattern::new();
        let x = p.add_node(t, "x");
        let y = p.add_node(t, "y");
        p.add_edge(x, e, y);
        let mut gen = GenerateConsequence::over(&p);
        gen.push_attr(Literal::eq_const(y, a, 1i64));
        let phi = Dependency::new("target", p.clone(), vec![], Consequence::Generate(gen));
        let sigma_rule = Gfd::new("seed", p, vec![], vec![Literal::eq_const(y, a, 1i64)]);
        let deps = DepSet::from_gfds(GfdSet::from_vec(vec![sigma_rule]));
        let r = dep_imp(&deps, &phi);
        assert!(r.is_implied(), "attr-only target forced by Σ");
        assert_eq!(r.stats.rounds, 0, "literal Σ must use the driver path");

        // Without Σ it is not implied.
        let r = dep_imp(&DepSet::new(), &phi);
        assert!(!r.is_implied());
    }

    #[test]
    fn ggd_implication_by_generating_sigma_uses_the_chase() {
        let mut vocab = Vocab::new();
        let deps = chain_deps(&mut vocab);
        // ϕ: every tier0 node has a generated tier1 child over `next`.
        let t0 = unary(&mut vocab, "tier0");
        let mut gen = GenerateConsequence::over(&t0);
        let y = gen.add_fresh(vocab.label("tier1"), "y");
        gen.add_edge(VarId::new(0), vocab.label("next"), y);
        let phi = Dependency::new("has_child", t0, vec![], Consequence::Generate(gen));
        let r = dep_imp(&deps, &phi);
        assert!(r.is_implied(), "the chain GGD creates exactly that child");
        assert!(r.stats.rounds > 0, "mixed Σ must chase");

        // A child over a different edge label is not implied.
        let t0 = unary(&mut vocab, "tier0");
        let mut gen = GenerateConsequence::over(&t0);
        let y = gen.add_fresh(vocab.label("tier1"), "y");
        gen.add_edge(VarId::new(0), vocab.label("unrelated"), y);
        let phi = Dependency::new("wrong_edge", t0, vec![], Consequence::Generate(gen));
        assert!(!dep_imp(&deps, &phi).is_implied());
    }

    #[test]
    fn chase_results_are_worker_invariant() {
        let mut vocab = Vocab::new();
        let deps = chain_deps(&mut vocab);
        let base = dep_sat(&deps);
        let base_model = base.model().unwrap();
        for p in [2usize, 8] {
            let cfg = ChaseConfig {
                workers: p,
                ttl: std::time::Duration::ZERO,
                batch: 1,
                ..ChaseConfig::default()
            };
            let r = dep_sat_with_config(&deps, &cfg);
            assert!(r.is_satisfiable(), "p={p}");
            let m = r.model().unwrap();
            assert_eq!(m.node_count(), base_model.node_count(), "p={p}");
            assert_eq!(m.edge_count(), base_model.edge_count(), "p={p}");
        }
    }
}
