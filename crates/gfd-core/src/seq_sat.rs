//! `SeqSat` — the sequential exact satisfiability algorithm (§IV-C).
//!
//! Built directly on the small model property (Theorem 1): construct the
//! canonical graph `GΣ`, enumerate homomorphic matches of every pattern,
//! enforce attribute dependencies into the equivalence relation, and report
//! *unsatisfiable* on the first conflict. If the fixpoint completes without
//! conflict, a concrete model (a Σ-bounded population of `GΣ`) is returned.
//!
//! Since the scheduler unification, `SeqSat` *is* the parallel driver
//! instantiated with one worker ([`crate::driver::run_reason`] with
//! `workers = 1`): same unit generation, same ordering, same enforcement
//! loop, run inline on the calling thread with broadcast a natural no-op.

use crate::budget::Interrupt;
use crate::canonical::CanonicalGraph;
use crate::driver::{run_reason, Goal, ReasonConfig, TerminalEvent};
use crate::eq::EqRel;
use crate::error::Conflict;
use crate::model::extract_model;
use crate::sigma::GfdSet;
use gfd_runtime::RunMetrics;

/// The outcome of satisfiability checking.
#[derive(Clone, Debug)]
pub enum SatOutcome {
    /// Σ has a model; the witness is a Σ-bounded population of `GΣ`.
    Satisfiable(Box<gfd_graph::Graph>),
    /// Enforcing Σ on `GΣ` forces two distinct constants onto one
    /// attribute class.
    Unsatisfiable(Conflict),
    /// The run was cut short — deadline, unit budget, or a panic abort —
    /// before the fixpoint: no definite answer. Never produced with an
    /// unlimited [`crate::Budget`] and no faults.
    Unknown(Interrupt),
}

/// Result + statistics.
#[derive(Clone, Debug)]
pub struct SatResult {
    /// Satisfiable (with model) or the witnessing conflict.
    pub outcome: SatOutcome,
    /// Counters.
    pub stats: RunMetrics,
}

impl SatResult {
    /// True iff Σ was found satisfiable.
    pub fn is_satisfiable(&self) -> bool {
        matches!(self.outcome, SatOutcome::Satisfiable(_))
    }

    /// True iff the run degraded without a definite answer.
    pub fn is_unknown(&self) -> bool {
        matches!(self.outcome, SatOutcome::Unknown(_))
    }

    /// The interrupt that degraded the run, if any.
    pub fn interrupt(&self) -> Option<&Interrupt> {
        match &self.outcome {
            SatOutcome::Unknown(i) => Some(i),
            _ => None,
        }
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&gfd_graph::Graph> {
        match &self.outcome {
            SatOutcome::Satisfiable(m) => Some(m),
            _ => None,
        }
    }
}

/// Check satisfiability of Σ sequentially: [`sat_with_config`] with one
/// worker and no straggler splitting.
pub fn seq_sat(sigma: &GfdSet) -> SatResult {
    sat_with_config(sigma, &ReasonConfig::sequential())
}

/// Check satisfiability of Σ under a full driver configuration: `SeqSat`
/// at `cfg.workers == 1`, `ParSat` above it.
pub fn sat_with_config(sigma: &GfdSet, cfg: &ReasonConfig) -> SatResult {
    if sigma.is_empty() {
        // Vacuously satisfiable; the empty population works.
        return SatResult {
            outcome: SatOutcome::Satisfiable(Box::new(gfd_graph::Graph::new())),
            stats: RunMetrics {
                workers: cfg.workers.max(1),
                ..Default::default()
            },
        };
    }

    let (canon, _node_of) = CanonicalGraph::for_sigma(sigma);
    let run = run_reason(sigma, Goal::Sat, EqRel::new(), &canon, cfg);
    let outcome = match run.terminal {
        Some(TerminalEvent::Conflict(c)) => SatOutcome::Unsatisfiable(c),
        Some(TerminalEvent::Consequence) => {
            unreachable!("consequence events are implication-only")
        }
        None => match Interrupt::from_outcome(&run.sched_outcome) {
            // Degraded run, no conflict found: the answer is unknown —
            // claiming UNSAT here would turn a timeout into a wrong
            // definite verdict.
            Some(interrupt) => SatOutcome::Unknown(interrupt),
            None => {
                let mut engine = run.engine.expect("quiescent run produces merged state");
                SatOutcome::Satisfiable(Box::new(extract_model(&canon.graph, &mut engine.eq)))
            }
        },
    };
    SatResult {
        outcome,
        stats: run.metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gfd::Gfd;
    use crate::literal::Literal;
    use crate::validate::graph_satisfies_all;
    use gfd_graph::{LabelId, Pattern, VarId, Vocab};

    fn unary_pattern(vocab: &mut Vocab, label: &str) -> Pattern {
        let mut p = Pattern::new();
        p.add_node(vocab.label(label), "x");
        p
    }

    /// The paper's Example 2, first half: ϕ5 = Q5[x](∅ → x.A = 0) and
    /// ϕ6 = Q5[x](∅ → x.A = 1) with Q5 a single wildcard node.
    #[test]
    fn example2_wildcard_conflict_is_unsat() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let mut q5a = Pattern::new();
        q5a.add_node(LabelId::WILDCARD, "x");
        let mut q5b = Pattern::new();
        q5b.add_node(LabelId::WILDCARD, "x");
        let sigma = GfdSet::from_vec(vec![
            Gfd::new(
                "phi5",
                q5a,
                vec![],
                vec![Literal::eq_const(VarId::new(0), a, 0i64)],
            ),
            Gfd::new(
                "phi6",
                q5b,
                vec![],
                vec![Literal::eq_const(VarId::new(0), a, 1i64)],
            ),
        ]);
        let r = seq_sat(&sigma);
        assert!(!r.is_satisfiable());
    }

    /// The paper's Example 2, second half: ϕ7 and ϕ8 interact through
    /// distinct patterns Q6, Q7 and are jointly unsatisfiable.
    ///
    /// Q6: x -p-> y(b), x -p-> z(b), x -p-> w(c)   (y,z labelled b; w c)
    /// Q7: x -p-> y(b), x -p-> z(c), x -p-> w(c)
    /// ϕ7 = Q6(∅ → x.A = 0 ∧ y.B = 1); ϕ8 = Q7(y.B = 1 → x.A = 1).
    fn q6(vocab: &mut Vocab) -> Pattern {
        let a = vocab.label("a");
        let b = vocab.label("b");
        let c = vocab.label("c");
        let p_lbl = vocab.label("p");
        let mut q = Pattern::new();
        let x = q.add_node(a, "x");
        let y = q.add_node(b, "y");
        let z = q.add_node(b, "z");
        let w = q.add_node(c, "w");
        q.add_edge(x, p_lbl, y);
        q.add_edge(x, p_lbl, z);
        q.add_edge(x, p_lbl, w);
        q
    }

    fn q7(vocab: &mut Vocab) -> Pattern {
        let a = vocab.label("a");
        let b = vocab.label("b");
        let c = vocab.label("c");
        let p_lbl = vocab.label("p");
        let mut q = Pattern::new();
        let x = q.add_node(a, "x");
        let y = q.add_node(b, "y");
        let z = q.add_node(c, "z");
        let w = q.add_node(c, "w");
        q.add_edge(x, p_lbl, y);
        q.add_edge(x, p_lbl, z);
        q.add_edge(x, p_lbl, w);
        q
    }

    #[test]
    fn example2_cross_pattern_interaction_is_unsat() {
        let mut vocab = Vocab::new();
        let attr_a = vocab.attr("A");
        let attr_b = vocab.attr("B");
        let phi7 = Gfd::new(
            "phi7",
            q6(&mut vocab),
            vec![],
            vec![
                Literal::eq_const(VarId::new(0), attr_a, 0i64),
                Literal::eq_const(VarId::new(1), attr_b, 1i64),
            ],
        );
        let phi8 = Gfd::new(
            "phi8",
            q7(&mut vocab),
            vec![Literal::eq_const(VarId::new(1), attr_b, 1i64)],
            vec![Literal::eq_const(VarId::new(0), attr_a, 1i64)],
        );
        // Each alone is satisfiable.
        let alone7 = seq_sat(&GfdSet::from_vec(vec![phi7.clone()]));
        assert!(alone7.is_satisfiable());
        let alone8 = seq_sat(&GfdSet::from_vec(vec![phi8.clone()]));
        assert!(alone8.is_satisfiable());
        // Together they are not: Q7 matches into Q6's canonical copy
        // (z,w ↦ the c node), forcing x.A to both 0 and 1.
        let both = seq_sat(&GfdSet::from_vec(vec![phi7, phi8]));
        assert!(!both.is_satisfiable());
    }

    /// The paper's Example 4: Σ = {ϕ7, ϕ9, ϕ10} is unsatisfiable through a
    /// pending-recheck chain (the inverted-index mechanism).
    #[test]
    fn example4_inverted_index_chain_is_unsat() {
        let mut vocab = Vocab::new();
        let attr_a = vocab.attr("A");
        let attr_b = vocab.attr("B");
        let attr_c = vocab.attr("C");
        let phi7 = Gfd::new(
            "phi7",
            q6(&mut vocab),
            vec![],
            vec![
                Literal::eq_const(VarId::new(0), attr_a, 0i64),
                Literal::eq_const(VarId::new(1), attr_b, 1i64),
            ],
        );
        let phi9 = Gfd::new(
            "phi9",
            q6(&mut vocab),
            vec![Literal::eq_const(VarId::new(1), attr_b, 1i64)],
            vec![Literal::eq_const(VarId::new(3), attr_c, 1i64)],
        );
        let phi10 = Gfd::new(
            "phi10",
            q7(&mut vocab),
            vec![Literal::eq_const(VarId::new(3), attr_c, 1i64)],
            vec![Literal::eq_const(VarId::new(0), attr_a, 1i64)],
        );
        let sigma = GfdSet::from_vec(vec![phi7, phi9, phi10]);
        let r = seq_sat(&sigma);
        assert!(!r.is_satisfiable());
        // Regardless of ordering options (Church–Rosser).
        for prune_components in [true, false] {
            let cfg = ReasonConfig {
                use_dependency_order: false,
                prune_components,
                ..ReasonConfig::sequential()
            };
            assert!(!sat_with_config(&sigma, &cfg).is_satisfiable());
        }
    }

    #[test]
    fn satisfiable_set_produces_a_valid_model() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let x = VarId::new(0);
        let g0 = Gfd::new(
            "g0",
            unary_pattern(&mut vocab, "t"),
            vec![],
            vec![Literal::eq_const(x, a, 1i64)],
        );
        let g1 = Gfd::new(
            "g1",
            unary_pattern(&mut vocab, "t"),
            vec![Literal::eq_const(x, a, 1i64)],
            vec![Literal::eq_attr(x, a, x, b)],
        );
        let sigma = GfdSet::from_vec(vec![g0, g1]);
        let r = seq_sat(&sigma);
        assert!(r.is_satisfiable());
        let model = r.model().unwrap();
        // The model must satisfy every GFD in Σ and host a match of each.
        assert!(graph_satisfies_all(model, &sigma));
        assert!(model.node_count() >= 2);
        assert!(
            r.stats.matches >= 4,
            "t-nodes cross-match: 2 gfds × 2 nodes"
        );
    }

    #[test]
    fn denial_with_empty_premise_is_unsat() {
        let mut vocab = Vocab::new();
        let p = unary_pattern(&mut vocab, "t");
        let phi = Gfd::with_false_consequence("deny", p, vec![], &mut vocab);
        let r = seq_sat(&GfdSet::from_vec(vec![phi]));
        assert!(!r.is_satisfiable());
    }

    #[test]
    fn conditional_denial_is_satisfiable() {
        // "no t-node has a = 1" is satisfiable: a model binds a ≠ 1 (or
        // leaves it free).
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let p = unary_pattern(&mut vocab, "t");
        let phi = Gfd::with_false_consequence(
            "deny_a1",
            p,
            vec![Literal::eq_const(VarId::new(0), a, 1i64)],
            &mut vocab,
        );
        let r = seq_sat(&GfdSet::from_vec(vec![phi]));
        assert!(r.is_satisfiable());
        assert!(graph_satisfies_all(
            r.model().unwrap(),
            &GfdSet::from_vec(vec![])
        ));
    }

    #[test]
    fn empty_sigma_is_satisfiable() {
        let r = seq_sat(&GfdSet::new());
        assert!(r.is_satisfiable());
    }

    #[test]
    fn empty_sigma_is_satisfiable_across_worker_counts() {
        for p in [1, 2] {
            let r = sat_with_config(&GfdSet::new(), &ReasonConfig::with_workers(p));
            assert!(r.is_satisfiable(), "p={p}");
        }
    }

    fn wildcard_unary(name: &str, lits: Vec<Literal>, premise: Vec<Literal>) -> Gfd {
        let mut p = Pattern::new();
        p.add_node(LabelId::WILDCARD, "x");
        Gfd::new(name, p, premise, lits)
    }

    #[test]
    fn agrees_with_seq_sat_on_unsat_wildcard_conflict() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let x = VarId::new(0);
        let sigma = GfdSet::from_vec(vec![
            wildcard_unary("phi5", vec![Literal::eq_const(x, a, 0i64)], vec![]),
            wildcard_unary("phi6", vec![Literal::eq_const(x, a, 1i64)], vec![]),
        ]);
        assert!(!seq_sat(&sigma).is_satisfiable());
        for p in [1, 2, 4] {
            let r = sat_with_config(&sigma, &ReasonConfig::with_workers(p));
            assert!(!r.is_satisfiable(), "p={p}");
            assert!(r.stats.early_terminated);
        }
    }

    #[test]
    fn agrees_with_seq_sat_on_satisfiable_set() {
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let e = vocab.label("e");
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let mut gfds = Vec::new();
        for i in 0..6 {
            let mut p = Pattern::new();
            let x = p.add_node(t, "x");
            let y = p.add_node(t, "y");
            p.add_edge(x, e, y);
            gfds.push(Gfd::new(
                format!("g{i}"),
                p,
                if i % 2 == 0 {
                    vec![]
                } else {
                    vec![Literal::eq_const(x, a, 1i64)]
                },
                vec![Literal::eq_const(x, a, 1i64), Literal::eq_attr(x, b, y, b)],
            ));
        }
        let sigma = GfdSet::from_vec(gfds);
        assert!(seq_sat(&sigma).is_satisfiable());
        for p in [1, 2, 4, 8] {
            let r = sat_with_config(&sigma, &ReasonConfig::with_workers(p));
            let model = r
                .model()
                .unwrap_or_else(|| panic!("p={p}: {:?}", r.outcome));
            assert!(graph_satisfies_all(model, &sigma), "p={p}");
        }
    }

    #[test]
    fn variants_agree() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let b = vocab.attr("B");
        let x = VarId::new(0);
        // Chain: seed a=1; a=1 → b=1; b=1 ∧ a=1 → conflict on a.
        let sigma = GfdSet::from_vec(vec![
            wildcard_unary("seed", vec![Literal::eq_const(x, a, 1i64)], vec![]),
            wildcard_unary(
                "prop",
                vec![Literal::eq_const(x, b, 1i64)],
                vec![Literal::eq_const(x, a, 1i64)],
            ),
            wildcard_unary(
                "deny",
                vec![Literal::eq_const(x, a, 2i64)],
                vec![Literal::eq_const(x, b, 1i64)],
            ),
        ]);
        let expect = seq_sat(&sigma).is_satisfiable();
        let base = ReasonConfig::with_workers(3);
        for cfg in [
            base.clone(),
            base.clone().without_pipeline(),
            base.clone().without_split(),
            ReasonConfig {
                use_dependency_order: false,
                ..base.clone()
            },
            base.with_dispatch(gfd_runtime::DispatchMode::Coordinator),
        ] {
            assert_eq!(
                sat_with_config(&sigma, &cfg).is_satisfiable(),
                expect,
                "{cfg:?}"
            );
        }
    }
}
