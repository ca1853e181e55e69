//! `ChaseImp` — the chase-based implication baseline (the paper's
//! `ParImpRDF`, following Hellings et al. \[5\] with triple patterns
//! represented as graphs), and the chase arm of
//! [`crate::ggd::dep_imp_with_config`].

use crate::chase::{chase_frozen, ChaseConfig, ChaseStats, DepChaseOutcome};
use crate::ggd::{DepImpOutcome, DepImpResult};
use gfd_core::{
    consequence_lits_deducible, generate_deducible, CanonicalGraph, Consequence, DepSet,
    Dependency, EqRel, ImpliedVia,
};
use gfd_graph::{LabelIndex, MatchIndex, NodeId};
use gfd_runtime::RunMetrics;
use std::time::Instant;

/// Check `Σ |= ϕ` by chasing Σ over `G^X_Q` to fixpoint, then testing the
/// consequence. No dependency ordering, no inverted index, no intra-round
/// early exit — the baseline `SeqImp` beats by ~1.4× in Fig. 5.
pub fn chase_imp(deps: &DepSet, phi: &Dependency) -> DepImpResult {
    chase_imp_with_config(deps, phi, &ChaseConfig::default())
}

/// [`chase_imp`] with the per-round premise scan dispatched on the
/// shared scheduler. ϕ's consequence — literal deducibility or
/// generating-target realization — is tested on the chased result.
pub fn chase_imp_with_config(
    deps: &DepSet,
    phi: &Dependency,
    config: &ChaseConfig,
) -> DepImpResult {
    let start = Instant::now();
    let zero = |outcome: DepImpOutcome| DepImpResult {
        outcome,
        stats: ChaseStats::default(),
        metrics: RunMetrics {
            workers: config.workers.max(1),
            elapsed: start.elapsed(),
            ..Default::default()
        },
    };
    // Trivial short-circuits mirror `imp_shortcuts`.
    if matches!(&phi.consequence, Consequence::Literals(lits) if lits.is_empty()) {
        return zero(DepImpOutcome::Implied(ImpliedVia::Consequence));
    }
    let (canon, eqx) = match CanonicalGraph::for_premise(&phi.pattern, &phi.premise) {
        Ok(pair) => pair,
        Err(_) => return zero(DepImpOutcome::Implied(ImpliedVia::PremiseInconsistent)),
    };
    let identity: Vec<NodeId> = (0..phi.pattern.node_count()).map(NodeId::new).collect();
    if consequence_holds_on(&mut eqx.clone(), &canon.index, phi, &identity) {
        return zero(DepImpOutcome::Implied(ImpliedVia::Consequence));
    }

    let (outcome, stats, mut metrics) = chase_frozen(deps, canon, eqx, config);
    let outcome = match outcome {
        DepChaseOutcome::Conflict(c) => DepImpOutcome::Implied(ImpliedVia::Conflict(c)),
        DepChaseOutcome::BudgetExhausted { generated_nodes } => {
            DepImpOutcome::Unknown { generated_nodes }
        }
        DepChaseOutcome::Interrupted(i) => DepImpOutcome::Interrupted(i),
        DepChaseOutcome::Fixpoint { graph, mut eq } => {
            let index = LabelIndex::build(&graph);
            if consequence_holds_on(&mut eq, &index, phi, &identity) {
                DepImpOutcome::Implied(ImpliedVia::Consequence)
            } else {
                DepImpOutcome::NotImplied
            }
        }
    };
    metrics.elapsed = start.elapsed();
    DepImpResult {
        outcome,
        stats,
        metrics,
    }
}

/// Does ϕ's consequence hold at the identity match under `eq` over the
/// indexed graph — literal deducibility or generating-target
/// realization?
fn consequence_holds_on<I: MatchIndex>(
    eq: &mut EqRel,
    index: &I,
    phi: &Dependency,
    identity: &[NodeId],
) -> bool {
    match &phi.consequence {
        Consequence::Literals(lits) => consequence_lits_deducible(eq, lits),
        Consequence::Generate(gen) => generate_deducible(eq, index, gen, identity),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::{seq_imp, Gfd, GfdSet, Literal};
    use gfd_graph::{Pattern, VarId, Vocab};

    fn chase(sigma: &GfdSet, phi: &Gfd) -> DepImpResult {
        chase_imp(
            &DepSet::from_gfds(sigma.clone()),
            &Dependency::from_gfd(phi.clone()),
        )
    }

    /// The Example 8 fixture once more: the chase must agree with SeqImp.
    fn example8() -> (GfdSet, Gfd, Gfd) {
        let mut vocab = Vocab::new();
        let a_lbl = vocab.label("a");
        let b_lbl = vocab.label("b");
        let c_lbl = vocab.label("c");
        let p_lbl = vocab.label("p");
        let attr_a = vocab.attr("A");
        let attr_b = vocab.attr("B");
        let attr_c = vocab.attr("C");

        let mut q8 = Pattern::new();
        let x8 = q8.add_node(a_lbl, "x");
        let y8 = q8.add_node(b_lbl, "y");
        q8.add_edge(x8, p_lbl, y8);
        let mut q9 = Pattern::new();
        let x9 = q9.add_node(a_lbl, "x");
        let y9 = q9.add_node(c_lbl, "y");
        q9.add_edge(x9, p_lbl, y9);
        let mut q7 = Pattern::new();
        let x7 = q7.add_node(a_lbl, "x");
        let y7 = q7.add_node(b_lbl, "y");
        let z7 = q7.add_node(c_lbl, "z");
        let w7 = q7.add_node(c_lbl, "w");
        q7.add_edge(x7, p_lbl, y7);
        q7.add_edge(x7, p_lbl, z7);
        q7.add_edge(x7, p_lbl, w7);

        let phi11 = Gfd::new(
            "phi11",
            q8,
            vec![],
            vec![Literal::eq_const(x8, attr_a, 1i64)],
        );
        let phi12 = Gfd::new(
            "phi12",
            q9,
            vec![
                Literal::eq_const(x9, attr_a, 1i64),
                Literal::eq_const(y9, attr_b, 2i64),
            ],
            vec![Literal::eq_const(y9, attr_c, 2i64)],
        );
        let phi13 = Gfd::new(
            "phi13",
            q7.clone(),
            vec![Literal::eq_const(VarId::new(2), attr_b, 2i64)],
            vec![Literal::eq_const(VarId::new(2), attr_c, 2i64)],
        );
        let phi14 = Gfd::new(
            "phi14",
            q7,
            vec![Literal::eq_const(VarId::new(0), attr_a, 0i64)],
            vec![Literal::eq_const(VarId::new(2), attr_c, 2i64)],
        );
        (GfdSet::from_vec(vec![phi11, phi12]), phi13, phi14)
    }

    #[test]
    fn agrees_with_seq_imp_on_example8() {
        let (sigma, phi13, phi14) = example8();
        assert_eq!(
            chase(&sigma, &phi13).is_implied(),
            seq_imp(&sigma, &phi13).is_implied()
        );
        assert_eq!(
            chase(&sigma, &phi14).is_implied(),
            seq_imp(&sigma, &phi14).is_implied()
        );
        assert!(chase(&sigma, &phi13).is_implied());
    }

    #[test]
    fn not_implied_cases_agree() {
        let (sigma, phi13, _) = example8();
        let smaller = GfdSet::from_vec(vec![sigma.as_slice()[0].clone()]);
        assert!(!chase(&smaller, &phi13).is_implied());
        assert!(!seq_imp(&smaller, &phi13).is_implied());
    }

    #[test]
    fn trivial_cases() {
        let (sigma, _, _) = example8();
        let mut vocab = Vocab::new();
        let mut q = Pattern::new();
        let x = q.add_node(vocab.label("a"), "x");
        let a = vocab.attr("A");
        let trivial = Gfd::new("t", q.clone(), vec![], vec![]);
        assert!(chase(&sigma, &trivial).is_implied());
        let inconsistent = Gfd::new(
            "i",
            q,
            vec![Literal::eq_const(x, a, 1i64), Literal::eq_const(x, a, 2i64)],
            vec![Literal::eq_const(x, a, 3i64)],
        );
        assert!(matches!(
            chase(&sigma, &inconsistent).outcome,
            DepImpOutcome::Implied(ImpliedVia::PremiseInconsistent)
        ));
    }
}
