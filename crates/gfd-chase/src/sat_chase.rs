//! Chase-based satisfiability: the paper's chase baseline for Sat and
//! the chase arm of [`crate::ggd::dep_sat_with_config`].
//!
//! The paper notes (§VII) that "implementations of the chase are much
//! slower than SeqSat" — on a literal Σ this is that comparator: chase Σ
//! over `GΣ` to fixpoint and report conflicts, without early termination
//! inside a round, ordering, or pending indexes. A Σ with generating
//! rules materializes their targets under the fresh-node budget.

use crate::chase::{dep_chase_with_config, ChaseConfig, DepChaseOutcome};
use crate::ggd::{DepSatOutcome, DepSatResult};
use gfd_core::{extract_model, DepSet, EqRel};
use gfd_graph::Graph;
use std::time::Instant;

/// Check the satisfiability of Σ by chasing `GΣ` to fixpoint with the
/// default (sequential) configuration.
pub fn chase_sat(deps: &DepSet) -> DepSatResult {
    chase_sat_with_config(deps, &ChaseConfig::default())
}

/// Check the satisfiability of Σ by chasing `GΣ` to fixpoint, the
/// per-round premise scan running on the shared scheduler.
pub fn chase_sat_with_config(deps: &DepSet, config: &ChaseConfig) -> DepSatResult {
    let start = Instant::now();
    // GΣ: the disjoint union of every premise pattern — generating rules
    // contribute their premise side only; their targets are materialized
    // by the chase itself.
    let mut graph = Graph::new();
    for (_, dep) in deps.iter() {
        graph.append_disjoint(&dep.pattern.to_graph());
    }
    let (outcome, stats, mut metrics) = dep_chase_with_config(deps, graph, EqRel::new(), config);
    let outcome = match outcome {
        DepChaseOutcome::Fixpoint { graph, mut eq } => {
            DepSatOutcome::Satisfiable(Box::new(extract_model(&graph, &mut eq)))
        }
        DepChaseOutcome::Conflict(c) => DepSatOutcome::Unsatisfiable(c),
        DepChaseOutcome::BudgetExhausted { generated_nodes } => {
            DepSatOutcome::Unknown { generated_nodes }
        }
        DepChaseOutcome::Interrupted(i) => DepSatOutcome::Interrupted(i),
    };
    metrics.elapsed = start.elapsed();
    DepSatResult {
        outcome,
        stats,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::{graph_satisfies_all, seq_sat, Gfd, GfdSet, Literal};
    use gfd_graph::{LabelId, Pattern, VarId, Vocab};

    #[test]
    fn agrees_with_seq_sat() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("A");
        let x = VarId::new(0);
        let mk = |lits: Vec<Literal>| {
            let mut p = Pattern::new();
            p.add_node(LabelId::WILDCARD, "x");
            Gfd::new("g", p, vec![], lits)
        };
        // Unsatisfiable pair.
        let unsat = GfdSet::from_vec(vec![
            mk(vec![Literal::eq_const(x, a, 0i64)]),
            mk(vec![Literal::eq_const(x, a, 1i64)]),
        ]);
        assert!(!chase_sat(&DepSet::from_gfds(unsat.clone())).is_satisfiable());
        assert!(!seq_sat(&unsat).is_satisfiable());
        // Satisfiable singleton, with a model that validates.
        let sat = GfdSet::from_vec(vec![mk(vec![Literal::eq_const(x, a, 0i64)])]);
        let r = chase_sat(&DepSet::from_gfds(sat.clone()));
        assert!(r.is_satisfiable());
        match &r.outcome {
            DepSatOutcome::Satisfiable(m) => assert!(graph_satisfies_all(m, &sat)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn empty_sigma() {
        assert!(chase_sat(&DepSet::new()).is_satisfiable());
    }
}
