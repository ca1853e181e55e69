//! The small model properties (Theorems 1 and 3) hold of what the
//! implementation actually builds: models are Σ-bounded populations of
//! the canonical graph, and implication verdicts come from (Σ,ϕ)-bounded
//! partial enforcements.

use gfd::core::CanonicalGraph;
use gfd::prelude::*;

fn workload(seed: u64) -> gfd::gen::Workload {
    gfd::gen::synthetic_workload(30, 5, 3, seed)
}

#[test]
fn models_are_populations_of_the_canonical_graph() {
    for seed in 0..3 {
        let w = workload(seed);
        let (canon, _) = CanonicalGraph::for_sigma(&w.sigma);
        let r = gfd::seq_sat(&w.sigma);
        let model = r.model().expect("satisfiable by construction");
        // Same topology: the population only adds attributes (Theorem 1).
        assert_eq!(model.node_count(), canon.graph.node_count());
        assert_eq!(model.edge_count(), canon.graph.edge_count());
        for v in canon.graph.nodes() {
            assert_eq!(model.label(v), canon.graph.label(v));
        }
    }
}

#[test]
fn models_are_sigma_bounded() {
    for seed in 0..3 {
        let w = workload(seed);
        let r = gfd::seq_sat(&w.sigma);
        let model = r.model().unwrap();
        let sigma_size = w.sigma.total_size();
        // |G| = nodes + edges + attributes is in O(|Σ|); the canonical
        // graph is the union of the patterns and every attribute entry is
        // forced by some literal occurrence, so a factor-2 bound is a safe
        // concrete witness of the O(|Σ|) property.
        assert!(
            model.size() <= 2 * sigma_size,
            "model size {} exceeds 2·|Σ| = {}",
            model.size(),
            2 * sigma_size
        );
    }
}

#[test]
fn model_attribute_values_are_sigma_constants_or_fresh() {
    use gfd::core::Operand;
    for seed in 0..3 {
        let w = workload(seed);
        let r = gfd::seq_sat(&w.sigma);
        let model = r.model().unwrap();
        // Collect the constants appearing in Σ.
        let mut constants: Vec<ValueId> = Vec::new();
        for (_, g) in w.sigma.iter() {
            for lit in g.premise.iter().chain(&g.consequence) {
                if let Operand::Const(c) = &lit.rhs {
                    constants.push(*c);
                }
            }
        }
        for v in model.nodes() {
            for (_, value) in model.attrs(v) {
                assert!(
                    gfd::core::model::is_fresh_id(*value) || constants.contains(value),
                    "model value {value:?} is neither a Σ constant nor fresh"
                );
            }
        }
    }
}

#[test]
fn unsat_witness_names_a_real_conflict() {
    let mut vocab = Vocab::new();
    let sigma = gfd::dsl::parse_document(
        "gfd a { pattern { node x: t } then { x.v = 1 } }
         gfd b { pattern { node x: t } then { x.v = 2 } }",
        &mut vocab,
    )
    .unwrap()
    .gfds;
    let r = gfd::seq_sat(&sigma);
    match &r.outcome {
        SatOutcome::Unsatisfiable(conflict) => {
            assert_ne!(conflict.existing, conflict.incoming);
            assert!(conflict.gfd.is_some());
        }
        other => panic!("must be unsatisfiable, got {other:?}"),
    }
}

#[test]
fn implication_canonical_graph_is_phi_sized() {
    let mut vocab = Vocab::new();
    let phi = gfd::dsl::parse_gfd(
        "gfd phi { pattern { node x: t  node y: t  edge x -e-> y } when { x.a = 1 } then { y.a = 1 } }",
        &mut vocab,
    )
    .unwrap();
    let (canon, mut eqx) = CanonicalGraph::for_phi(&phi).unwrap();
    assert_eq!(canon.graph.node_count(), phi.pattern.node_count());
    assert_eq!(canon.graph.edge_count(), phi.pattern.edge_count());
    // EqX holds exactly the premise keys.
    assert_eq!(eqx.key_count(), 1);
    assert!(eqx.deduces_const(
        (NodeId::new(0), vocab.find_attr("a").unwrap()),
        ValueId::of(1i64)
    ));
}

#[test]
fn enforcement_length_is_bounded() {
    // Corollary to the proof of Theorem 3: |EqH| ≤ |Q|·|Σ| keys. Verify
    // on generated workloads by running SeqImp and inspecting the stats.
    for seed in 0..3 {
        let w = workload(seed);
        for probe in &w.probes {
            let r = gfd::seq_imp(&w.sigma, &probe.phi);
            // The pending index can hold at most one entry per processed
            // match; rechecks are bounded by pending × keys. These are
            // loose sanity bounds that would catch runaway fixpoints.
            assert!(r.stats.pending <= r.stats.matches);
            let bound = (r.stats.matches + 1) * (w.sigma.total_size() as u64 + 1);
            assert!(r.stats.rechecks <= bound);
        }
    }
}
