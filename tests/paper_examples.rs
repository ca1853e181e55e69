//! End-to-end reproductions of every worked example in the paper, driven
//! through the public API and the text format.

use gfd::prelude::*;

/// Example 1 / Fig. 1 rules, written in the DSL.
fn example1_rules(vocab: &mut Vocab) -> GfdSet {
    gfd::dsl::parse_document(
        r#"
        gfd phi1 {
          pattern {
            node x: place
            node y: place
            edge x -locateIn-> y
            edge y -partOf-> x
          }
          then { false }
        }
        gfd phi2 {
          pattern {
            node x: _
            node y: speed
            node z: speed
            edge x -topSpeed-> y
            edge x -topSpeed-> z
          }
          then { y.val = z.val }
        }
        gfd phi3 {
          pattern {
            node x: person
            node y: person
            node z: country
            edge x -president-> z
            edge y -vicePresident-> z
          }
          when { x.c = y.c }
          then { x.nationality = y.nationality }
        }
        gfd phi4 {
          pattern {
            node x: person
            node y: person
            node z1: field
            node z2: field
            node w1: blog
            node w2: blog
            edge x -expertIn-> z1
            edge y -expertIn-> z2
            edge z1 -opposite-> z2
            edge x -post-> w1
            edge y -post-> w2
          }
          when { w1.topic = w2.topic }
          then { w2.trust = "low" }
        }
        "#,
        vocab,
    )
    .expect("Example 1 rules parse")
    .gfds
}

#[test]
fn example1_rules_detect_the_papers_errors() {
    let mut vocab = Vocab::new();
    let sigma = example1_rules(&mut vocab);
    assert_eq!(sigma.len(), 4);

    // DBpedia fragment with the Bamburi and tank errors.
    let doc = gfd::dsl::parse_document(
        r#"
        graph dbpedia {
          node airport: place
          node bamburi: place
          edge airport -locateIn-> bamburi
          edge bamburi -partOf-> airport
          node tank: device
          node s1: speed { val = "24.076" }
          node s2: speed { val = "33.336" }
          edge tank -topSpeed-> s1
          edge tank -topSpeed-> s2
        }
        "#,
        &mut vocab,
    )
    .unwrap();
    let g = &doc.graphs[0].1;
    let violations = gfd::find_violations(g, &sigma, 100);
    // phi1 once; phi2 twice (symmetric matches).
    assert_eq!(violations.len(), 3);
}

#[test]
fn example2_first_pair_unsatisfiable() {
    let mut vocab = Vocab::new();
    let sigma = gfd::dsl::parse_document(
        "gfd phi5 { pattern { node x: _ } then { x.A = 0 } }
         gfd phi6 { pattern { node x: _ } then { x.A = 1 } }",
        &mut vocab,
    )
    .unwrap()
    .gfds;
    assert!(!gfd::seq_sat(&sigma).is_satisfiable());
    assert!(!gfd::chase_sat(&DepSet::from_gfds(sigma.clone())).is_satisfiable());
    assert!(!gfd::sat_with_config(&sigma, &ReasonConfig::with_workers(2)).is_satisfiable());
}

const Q6_Q7_RULES: &str = r#"
# Q6: x(a) with p-children y(b), z(b), w(c); Q7: children y(b), z(c), w(c).
gfd phi7 {
  pattern {
    node x: a
    node y: b
    node z: b
    node w: c
    edge x -p-> y
    edge x -p-> z
    edge x -p-> w
  }
  then { x.A = 0, y.B = 1 }
}
gfd phi8 {
  pattern {
    node x: a
    node y: b
    node z: c
    node w: c
    edge x -p-> y
    edge x -p-> z
    edge x -p-> w
  }
  when { y.B = 1 }
  then { x.A = 1 }
}
"#;

#[test]
fn example2_distinct_pattern_interaction_unsatisfiable() {
    let mut vocab = Vocab::new();
    let sigma = gfd::dsl::parse_document(Q6_Q7_RULES, &mut vocab)
        .unwrap()
        .gfds;
    // Each alone has a model…
    for (_, g) in sigma.iter() {
        let single = GfdSet::from_vec(vec![g.clone()]);
        assert!(gfd::seq_sat(&single).is_satisfiable(), "{}", g.name);
    }
    // …but together they conflict (Q7 maps into Q6's canonical copy).
    assert!(!gfd::seq_sat(&sigma).is_satisfiable());
    assert!(!gfd::sat_with_config(&sigma, &ReasonConfig::with_workers(3)).is_satisfiable());
    assert!(!gfd::chase_sat(&DepSet::from_gfds(sigma.clone())).is_satisfiable());
}

#[test]
fn example4_pending_recheck_chain() {
    let mut vocab = Vocab::new();
    // Σ = {ϕ7, ϕ9, ϕ10} of Example 4.
    let sigma = gfd::dsl::parse_document(
        r#"
        gfd phi7 {
          pattern {
            node x: a
            node y: b
            node z: b
            node w: c
            edge x -p-> y
            edge x -p-> z
            edge x -p-> w
          }
          then { x.A = 0, y.B = 1 }
        }
        gfd phi9 {
          pattern {
            node x: a
            node y: b
            node z: b
            node w: c
            edge x -p-> y
            edge x -p-> z
            edge x -p-> w
          }
          when { y.B = 1 }
          then { w.C = 1 }
        }
        gfd phi10 {
          pattern {
            node x: a
            node y: b
            node z: c
            node w: c
            edge x -p-> y
            edge x -p-> z
            edge x -p-> w
          }
          when { w.C = 1 }
          then { x.A = 1 }
        }
        "#,
        &mut vocab,
    )
    .unwrap()
    .gfds;
    assert!(!gfd::seq_sat(&sigma).is_satisfiable());
    for p in [1, 2, 4] {
        assert!(
            !gfd::sat_with_config(&sigma, &ReasonConfig::with_workers(p)).is_satisfiable(),
            "p={p}"
        );
    }
    assert!(!gfd::chase_sat(&DepSet::from_gfds(sigma.clone())).is_satisfiable());
}

/// The Example 8 sources, shared by the implication tests.
const EXAMPLE8_SIGMA: &str = r#"
gfd phi11 {
  pattern { node x: a  node y: b  edge x -p-> y }
  then { x.A = 1 }
}
gfd phi12 {
  pattern { node x: a  node y: c  edge x -p-> y }
  when { x.A = 1, y.B = 2 }
  then { y.C = 2 }
}
"#;

const PHI13: &str = r#"
gfd phi13 {
  pattern {
    node x: a
    node y: b
    node z: c
    node w: c
    edge x -p-> y
    edge x -p-> z
    edge x -p-> w
  }
  when { z.B = 2 }
  then { z.C = 2 }
}
"#;

const PHI14: &str = r#"
gfd phi14 {
  pattern {
    node x: a
    node y: b
    node z: c
    node w: c
    edge x -p-> y
    edge x -p-> z
    edge x -p-> w
  }
  when { x.A = 0 }
  then { z.C = 2 }
}
"#;

#[test]
fn example8_implication_both_ways() {
    let mut vocab = Vocab::new();
    let sigma = gfd::dsl::parse_document(EXAMPLE8_SIGMA, &mut vocab)
        .unwrap()
        .gfds;
    let phi13 = gfd::dsl::parse_gfd(PHI13, &mut vocab).unwrap();
    let phi14 = gfd::dsl::parse_gfd(PHI14, &mut vocab).unwrap();

    // ϕ13: implied by deducing the consequence (Example 9's trace).
    let r = gfd::seq_imp(&sigma, &phi13);
    assert!(matches!(
        r.outcome,
        ImpOutcome::Implied(ImpliedVia::Consequence)
    ));
    // ϕ14: implied because Σ ∪ X is inconsistent.
    let r = gfd::seq_imp(&sigma, &phi14);
    assert!(matches!(
        r.outcome,
        ImpOutcome::Implied(ImpliedVia::Conflict(_))
    ));

    // Every algorithm agrees (Example 10 runs these on ParImp).
    for p in [1, 2, 4] {
        let cfg = ReasonConfig::with_workers(p);
        assert!(
            gfd::imp_with_config(&sigma, &phi13, &cfg).is_implied(),
            "p={p}"
        );
        assert!(
            gfd::imp_with_config(&sigma, &phi14, &cfg).is_implied(),
            "p={p}"
        );
    }
    assert!(gfd::chase_imp(
        &DepSet::from_gfds(sigma.clone()),
        &Dependency::from_gfd(phi13.clone())
    )
    .is_implied());
    assert!(gfd::chase_imp(
        &DepSet::from_gfds(sigma.clone()),
        &Dependency::from_gfd(phi14.clone())
    )
    .is_implied());

    // Neither rule alone implies ϕ13 (the interaction is essential).
    for i in 0..2 {
        let single = GfdSet::from_vec(vec![sigma.as_slice()[i].clone()]);
        assert!(!gfd::seq_imp(&single, &phi13).is_implied());
        assert!(!gfd::chase_imp(
            &DepSet::from_gfds(single.clone()),
            &Dependency::from_gfd(phi13.clone())
        )
        .is_implied());
    }
}

#[test]
fn satisfiable_sets_yield_verified_models() {
    // A satisfiable mined-style set: the returned model must satisfy Σ
    // and host a match of every pattern (the paper's model definition).
    let w = gfd::gen::real_life_workload(gfd::gen::Dataset::Yago2, 40, 3, None);
    let r = gfd::seq_sat(&w.sigma);
    let model = r.model().expect("satisfiable");
    assert!(gfd::graph_satisfies_all(model, &w.sigma));
    let index = gfd::graph::LabelIndex::build(model);
    for (_, g) in w.sigma.iter() {
        assert!(
            gfd::matching::has_match(model, &index, &g.pattern),
            "model must host a match of `{}`",
            g.name
        );
    }
}
