//! Cross-crate equivalence: the GED reasoner restricted to plain GFDs
//! must agree with the core algorithms — `ged_sat` ≡ `seq_sat` and
//! `ged_implies` ≡ `seq_imp` on lifted rule sets. This pins the §IX
//! extension to the paper's base semantics.
//!
//! Since the scheduler port, the suite also pins the branch-parallel
//! driver to the sequential search: every worker count (`GFD_EQ_WORKERS`
//! overrides the default `{1, 2, 8}` sweep, the same convention as
//! `scheduler_equivalence`), both dispatch modes, and TTL-zero forced
//! splitting must produce the sequential answers, including on
//! budget-capped rule sets where both sides must report "unknown".

use gfd::ged::driver::{ged_implies_with_config, ged_sat_with_config, GedReasonConfig};
use gfd::ged::{ged_implies, ged_sat, CmpOp, Ged, GedLiteral, GedSet};
use gfd::prelude::*;
use gfd::runtime::DispatchMode;
use std::time::Duration;

fn lift(sigma: &GfdSet) -> GedSet {
    GedSet::from_vec(sigma.iter().map(|(_, g)| Ged::from_gfd(g)).collect())
}

/// Worker counts to sweep: `GFD_EQ_WORKERS=n` pins a single count (the CI
/// matrix), default is {1, 2, 8}.
fn worker_counts() -> Vec<usize> {
    match std::env::var("GFD_EQ_WORKERS") {
        Ok(v) => vec![v.parse().expect("GFD_EQ_WORKERS must be an integer")],
        Err(_) => vec![1, 2, 8],
    }
}

/// Scheduler configs to sweep per worker count: TTL-zero forces a split
/// attempt after every explored branch, in both dispatch modes.
fn sched_configs(p: usize) -> Vec<GedReasonConfig> {
    [DispatchMode::WorkStealing, DispatchMode::Coordinator]
        .into_iter()
        .map(|dispatch| {
            GedReasonConfig::with_workers(p)
                .with_ttl(Duration::ZERO)
                .with_dispatch(dispatch)
        })
        .collect()
}

/// Small hand-built rule sets with known answers, as DSL documents.
const CASES: &[(&str, bool)] = &[
    // The paper's Example 2, ϕ5/ϕ6: same wildcard node, conflicting
    // constants.
    (
        "gfd phi5 { pattern { node x: _ } then { x.A = 0 } }
         gfd phi6 { pattern { node x: _ } then { x.A = 1 } }",
        false,
    ),
    // One rule alone is satisfiable.
    ("gfd phi5 { pattern { node x: _ } then { x.A = 0 } }", true),
    // Premise-guarded conflict: avoidable by not binding the premise.
    (
        "gfd a { pattern { node x: t } when { x.g = 1 } then { x.A = 0 } }
         gfd b { pattern { node x: t } when { x.g = 1 } then { x.A = 1 } }",
        true,
    ),
    // ∅-premise chain forcing the conflict through two hops (Example 4
    // flavour).
    (
        "gfd r1 { pattern { node x: t } then { x.B = 1 } }
         gfd r2 { pattern { node x: t } when { x.B = 1 } then { x.C = 1 } }
         gfd r3 { pattern { node x: t } when { x.C = 1 } then { x.A = 1 } }
         gfd r4 { pattern { node x: t } then { x.A = 0 } }",
        false,
    ),
    // Cross-pattern interaction: concrete labels vs wildcard.
    (
        "gfd w { pattern { node x: _ } then { x.A = 7 } }
         gfd c { pattern { node x: place } then { x.A = 7 } }",
        true,
    ),
    // Attribute-equality transitivity conflict.
    (
        "gfd e1 { pattern { node x: t } then { x.A = x.B } }
         gfd e2 { pattern { node x: t } then { x.B = 5 } }
         gfd e3 { pattern { node x: t } then { x.A = 6 } }",
        false,
    ),
];

#[test]
fn hand_built_sat_cases_agree() {
    for (src, expected) in CASES {
        let mut vocab = Vocab::new();
        let sigma = gfd::dsl::parse_document(src, &mut vocab).unwrap().gfds;
        let core = gfd::seq_sat(&sigma).is_satisfiable();
        let ged = ged_sat(&lift(&sigma)).is_satisfiable();
        assert_eq!(core, *expected, "core wrong on:\n{src}");
        assert_eq!(ged, *expected, "ged wrong on:\n{src}");
    }
}

#[test]
fn generated_workloads_sat_agree() {
    // Satisfiable-by-construction mined-style sets, and conflict-chain
    // variants, at a size the branching GED search handles comfortably.
    for seed in [1u64, 7, 23] {
        let w = gfd::gen::real_life_workload(gfd::gen::Dataset::Tiny, 8, seed, None);
        let core = gfd::seq_sat(&w.sigma).is_satisfiable();
        let ged = ged_sat(&lift(&w.sigma)).is_satisfiable();
        assert_eq!(core, ged, "sat diverged on satisfiable seed {seed}");
        assert!(core, "workload should be satisfiable");

        let w = gfd::gen::real_life_workload(gfd::gen::Dataset::Tiny, 8, seed, Some(2));
        let core = gfd::seq_sat(&w.sigma).is_satisfiable();
        let ged = ged_sat(&lift(&w.sigma)).is_satisfiable();
        assert_eq!(core, ged, "sat diverged on unsat seed {seed}");
        assert!(!core, "chain workload should be unsatisfiable");
    }
}

#[test]
fn generated_probes_imp_agree() {
    for seed in [3u64, 11] {
        let w = gfd::gen::synthetic_workload(10, 3, 2, seed);
        let sigma_ged = lift(&w.sigma);
        for probe in &w.probes {
            let core = gfd::seq_imp(&w.sigma, &probe.phi).is_implied();
            let ged = ged_implies(&sigma_ged, &Ged::from_gfd(&probe.phi)).is_implied();
            assert_eq!(
                core, ged,
                "imp diverged on probe {} (seed {seed})",
                probe.phi.name
            );
            assert_eq!(core, probe.expect_implied, "probe label wrong");
        }
    }
}

#[test]
fn implication_cases_agree() {
    let cases = [
        // ϕ13 flavour: chained deduction.
        (
            "gfd r1 { pattern { node x: t } when { x.A = 1 } then { x.B = 2 } }
             gfd r2 { pattern { node x: t } when { x.B = 2 } then { x.C = 3 } }",
            "gfd phi { pattern { node x: t } when { x.A = 1 } then { x.C = 3 } }",
            true,
        ),
        // ϕ14 flavour: premise inconsistent with Σ.
        (
            "gfd r1 { pattern { node x: t } then { x.A = 1 } }",
            "gfd phi { pattern { node x: t } when { x.A = 0 } then { x.Z = 9 } }",
            true,
        ),
        // Not implied: nothing forces the consequence.
        (
            "gfd r1 { pattern { node x: t } when { x.A = 1 } then { x.B = 2 } }",
            "gfd phi { pattern { node x: t } when { x.A = 1 } then { x.C = 3 } }",
            false,
        ),
        // Pattern-structure sensitivity: the premise pattern has an edge
        // the rule's pattern does not need.
        (
            "gfd r1 { pattern { node x: t node y: t edge x -e-> y } then { x.A = 1 } }",
            "gfd phi { pattern { node x: t } then { x.A = 1 } }",
            false,
        ),
    ];
    for (sigma_src, phi_src, expected) in cases {
        let mut vocab = Vocab::new();
        let sigma = gfd::dsl::parse_document(sigma_src, &mut vocab)
            .unwrap()
            .gfds;
        let phi = gfd::dsl::parse_gfd(phi_src, &mut vocab).unwrap();
        let core = gfd::seq_imp(&sigma, &phi).is_implied();
        let ged = ged_implies(&lift(&sigma), &Ged::from_gfd(&phi)).is_implied();
        assert_eq!(core, expected, "core wrong on:\n{sigma_src}\n|= {phi_src}");
        assert_eq!(ged, expected, "ged wrong on:\n{sigma_src}\n|= {phi_src}");
    }
}

/// The scheduled search at every worker count, dispatch mode, and with
/// TTL-zero forced splitting agrees with the sequential `ged_sat` on
/// satisfiable and unsatisfiable sets.
#[test]
fn scheduled_sat_agrees_with_sequential() {
    let mut cases: Vec<GedSet> = Vec::new();
    for (src, _) in CASES {
        let mut vocab = Vocab::new();
        cases.push(lift(
            &gfd::dsl::parse_document(src, &mut vocab).unwrap().gfds,
        ));
    }
    for seed in [1u64, 23] {
        let w = gfd::gen::real_life_workload(gfd::gen::Dataset::Tiny, 8, seed, None);
        cases.push(lift(&w.sigma));
        let w = gfd::gen::real_life_workload(gfd::gen::Dataset::Tiny, 8, seed, Some(2));
        cases.push(lift(&w.sigma));
    }
    for (i, sigma) in cases.iter().enumerate() {
        let expected = ged_sat(sigma).is_satisfiable();
        for p in worker_counts() {
            for cfg in sched_configs(p) {
                let run = ged_sat_with_config(sigma, &cfg);
                let out = run.outcome.expect("within budget");
                assert_eq!(
                    out.is_satisfiable(),
                    expected,
                    "sat diverged: case {i} p={p} {:?}",
                    cfg.dispatch
                );
                // Any witness a parallel run extracts must be a model.
                if let Some(wit) = out.witness() {
                    for (_, ged) in sigma.iter() {
                        assert!(
                            gfd::ged::ged_graph_satisfies(wit, ged),
                            "case {i} p={p}: witness violates {}",
                            ged.name
                        );
                    }
                }
            }
        }
    }
}

/// Implication with disjunctions, order predicates and id literals —
/// the branching cases the GFD driver never sees — is worker-count,
/// dispatch-mode and split-order invariant.
#[test]
fn scheduled_imp_agrees_with_sequential() {
    let mut vocab = Vocab::new();
    let a = vocab.attr("A");
    let email = vocab.attr("email");
    let person = vocab.label("person");
    let x = gfd::graph::VarId::new(0);
    let y = gfd::graph::VarId::new(1);
    let wildcard = || {
        let mut p = Pattern::new();
        p.add_node(gfd::graph::LabelId::WILDCARD, "x");
        p
    };
    let two_persons = || {
        let mut p = Pattern::new();
        p.add_node(person, "x");
        p.add_node(person, "y");
        p
    };
    // (Σ, ψ) pairs exercising every branch source: consequence
    // disjunction, premise-literal splitting, Y-literal splitting, node
    // merging via keys.
    let cases: Vec<(GedSet, Ged)> = vec![
        (
            GedSet::from_vec(vec![Ged::new(
                "dis",
                wildcard(),
                vec![],
                vec![
                    vec![GedLiteral::eq_const(x, a, 1i64)],
                    vec![GedLiteral::eq_const(x, a, 2i64)],
                ],
            )]),
            Ged::conjunctive(
                "ge1",
                wildcard(),
                vec![],
                vec![GedLiteral::cmp_const(x, a, CmpOp::Ge, 1i64)],
            ),
        ),
        (
            GedSet::new(),
            Ged::new(
                "taut",
                wildcard(),
                vec![GedLiteral::cmp_const(x, a, CmpOp::Ge, 0i64)],
                vec![
                    vec![GedLiteral::cmp_const(x, a, CmpOp::Le, 5i64)],
                    vec![GedLiteral::cmp_const(x, a, CmpOp::Ge, 3i64)],
                ],
            ),
        ),
        (
            GedSet::new(),
            Ged::new(
                "narrow",
                wildcard(),
                vec![GedLiteral::cmp_const(x, a, CmpOp::Ge, 0i64)],
                vec![
                    vec![GedLiteral::cmp_const(x, a, CmpOp::Le, 3i64)],
                    vec![GedLiteral::cmp_const(x, a, CmpOp::Ge, 5i64)],
                ],
            ),
        ),
        (
            GedSet::from_vec(vec![Ged::conjunctive(
                "email-key",
                two_persons(),
                vec![GedLiteral::eq_attr(x, email, y, email)],
                vec![GedLiteral::id(x, y)],
            )]),
            Ged::conjunctive(
                "sym",
                two_persons(),
                vec![GedLiteral::eq_attr(y, email, x, email)],
                vec![GedLiteral::id(y, x)],
            ),
        ),
    ];
    for (i, (sigma, phi)) in cases.iter().enumerate() {
        let expected = ged_implies(sigma, phi).is_implied();
        for p in worker_counts() {
            for cfg in sched_configs(p) {
                let run = ged_implies_with_config(sigma, phi, &cfg);
                assert_eq!(
                    run.outcome.expect("within budget").is_implied(),
                    expected,
                    "imp diverged: case {i} p={p} {:?}",
                    cfg.dispatch
                );
            }
        }
    }
    // The generated probe sweep, scheduled.
    for seed in [3u64, 11] {
        let w = gfd::gen::synthetic_workload(10, 3, 2, seed);
        let sigma_ged = lift(&w.sigma);
        for probe in &w.probes {
            let phi = Ged::from_gfd(&probe.phi);
            for p in worker_counts() {
                let cfg = GedReasonConfig::with_workers(p).with_ttl(Duration::ZERO);
                let run = ged_implies_with_config(&sigma_ged, &phi, &cfg);
                assert_eq!(
                    run.outcome.expect("within budget").is_implied(),
                    probe.expect_implied,
                    "probe {} seed {seed} p={p}",
                    probe.phi.name
                );
            }
        }
    }
}

/// A branch budget that falls short of the (unsatisfiable) choice tree
/// must report "unknown" — never a wrong answer, never a panic — at
/// every worker count. The tree needs 3 visits; the budget allows 2.
#[test]
fn budget_capped_runs_agree_on_unknown() {
    let mut vocab = Vocab::new();
    let a = vocab.attr("A");
    let x = gfd::graph::VarId::new(0);
    let mk_dis = |name: &str, lo: i64| {
        let mut p = Pattern::new();
        p.add_node(gfd::graph::LabelId::WILDCARD, "x");
        Ged::new(
            name,
            p,
            vec![],
            vec![
                vec![GedLiteral::eq_const(x, a, lo)],
                vec![GedLiteral::eq_const(x, a, lo + 1)],
            ],
        )
    };
    let sigma = GedSet::from_vec(vec![mk_dis("d0", 0), mk_dis("d1", 2)]);
    // Sanity: with the full budget the set is unsatisfiable everywhere.
    assert!(!ged_sat(&sigma).is_satisfiable());
    for p in worker_counts() {
        for cfg in sched_configs(p) {
            let capped = cfg.clone().with_max_branches(2);
            let run = ged_sat_with_config(&sigma, &capped);
            assert!(
                run.outcome.is_none(),
                "p={p} {:?}: capped run should be unknown",
                capped.dispatch
            );
            let full = ged_sat_with_config(&sigma, &cfg);
            assert!(!full.outcome.expect("within budget").is_satisfiable());
        }
    }
}

#[test]
fn ged_witness_satisfies_lifted_sigma() {
    // When the GED search extracts a witness for a satisfiable lifted
    // set, the witness must satisfy every (GED) rule.
    let mut vocab = Vocab::new();
    let sigma = gfd::dsl::parse_document(
        "gfd r1 { pattern { node x: t node y: t edge x -e-> y } then { x.A = 1, y.B = x.A } }
         gfd r2 { pattern { node x: t } then { x.C = 2 } }",
        &mut vocab,
    )
    .unwrap()
    .gfds;
    let lifted = lift(&sigma);
    let out = ged_sat(&lifted);
    assert!(out.is_satisfiable());
    let w = out.witness().expect("integer-valued: witness extracts");
    for (_, ged) in lifted.iter() {
        assert!(
            gfd::ged::ged_graph_satisfies(w, ged),
            "witness violates {}",
            ged.name
        );
    }
}
