//! Stress and behaviour tests of the parallel runtime: splitting,
//! stealing, early termination, metrics, and worker-count invariance.

use gfd::prelude::*;
use gfd::runtime::DispatchMode;
use std::time::Duration;

/// A workload whose matching is deliberately heavy: wildcard star
/// patterns over a shared dense pattern family create units with large
/// search trees — straggler territory.
fn heavy_sigma(vocab: &mut Vocab) -> GfdSet {
    let t = vocab.label("hub");
    let e = vocab.label("link");
    let a = vocab.attr("attr");
    let mut gfds = Vec::new();
    // One fat pattern: a hub with many spokes (its canonical copy makes
    // every other rule's search tree wide). Six spokes give ~6^6 ≈ 47k
    // homomorphic matches pivoted at the hub — heavy enough to force
    // splits, small enough to finish fast (10 spokes would be 10^10).
    let mut fat = Pattern::new();
    let hub = fat.add_node(t, "hub");
    for i in 0..6 {
        let leaf = fat.add_node(t, format!("leaf{i}"));
        fat.add_edge(hub, e, leaf);
        fat.add_edge(leaf, e, hub);
    }
    gfds.push(Gfd::new(
        "fat",
        fat,
        vec![],
        vec![Literal::eq_const(VarId::new(0), a, 1i64)],
    ));
    // Several wildcard chain rules that match the fat copy in many ways.
    for i in 0..4 {
        let mut p = Pattern::new();
        let x = p.add_node(LabelId::WILDCARD, "x");
        let y = p.add_node(LabelId::WILDCARD, "y");
        let z = p.add_node(LabelId::WILDCARD, "z");
        p.add_edge(x, LabelId::WILDCARD, y);
        p.add_edge(y, LabelId::WILDCARD, z);
        gfds.push(Gfd::new(
            format!("chain{i}"),
            p,
            vec![Literal::eq_const(VarId::new(0), a, 1i64)],
            vec![Literal::eq_attr(VarId::new(0), a, VarId::new(2), a)],
        ));
    }
    GfdSet::from_vec(gfds)
}

#[test]
fn tiny_ttl_forces_splits_without_changing_answers() {
    let mut vocab = Vocab::new();
    let sigma = heavy_sigma(&mut vocab);
    let seq = gfd::seq_sat(&sigma);

    let cfg = ReasonConfig::with_workers(3).with_ttl(Duration::ZERO);
    let r = gfd::sat_with_config(&sigma, &cfg);
    assert_eq!(r.is_satisfiable(), seq.is_satisfiable());
    assert!(
        r.stats.units_split > 0,
        "TTL=0 on a heavy workload must split: {:?}",
        r.stats
    );
    // Split units were dispatched too.
    assert!(r.stats.units_dispatched >= r.stats.units_generated as u64);
}

#[test]
fn no_split_mode_never_splits() {
    let mut vocab = Vocab::new();
    let sigma = heavy_sigma(&mut vocab);
    let cfg = ReasonConfig::with_workers(3)
        .with_ttl(Duration::ZERO)
        .without_split();
    let r = gfd::sat_with_config(&sigma, &cfg);
    assert_eq!(r.stats.units_split, 0);
    assert!(r.is_satisfiable());
}

#[test]
fn all_units_are_processed_exactly_once_on_quiescent_runs() {
    let mut vocab = Vocab::new();
    let sigma = heavy_sigma(&mut vocab);
    let cfg = ReasonConfig::with_workers(4);
    let r = gfd::sat_with_config(&sigma, &cfg);
    assert!(!r.stats.early_terminated);
    assert_eq!(
        r.stats.units_dispatched,
        r.stats.units_generated as u64 + r.stats.units_split
    );
    // Per-worker stats were collected on the drain path.
    assert_eq!(r.stats.worker_busy.len(), 4);
}

#[test]
fn match_counts_are_stable_across_worker_counts() {
    let mut vocab = Vocab::new();
    let sigma = heavy_sigma(&mut vocab);
    let mut counts = Vec::new();
    for p in [1, 2, 4] {
        let r = gfd::sat_with_config(&sigma, &ReasonConfig::with_workers(p));
        assert!(r.is_satisfiable());
        counts.push(r.stats.matches);
    }
    assert_eq!(counts[0], counts[1]);
    assert_eq!(counts[1], counts[2]);
}

#[test]
fn dispatch_modes_do_not_change_outcomes() {
    let mut vocab = Vocab::new();
    let sigma = heavy_sigma(&mut vocab);
    let expected = gfd::seq_sat(&sigma).is_satisfiable();
    for dispatch in [DispatchMode::WorkStealing, DispatchMode::Coordinator] {
        let cfg = ReasonConfig {
            dispatch,
            ..ReasonConfig::with_workers(3)
        };
        let r = gfd::sat_with_config(&sigma, &cfg);
        assert_eq!(r.is_satisfiable(), expected, "{dispatch:?}");
        if dispatch == DispatchMode::Coordinator {
            assert_eq!(r.stats.units_stolen, 0, "coordinator mode never steals");
        }
    }
}

#[test]
fn early_termination_reports_quickly_on_conflicts() {
    // Large satisfiable base + a conflict pair: the run must terminate
    // early rather than process everything.
    let w = gfd::gen::real_life_workload(gfd::gen::Dataset::Yago2, 120, 5, Some(2));
    let cfg = ReasonConfig::with_workers(4);
    let r = gfd::sat_with_config(&w.sigma, &cfg);
    assert!(!r.is_satisfiable());
    assert!(r.stats.early_terminated);
}

#[test]
fn consequence_termination_for_implication() {
    let w = gfd::gen::synthetic_workload(60, 4, 3, 21);
    let implied: Vec<_> = w.probes.iter().filter(|p| p.expect_implied).collect();
    assert!(!implied.is_empty());
    for probe in implied {
        let r = gfd::imp_with_config(&w.sigma, &probe.phi, &ReasonConfig::with_workers(4));
        assert!(r.is_implied());
    }
}

#[test]
fn many_workers_on_tiny_input_is_fine() {
    // More workers than units: the runtime must not deadlock or lose
    // answers when most workers never receive work.
    let mut vocab = Vocab::new();
    let sigma = gfd::dsl::parse_document(
        "gfd only { pattern { node x: t } then { x.a = 1 } }",
        &mut vocab,
    )
    .unwrap()
    .gfds;
    let r = gfd::sat_with_config(&sigma, &ReasonConfig::with_workers(16));
    assert!(r.is_satisfiable());
}

#[test]
fn repeated_runs_are_deterministic_in_outcome() {
    let w = gfd::gen::real_life_workload(gfd::gen::Dataset::Tiny, 40, 9, None);
    let expected = gfd::seq_sat(&w.sigma).is_satisfiable();
    for run in 0..5 {
        let r = gfd::sat_with_config(
            &w.sigma,
            &ReasonConfig::with_workers(3).with_ttl(Duration::from_micros(200)),
        );
        assert_eq!(r.is_satisfiable(), expected, "run {run} diverged");
    }
}
