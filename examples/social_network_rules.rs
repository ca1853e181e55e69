//! Parallel reasoning over a social-network rule set (the paper's Pokec
//! scenario, §VII): validate a large mined-style rule set with `ParSat`,
//! then run implication probes with `ParImp`, reporting run metrics.
//!
//! Run with: `cargo run --release --example social_network_rules`

use gfd::gen::{real_life_workload, Dataset};
use gfd::prelude::*;
use std::time::Duration;

fn main() {
    // A Pokec-like workload: 269 node types, 11 edge types, mined-style
    // rules with shared seed patterns (so the rules interact).
    let size = 300;
    let workload = real_life_workload(Dataset::Pokec, size, 7, None);
    println!(
        "workload: {} rules over the {} schema, |Σ| = {} size units",
        workload.sigma.len(),
        workload.name,
        workload.sigma.total_size()
    );

    // Sequential reference.
    let seq = gfd::seq_sat(&workload.sigma);
    println!(
        "\nSeqSat: satisfiable = {} in {:?} ({} matches, {} pending, {} rechecks)",
        seq.is_satisfiable(),
        seq.stats.elapsed,
        seq.stats.matches,
        seq.stats.pending,
        seq.stats.rechecks,
    );

    // Parallel runs with growing worker counts.
    println!("\nParSat scalability (makespan = max per-worker CPU time):");
    println!(
        "{:>3}  {:>10}  {:>10}  {:>9}  {:>7}  {:>7}",
        "p", "wall", "makespan", "imbalance", "units", "splits"
    );
    for p in [1, 2, 4, 8] {
        let cfg = ReasonConfig::with_workers(p).with_ttl(Duration::from_millis(20));
        let r = gfd::sat_with_config(&workload.sigma, &cfg);
        assert_eq!(r.is_satisfiable(), seq.is_satisfiable());
        println!(
            "{:>3}  {:>10.2?}  {:>10.2?}  {:>9.2}  {:>7}  {:>7}",
            p,
            r.stats.elapsed,
            r.stats.makespan().unwrap_or_default(),
            r.stats.imbalance().unwrap_or(f64::NAN),
            r.stats.units_dispatched,
            r.stats.units_split,
        );
    }

    // An unsatisfiable variant: early termination kicks in.
    let dirty = real_life_workload(Dataset::Pokec, size, 7, Some(3));
    let r = gfd::sat_with_config(
        &dirty.sigma,
        &ReasonConfig::with_workers(4).with_ttl(Duration::from_millis(20)),
    );
    println!(
        "\nwith an injected conflict chain: satisfiable = {}, early_terminated = {}",
        r.is_satisfiable(),
        r.stats.early_terminated
    );
    assert!(!r.is_satisfiable());

    // Implication probes in parallel.
    println!("\nParImp on {} probes:", workload.probes.len());
    let cfg = ReasonConfig::with_workers(4).with_ttl(Duration::from_millis(20));
    for probe in &workload.probes {
        let r = gfd::imp_with_config(&workload.sigma, &probe.phi, &cfg);
        println!(
            "  {:<28} implied = {:<5} (expected {:<5}) wall = {:?}",
            probe.phi.name,
            r.is_implied(),
            probe.expect_implied,
            r.stats.elapsed
        );
        assert_eq!(r.is_implied(), probe.expect_implied);
    }
}
