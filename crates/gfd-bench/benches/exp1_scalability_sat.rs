//! Fig. 6(a)/(b) — parallel scalability of satisfiability checking:
//! ParSat vs ParSatnp (no pipelining) vs ParSatnb (no splitting), varying
//! the number of workers p, on DBpedia-like and YAGO2-like rule sets.
//!
//! Paper's shape: ParSat ~3.7×/3.2× faster as p goes 4→20; beats `nb` by
//! 3.8×/3.7× and `np` by 1.4×/1.6× on average.
//!
//! The `makespan` column (max per-worker CPU time) is the faithful
//! scalability measure on hosts with fewer cores than workers.

use gfd_bench::{banner, fmt_duration, scale, time_median, Table};
use gfd_core::{sat_with_config, ReasonConfig};
use gfd_gen::{real_life_workload, Dataset};
use gfd_runtime::DispatchMode;
use std::time::Duration;

fn main() {
    let scale = scale();
    banner(
        "Exp-1 (Fig. 6a, 6b): ParSat scalability, varying p",
        "ParSat 3.4x faster from p=4 to 20; vs nb 3.8x, vs np 1.4-1.6x",
    );

    for dataset in [Dataset::DBpedia, Dataset::Yago2] {
        // Satisfiable sets: the whole workload is processed, so the
        // scalability of the full computation is measured (unsat early
        // termination is studied in Exp-2).
        let w = real_life_workload(dataset, scale.exp1_sigma, 42, None);
        let seq = time_median(scale.repeats, || {
            assert!(gfd_core::seq_sat(&w.sigma).is_satisfiable());
        });
        println!(
            "\n[{}] |Σ| = {}, SeqSat reference: {}",
            w.name,
            w.sigma.len(),
            fmt_duration(seq)
        );

        let mut table = Table::new(&[
            "p",
            "ParSat wall",
            "makespan",
            "coord wall",
            "np wall",
            "nb wall",
            "splits",
            "steals",
            "speedup(mk)",
        ]);
        let mut first_makespan: Option<Duration> = None;
        for &p in &scale.workers {
            let base = ReasonConfig::with_workers(p).with_ttl(scale.default_ttl);
            let mut makespan = Duration::ZERO;
            let mut splits = 0u64;
            let mut steals = 0u64;
            let t = time_median(scale.repeats, || {
                let r = sat_with_config(&w.sigma, &base);
                assert!(r.is_satisfiable());
                makespan = r.stats.makespan().unwrap_or(r.stats.elapsed);
                splits = r.stats.units_split;
                steals = r.stats.units_stolen;
            });
            // The pre-unification dispatch topology: one central queue,
            // an idle round-trip per hand-out.
            let coordinator = base.clone().with_dispatch(DispatchMode::Coordinator);
            let t_coord = time_median(scale.repeats, || {
                assert!(sat_with_config(&w.sigma, &coordinator).is_satisfiable());
            });
            let t_np = time_median(scale.repeats, || {
                assert!(
                    sat_with_config(&w.sigma, &base.clone().without_pipeline()).is_satisfiable()
                );
            });
            let t_nb = time_median(scale.repeats, || {
                assert!(sat_with_config(&w.sigma, &base.clone().without_split()).is_satisfiable());
            });
            let speedup = first_makespan.get_or_insert(makespan).as_secs_f64()
                / makespan.as_secs_f64().max(1e-9);
            table.row(vec![
                p.to_string(),
                fmt_duration(t),
                fmt_duration(makespan),
                fmt_duration(t_coord),
                fmt_duration(t_np),
                fmt_duration(t_nb),
                splits.to_string(),
                steals.to_string(),
                format!("{speedup:.2}x"),
            ]);
        }
        table.print();
    }
    println!(
        "\nexpected shape: makespan (and, with enough cores, wall) shrinks as p grows;\n\
         np pays for materializing per-unit match lists; nb suffers on straggler units."
    );
}
