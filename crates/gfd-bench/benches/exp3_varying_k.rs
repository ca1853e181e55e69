//! Fig. 6(g)/(i) — impact of the pattern size k on satisfiability and
//! implication (DBpedia-like seeds, l = 3, p = 4).
//!
//! Paper's shape: all algorithms slow down as k grows (larger patterns →
//! exponentially larger match spaces); the optimizations matter more at
//! large k; at k = 10 ParSat/ParImp remain practical.

use gfd_bench::{banner, fmt_duration, scale, time_median, Table};
use gfd_core::{imp_with_config, sat_with_config, ReasonConfig};
use gfd_gen::synthetic_workload;

fn main() {
    let scale = scale();
    banner(
        "Exp-3 (Fig. 6g, 6i): varying pattern size k (l=3, p=4)",
        "k=10: SeqSat 1253s, ParSat 398s | SeqImp 538s, ParImp 201s",
    );

    let cfg = ReasonConfig::with_workers(4).with_ttl(scale.default_ttl);

    println!("\nFig. 6(g) — satisfiability:");
    let mut table = Table::new(&["k", "SeqSat", "ParSat", "np", "nb", "splits"]);
    for &k in &scale.ks {
        let w = synthetic_workload(scale.exp3_sigma, k, 3, 42);
        let t_seq = time_median(scale.repeats, || {
            assert!(gfd_core::seq_sat(&w.sigma).is_satisfiable());
        });
        let mut splits = 0u64;
        let t_par = time_median(scale.repeats, || {
            let r = sat_with_config(&w.sigma, &cfg);
            assert!(r.is_satisfiable());
            splits = r.stats.units_split;
        });
        let t_np = time_median(scale.repeats, || {
            assert!(sat_with_config(&w.sigma, &cfg.clone().without_pipeline()).is_satisfiable());
        });
        let t_nb = time_median(scale.repeats, || {
            assert!(sat_with_config(&w.sigma, &cfg.clone().without_split()).is_satisfiable());
        });
        table.row(vec![
            k.to_string(),
            fmt_duration(t_seq),
            fmt_duration(t_par),
            fmt_duration(t_np),
            fmt_duration(t_nb),
            splits.to_string(),
        ]);
    }
    table.print();

    println!("\nFig. 6(i) — implication:");
    let mut table = Table::new(&["k", "SeqImp", "ParImp", "np", "nb"]);
    for &k in &scale.ks {
        let w = synthetic_workload(scale.exp3_sigma, k, 3, 42);
        let probes: Vec<_> = w.probes.iter().take(scale.imp_probes).collect();
        let run_all = |f: &dyn Fn(&gfd_core::Gfd) -> bool| {
            for p in &probes {
                assert_eq!(f(&p.phi), p.expect_implied);
            }
        };
        let t_seq = time_median(scale.repeats, || {
            run_all(&|phi| gfd_core::seq_imp(&w.sigma, phi).is_implied())
        });
        let t_par = time_median(scale.repeats, || {
            run_all(&|phi| imp_with_config(&w.sigma, phi, &cfg).is_implied())
        });
        let t_np = time_median(scale.repeats, || {
            run_all(&|phi| {
                imp_with_config(&w.sigma, phi, &cfg.clone().without_pipeline()).is_implied()
            })
        });
        let t_nb = time_median(scale.repeats, || {
            run_all(&|phi| {
                imp_with_config(&w.sigma, phi, &cfg.clone().without_split()).is_implied()
            })
        });
        table.row(vec![
            k.to_string(),
            fmt_duration(t_seq),
            fmt_duration(t_par),
            fmt_duration(t_np),
            fmt_duration(t_nb),
        ]);
    }
    table.print();
    println!("\nexpected shape: every column grows with k; splitting pays off most at large k.");
}
