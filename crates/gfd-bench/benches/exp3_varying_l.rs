//! Fig. 6(h)/(j) — impact of the literal count l on satisfiability and
//! implication (k = 5, p = 4).
//!
//! Paper's shape: mild sensitivity to l — more literals cost more per
//! match but can also terminate the process earlier; ParSat/ParImp stay
//! the fastest at every l.

use gfd_bench::{banner, fmt_duration, scale, time_median, Table};
use gfd_core::{imp_with_config, sat_with_config, ReasonConfig};
use gfd_gen::synthetic_workload;

fn main() {
    let scale = scale();
    banner(
        "Exp-3 (Fig. 6h, 6j): varying literal count l (k=5, p=4)",
        "l=5: SeqSat 351s, ParSat 108s | SeqImp 262s, ParImp 77s; mild l-sensitivity",
    );

    let cfg = ReasonConfig::with_workers(4).with_ttl(scale.default_ttl);

    println!("\nFig. 6(h) — satisfiability:");
    let mut table = Table::new(&["l", "SeqSat", "ParSat", "np", "nb"]);
    for &l in &scale.ls {
        let w = synthetic_workload(scale.exp3_sigma, 5, l, 42);
        let t_seq = time_median(scale.repeats, || {
            assert!(gfd_core::seq_sat(&w.sigma).is_satisfiable());
        });
        let t_par = time_median(scale.repeats, || {
            assert!(sat_with_config(&w.sigma, &cfg).is_satisfiable());
        });
        let t_np = time_median(scale.repeats, || {
            assert!(sat_with_config(&w.sigma, &cfg.clone().without_pipeline()).is_satisfiable());
        });
        let t_nb = time_median(scale.repeats, || {
            assert!(sat_with_config(&w.sigma, &cfg.clone().without_split()).is_satisfiable());
        });
        table.row(vec![
            l.to_string(),
            fmt_duration(t_seq),
            fmt_duration(t_par),
            fmt_duration(t_np),
            fmt_duration(t_nb),
        ]);
    }
    table.print();

    println!("\nFig. 6(j) — implication:");
    let mut table = Table::new(&["l", "SeqImp", "ParImp", "np", "nb"]);
    for &l in &scale.ls {
        let w = synthetic_workload(scale.exp3_sigma, 5, l, 42);
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
            l.to_string(),
            fmt_duration(t_seq),
            fmt_duration(t_par),
            fmt_duration(t_np),
            fmt_duration(t_nb),
        ]);
    }
    table.print();
    println!("\nexpected shape: flat-ish in l (literal checks are cheap next to matching).");
}
