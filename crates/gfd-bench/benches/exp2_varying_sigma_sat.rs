//! Fig. 6(e) — satisfiability scalability with |Σ| (synthetic GFDs,
//! k = 6, l = 5, p = 4): SeqSat vs ParSat vs ParSatnp vs ParSatnb.
//!
//! Paper's shape: all grow with |Σ|; ParSat ≈ 3.14× faster than SeqSat on
//! average; the np/nb gaps are milder than Exp-1 (k fixed at 6). Also
//! verified here: when Σ is unsatisfiable, both Seq and Par are
//! insensitive to |Σ| thanks to early termination.

use gfd_bench::{banner, fmt_duration, scale, time_median, Table};
use gfd_core::{sat_with_config, ReasonConfig};
use gfd_gen::synthetic_workload;

fn main() {
    let scale = scale();
    banner(
        "Exp-2 (Fig. 6e): satisfiability, varying |Σ| (k=6, l=5, p=4)",
        "SeqSat 1321s / ParSat 430s at |Σ|=10000; ParSat ≈ 3.14x faster on average",
    );

    let cfg = ReasonConfig::with_workers(4).with_ttl(scale.default_ttl);
    let mut table = Table::new(&[
        "|Σ|",
        "SeqSat",
        "ParSat wall",
        "makespan",
        "np wall",
        "nb wall",
    ]);
    for &size in &scale.exp2_sigmas {
        let w = synthetic_workload(size, 6, 5, 42);
        let t_seq = time_median(scale.repeats, || {
            assert!(gfd_core::seq_sat(&w.sigma).is_satisfiable());
        });
        let mut makespan = std::time::Duration::ZERO;
        let t_par = time_median(scale.repeats, || {
            let r = sat_with_config(&w.sigma, &cfg);
            assert!(r.is_satisfiable());
            makespan = r.stats.makespan().unwrap_or(r.stats.elapsed);
        });
        let t_np = time_median(scale.repeats, || {
            assert!(sat_with_config(&w.sigma, &cfg.clone().without_pipeline()).is_satisfiable());
        });
        let t_nb = time_median(scale.repeats, || {
            assert!(sat_with_config(&w.sigma, &cfg.clone().without_split()).is_satisfiable());
        });
        table.row(vec![
            size.to_string(),
            fmt_duration(t_seq),
            fmt_duration(t_par),
            fmt_duration(makespan),
            fmt_duration(t_np),
            fmt_duration(t_nb),
        ]);
    }
    table.print();

    // The unsat insensitivity claim: conflict chains of fixed depth are
    // found in near-constant time regardless of |Σ|.
    println!("\nunsatisfiable variants (early termination — paper: 'insensitive to |Σ|'):");
    let mut table = Table::new(&["|Σ|", "SeqSat(unsat)", "ParSat(unsat)"]);
    for &size in &scale.exp2_sigmas {
        let w = gfd_gen::real_life_workload(gfd_gen::Dataset::DBpedia, size, 42, Some(4));
        let t_seq = time_median(scale.repeats, || {
            assert!(!gfd_core::seq_sat(&w.sigma).is_satisfiable());
        });
        let t_par = time_median(scale.repeats, || {
            assert!(!sat_with_config(&w.sigma, &cfg).is_satisfiable());
        });
        table.row(vec![
            size.to_string(),
            fmt_duration(t_seq),
            fmt_duration(t_par),
        ]);
    }
    table.print();
    println!("\nexpected shape: satisfiable rows grow with |Σ|; unsat rows stay low and flat.");
}
