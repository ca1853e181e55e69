//! Fig. 5 — sequential running time on "real-life" GFD sets.
//!
//! Paper's table (seconds, |Σ| ≈ 8000/6000/10000):
//!
//! | algorithm  | DBpedia | YAGO2 | Pokec |
//! |------------|---------|-------|-------|
//! | SeqSat     | 1728    | 1341  | 2475  |
//! | SeqImp     | 728     | 644   | 1355  |
//! | ParImpRDF  | 1026    | 987   | 1907  |
//!
//! Shape to reproduce: SeqImp < ParImpRDF < SeqSat per dataset; SeqImp
//! beats the chase baseline by ~1.4×.

use gfd_bench::{banner, fmt_duration, scale, time_median, Table};
use gfd_core::{DepSet, Dependency};
use gfd_gen::{real_life_workload, Dataset};

fn main() {
    let scale = scale();
    banner(
        "Fig. 5: sequential running time on real-life GFDs",
        "SeqSat 1728/1341/2475s, SeqImp 728/644/1355s, ParImpRDF 1026/987/1907s",
    );

    let datasets = [Dataset::DBpedia, Dataset::Yago2, Dataset::Pokec];
    let mut table = Table::new(&["algorithm", "DBpedia", "YAGO2", "Pokec"]);
    let mut sat_row = vec!["SeqSat".to_string()];
    let mut imp_row = vec!["SeqImp".to_string()];
    let mut rdf_row = vec!["ParImpRDF".to_string()];
    let mut ratio_row = vec!["chase/SeqImp".to_string()];

    for dataset in datasets {
        // Satisfiability runs on the mined set expanded with a conflict
        // chain (the paper adds up to 10 random GFDs to exercise the
        // check); implication probes run on the clean set.
        let sat_workload = real_life_workload(dataset, scale.fig5_sigma, 42, Some(4));
        let imp_workload = real_life_workload(dataset, scale.fig5_sigma, 42, None);
        let probes: Vec<_> = imp_workload.probes.iter().take(scale.imp_probes).collect();
        // The chase baseline reasons over `DepSet`s; convert outside the
        // timed closure.
        let rdf_sigma = DepSet::from_gfds(imp_workload.sigma.clone());
        let rdf_probes: Vec<_> = probes
            .iter()
            .map(|p| (Dependency::from_gfd(p.phi.clone()), p.expect_implied))
            .collect();

        let t_sat = time_median(scale.repeats, || {
            gfd_core::seq_sat(&sat_workload.sigma).is_satisfiable()
        });
        let t_imp = time_median(scale.repeats, || {
            for p in &probes {
                let r = gfd_core::seq_imp(&imp_workload.sigma, &p.phi);
                assert_eq!(r.is_implied(), p.expect_implied);
            }
        });
        let t_rdf = time_median(scale.repeats.min(2), || {
            for (phi, expect_implied) in &rdf_probes {
                let r = gfd_chase::chase_imp(&rdf_sigma, phi);
                assert_eq!(r.is_implied(), *expect_implied);
            }
        });

        sat_row.push(fmt_duration(t_sat));
        imp_row.push(fmt_duration(t_imp));
        rdf_row.push(fmt_duration(t_rdf));
        ratio_row.push(format!(
            "{:.2}x",
            t_rdf.as_secs_f64() / t_imp.as_secs_f64().max(1e-9)
        ));
    }

    table.row(sat_row);
    table.row(imp_row);
    table.row(rdf_row);
    table.row(ratio_row);
    table.print();
    println!(
        "\nexpected shape: SeqImp fastest, chase (ParImpRDF) slower, SeqSat slowest\n\
         (GΣ for satisfiability is the union of all patterns, far larger than G^X_Q)."
    );
}
