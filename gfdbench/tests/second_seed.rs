//! Every workload at a small size on seeds other than the default one,
//! untraced and traced: no check, size or metric is tied to one seed.

use gfdbench::{chase, detect, reason, run, Sizes, Workload, END_TO_END, PER_LAYER, UNGATED};

const SMALL: Sizes = Sizes {
    reason: reason::ReasonSize {
        sigma: 40,
        chain: 3,
        probes: 16,
        min_queries: 20,
    },
    detect: detect::DetectSize {
        nodes: 1_500,
        rules: 20,
        planted: 3,
        hub_nodes: 600,
        hubs: 4,
        hub_degree: 48,
        batches: 20,
    },
    chase: chase::ChaseSize {
        depth: 2,
        per_tier: 2,
        fanout: 2,
        literal: 2,
    },
};

#[test]
fn every_workload_is_correct_on_other_seeds() {
    for seed in [2, 3] {
        for workload in Workload::ALL {
            for traced in [false, true] {
                let r = run(workload, &SMALL, seed, 0.2, traced);
                let what = format!("{} seed {seed} traced {traced}", workload.name());
                assert!(r.tally.attempted > 0, "{what}: nothing attempted");
                assert_eq!(r.tally.failed, 0, "{what}: wrong answers");
                assert!(r.problems.is_empty(), "{what}: {:?}", r.problems);
                let mut listed = if traced {
                    PER_LAYER.to_vec()
                } else {
                    END_TO_END.to_vec()
                };
                if !traced {
                    listed.extend(UNGATED);
                }
                let names: Vec<&str> = r.metrics.0.iter().map(|m| m.name.as_str()).collect();
                for name in &listed {
                    assert!(names.contains(name), "{what}: {name} missing");
                }
                assert_eq!(names.len(), listed.len(), "{what}: unlisted metrics");
                assert!(r.metrics.0.iter().all(|m| m.value.is_finite()), "{what}");
            }
        }
    }
}

/// The metric names of one section of `BENCHMARK.json`, in file order.
fn section_names(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(section_names(&json, "end_to_end"), END_TO_END);
    assert_eq!(section_names(&json, "per_layer"), PER_LAYER);
    let workloads = section_names(&json, "workloads");
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, known);
}
