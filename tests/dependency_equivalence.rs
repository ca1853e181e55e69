//! Dependency-equivalence suite: the generalized rule layer must be a
//! conservative extension.
//!
//! * A Σ of GFDs lifted into the `Dependency` model behaves **exactly**
//!   like the seed code paths: `dep_sat`/`dep_imp` route literal-only
//!   sets to the original driver (same outcomes, and at one worker the
//!   same models bit for bit), and `detect_deps` over the lifted set
//!   reports the identical violation list at every worker count.
//! * The generating chase is **order-independent**: permuting a mixed
//!   rule set changes rule ids but not the outcome, the amount of
//!   generation, or the shape of the chased model (the round-snapshot
//!   realization semantics — parallel independence — pins this).
//! * Mixed GFD+GGD workloads produce invariant results across
//!   `p ∈ {1, 2, 8}` on the shared scheduler, for Sat, Imp and Detect.
//!
//! CI runs this suite once per entry of `GFD_EQ_WORKERS` (a single
//! worker count overriding the default `{1, 2, 8}` sweep).

use gfd::chase::{dep_imp_with_config, dep_sat_with_config, ChaseConfig, DepSatOutcome};
use gfd::detect::{detect_deps, DetectConfig};
use gfd::gen::{
    ggd_conflict_workload, ggd_overlap_workload, mixed_ggd_workload, real_life_workload,
    tier0_graph, Dataset, GgdGenConfig,
};
use gfd::prelude::*;
use proptest::prelude::*;

/// Worker counts to sweep: `GFD_EQ_WORKERS=n` pins a single count (the
/// CI matrix), default is {1, 2, 8}.
fn worker_counts() -> Vec<usize> {
    match std::env::var("GFD_EQ_WORKERS") {
        Ok(v) => vec![v.parse().expect("GFD_EQ_WORKERS must be an integer")],
        Err(_) => vec![1, 2, 8],
    }
}

fn chase_cfg(p: usize) -> ChaseConfig {
    ChaseConfig {
        workers: p,
        ..ChaseConfig::default()
    }
}

/// A graph fingerprint that is invariant under node renaming and fresh
/// value numbering: counts plus the sorted multiset of
/// `(label, #attrs, out-degree)` per node.
fn fingerprint(g: &Graph) -> (usize, usize, Vec<(LabelId, usize, usize)>) {
    let mut per_node: Vec<(LabelId, usize, usize)> = g
        .nodes()
        .map(|n| (g.label(n), g.attrs(n).len(), g.out_edges(n).len()))
        .collect();
    per_node.sort();
    (g.node_count(), g.edge_count(), per_node)
}

fn violation_keys(report: &gfd::detect::DetectionReport) -> Vec<(usize, Vec<usize>)> {
    report
        .violations
        .iter()
        .map(|v| (v.gfd.index(), v.m.iter().map(|n| n.index()).collect()))
        .collect()
}

// ---------------------------------------------------------------------
// 1. Literal-only Σ under the Dependency model ≡ seed behavior.
// ---------------------------------------------------------------------

#[test]
fn lifted_gfd_sat_matches_seed_at_every_worker_count() {
    for seed in [3u64, 17] {
        for unsat_chain in [None, Some(2)] {
            let w = real_life_workload(Dataset::Tiny, 30, seed, unsat_chain);
            let deps = DepSet::from_gfds(w.sigma.clone());
            let expected = gfd::seq_sat(&w.sigma);
            for p in worker_counts() {
                let r = dep_sat_with_config(&deps, &chase_cfg(p));
                assert_eq!(
                    r.is_satisfiable(),
                    expected.is_satisfiable(),
                    "seed={seed} chain={unsat_chain:?} p={p}"
                );
                assert_eq!(r.stats.rounds, 0, "literal sets must not chase");
                // The one-worker run is the sequential algorithm itself:
                // models agree bit for bit.
                if p == 1 {
                    match (r.model(), expected.model()) {
                        (Some(a), Some(b)) => {
                            assert_eq!(fingerprint(a), fingerprint(b), "seed={seed}")
                        }
                        (None, None) => {}
                        _ => panic!("model presence diverged (seed={seed})"),
                    }
                }
            }
        }
    }
}

#[test]
fn lifted_gfd_imp_matches_seed_at_every_worker_count() {
    let w = real_life_workload(Dataset::Tiny, 30, 11, None);
    let deps = DepSet::from_gfds(w.sigma.clone());
    for probe in &w.probes {
        let expected = gfd::seq_imp(&w.sigma, &probe.phi).is_implied();
        assert_eq!(expected, probe.expect_implied, "{}", probe.phi.name);
        for p in worker_counts() {
            let r = dep_imp_with_config(
                &deps,
                &Dependency::from_gfd(probe.phi.clone()),
                &chase_cfg(p),
            );
            assert_eq!(r.is_implied(), expected, "probe={} p={p}", probe.phi.name);
        }
    }
}

#[test]
fn lifted_gfd_detect_is_bit_identical_at_every_worker_count() {
    let mut vocab = Vocab::new();
    let t = vocab.label("t");
    let e = vocab.label("e");
    let a = vocab.attr("a");
    let mut g = Graph::new();
    let mut prev = None;
    for i in 0..60 {
        let n = g.add_node(t);
        g.set_attr(n, a, Value::int((i % 3) as i64));
        if let Some(p) = prev {
            g.add_edge(p, e, n);
        }
        prev = Some(n);
    }
    let mut p = Pattern::new();
    let x = p.add_node(t, "x");
    let y = p.add_node(t, "y");
    p.add_edge(x, e, y);
    let sigma = GfdSet::from_vec(vec![Gfd::new(
        "eq",
        p,
        vec![],
        vec![Literal::eq_attr(x, a, y, a)],
    )]);
    let deps = DepSet::from_gfds(sigma.clone());
    let seed_report = gfd::detect::detect(&g, &sigma, &DetectConfig::with_workers(1));
    for p in worker_counts() {
        let dep_report = detect_deps(&g, &deps, &DetectConfig::with_workers(p));
        assert_eq!(
            violation_keys(&dep_report),
            violation_keys(&seed_report),
            "p={p}"
        );
        assert_eq!(
            dep_report.per_rule[0].matches,
            seed_report.per_rule[0].matches
        );
        assert_eq!(
            dep_report.per_rule[0].premise_hits,
            seed_report.per_rule[0].premise_hits
        );
    }
}

// ---------------------------------------------------------------------
// 2. Mixed GFD+GGD workloads: invariant across p on every goal.
// ---------------------------------------------------------------------

#[test]
fn ggd_chase_sat_is_worker_count_invariant() {
    let cfg = GgdGenConfig {
        chain_depth: 3,
        gen_per_tier: 2,
        fanout: 2,
        literal_rules: 3,
        seed: 13,
    };
    let mut vocab = Vocab::new();
    let deps = mixed_ggd_workload(&cfg, &mut vocab);
    let base = dep_sat_with_config(&deps, &chase_cfg(1));
    assert!(base.is_satisfiable());
    let base_fp = fingerprint(base.model().unwrap());
    for p in worker_counts() {
        let mut ccfg = chase_cfg(p);
        ccfg.ttl = std::time::Duration::ZERO;
        ccfg.batch = 1; // force maximal splitting
        let r = dep_sat_with_config(&deps, &ccfg);
        assert!(r.is_satisfiable(), "p={p}");
        assert_eq!(r.stats.generated_nodes, base.stats.generated_nodes, "p={p}");
        assert_eq!(r.stats.rounds, base.stats.rounds, "p={p}");
        // The spent-match ledger is part of the determinism: which
        // matches are scanned and committed does not depend on p.
        assert_eq!(r.stats.premise_evals, base.stats.premise_evals, "p={p}");
        assert_eq!(
            r.stats.apply_independent, base.stats.apply_independent,
            "p={p}"
        );
        assert_eq!(r.stats.apply_conflicts, base.stats.apply_conflicts, "p={p}");
        assert_eq!(fingerprint(r.model().unwrap()), base_fp, "p={p}");
    }

    // The deep-conflict variant is UNSAT at every worker count, and only
    // after generating.
    let mut vocab = Vocab::new();
    let bad = ggd_conflict_workload(&cfg, &mut vocab);
    for p in worker_counts() {
        let r = dep_sat_with_config(&bad, &chase_cfg(p));
        assert!(
            matches!(r.outcome, DepSatOutcome::Unsatisfiable(_)),
            "p={p}"
        );
        assert!(r.stats.generated_nodes > 0, "p={p}");
    }
}

/// Adversarial case for the parallel apply: the overlap workload is
/// built so that almost every round's firings collide in the conflict
/// partition (same-key rider cliques, cross-node merges along generated
/// edges, sibling generators on one premise node). The parallel path
/// must route the residual through the serial fallback and still land
/// on the serial fixpoint — bit for bit, at every worker count, under
/// forced maximal splitting.
#[test]
fn conflict_heavy_chase_is_worker_count_invariant() {
    let cfg = GgdGenConfig {
        chain_depth: 3,
        gen_per_tier: 2,
        fanout: 2,
        literal_rules: 3,
        seed: 37,
    };
    let mut vocab = Vocab::new();
    let deps = ggd_overlap_workload(&cfg, &mut vocab);
    let base = dep_sat_with_config(&deps, &chase_cfg(1));
    assert!(base.is_satisfiable());
    assert!(
        base.stats.apply_conflicts > 0,
        "workload must actually exercise the serial fallback: {:?}",
        base.stats
    );
    let base_fp = fingerprint(base.model().unwrap());
    for p in worker_counts() {
        let mut ccfg = chase_cfg(p);
        ccfg.ttl = std::time::Duration::ZERO;
        ccfg.batch = 1; // force maximal splitting
        let r = dep_sat_with_config(&deps, &ccfg);
        assert!(r.is_satisfiable(), "p={p}");
        assert_eq!(r.stats.rounds, base.stats.rounds, "p={p}");
        assert_eq!(r.stats.generated_nodes, base.stats.generated_nodes, "p={p}");
        assert_eq!(
            r.stats.apply_conflicts, base.stats.apply_conflicts,
            "the conflict partition is deterministic, p={p}"
        );
        assert_eq!(
            r.stats.apply_independent, base.stats.apply_independent,
            "p={p}"
        );
        assert_eq!(fingerprint(r.model().unwrap()), base_fp, "p={p}");
    }
}

/// The generating chase is semi-naive: each `(rule, match)` is committed
/// at most once, so the committed firings cannot outnumber the matches
/// enumerated. A naive rescan re-commits every literal firing each round
/// it still fires, which on these sets exceeds the enumeration count.
#[test]
fn ggd_chase_commits_each_match_at_most_once() {
    let mixed = GgdGenConfig {
        chain_depth: 2,
        gen_per_tier: 2,
        fanout: 3,
        literal_rules: 8,
        seed: 13,
    };
    let overlap = GgdGenConfig {
        chain_depth: 3,
        gen_per_tier: 2,
        fanout: 2,
        literal_rules: 3,
        seed: 37,
    };
    let sets = [
        ("mixed", mixed_ggd_workload(&mixed, &mut Vocab::new())),
        ("overlap", ggd_overlap_workload(&overlap, &mut Vocab::new())),
    ];
    for (name, deps) in &sets {
        for p in worker_counts() {
            let r = dep_sat_with_config(deps, &chase_cfg(p));
            assert!(r.is_satisfiable(), "{name} p={p}");
            let committed = r.stats.apply_independent + r.stats.apply_conflicts;
            assert!(
                committed <= r.stats.matches_enumerated,
                "{name} p={p}: {committed} firings committed from {} matches",
                r.stats.matches_enumerated
            );
        }
    }
}

#[test]
fn ggd_imp_is_worker_count_invariant() {
    let cfg = GgdGenConfig {
        chain_depth: 2,
        gen_per_tier: 1,
        fanout: 1,
        literal_rules: 2,
        seed: 21,
    };
    let mut vocab = Vocab::new();
    let deps = mixed_ggd_workload(&cfg, &mut vocab);
    // Implied probe: the tier-0 rule's own creation, re-asserted.
    let t0 = vocab.label("tier0");
    let t1 = vocab.label("tier1");
    let gen_lbl = vocab.label("gen");
    let a0 = vocab.attr("a0");
    let mut p = Pattern::new();
    let x = p.add_node(t0, "x");
    let mut gen = GenerateConsequence::over(&p);
    let y = gen.add_fresh(t1, "y");
    gen.add_edge(x, gen_lbl, y);
    let probe_good = Dependency::new(
        "probe_good",
        p.clone(),
        vec![Literal::eq_const(x, a0, 0i64)],
        Consequence::Generate(gen),
    );
    // Not implied: requires an edge label nothing generates.
    let other = vocab.label("unrelated");
    let mut gen = GenerateConsequence::over(&p);
    let y = gen.add_fresh(t1, "y");
    gen.add_edge(x, other, y);
    let probe_bad = Dependency::new(
        "probe_bad",
        p,
        vec![Literal::eq_const(x, a0, 0i64)],
        Consequence::Generate(gen),
    );
    for p in worker_counts() {
        assert!(
            dep_imp_with_config(&deps, &probe_good, &chase_cfg(p)).is_implied(),
            "p={p}"
        );
        assert!(
            !dep_imp_with_config(&deps, &probe_bad, &chase_cfg(p)).is_implied(),
            "p={p}"
        );
    }
}

#[test]
fn ggd_detect_is_worker_count_invariant() {
    let cfg = GgdGenConfig {
        chain_depth: 2,
        gen_per_tier: 2,
        fanout: 2,
        literal_rules: 2,
        seed: 29,
    };
    let mut vocab = Vocab::new();
    let deps = mixed_ggd_workload(&cfg, &mut vocab);
    // A data graph of tier-0 nodes: every generating rule's target is
    // missing, every literal rider premise-fires where applicable.
    let g = tier0_graph(24, &mut vocab);
    let base = detect_deps(&g, &deps, &DetectConfig::with_workers(1));
    assert!(!base.is_clean(), "missing targets must violate");
    for p in worker_counts() {
        let cfgp = DetectConfig {
            ttl: std::time::Duration::ZERO,
            batch_size: 2,
            ..DetectConfig::with_workers(p)
        };
        let r = detect_deps(&g, &deps, &cfgp);
        assert_eq!(violation_keys(&r), violation_keys(&base), "p={p}");
    }
}

// ---------------------------------------------------------------------
// 3. The generating chase is order-independent (proptest).
// ---------------------------------------------------------------------

/// Apply a seeded permutation to a rule set.
fn permute(deps: &DepSet, order_seed: u64) -> DepSet {
    let mut rules: Vec<Dependency> = deps.as_slice().to_vec();
    // Seeded Fisher–Yates on a splitmix stream (no rand dependency in
    // the root test crate).
    let mut state = order_seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        state = state.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(1);
        state >> 33
    };
    for i in (1..rules.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        rules.swap(i, j);
    }
    DepSet::from_vec(rules)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chasing a mixed rule set to fixpoint is invariant under rule
    /// reordering: same outcome kind, same amount of generation, same
    /// model shape. Round-snapshot realization (parallel independence)
    /// is what makes this hold.
    #[test]
    fn chase_fixpoint_is_order_independent(
        depth in 1usize..4,
        gen_per_tier in 1usize..3,
        fanout in 1usize..3,
        literal_rules in 0usize..4,
        seed in 0u64..1000,
        order_seed in 0u64..1000,
        conflict in 0u8..2,
    ) {
        let cfg = GgdGenConfig {
            chain_depth: depth,
            gen_per_tier,
            fanout,
            literal_rules,
            seed,
        };
        let mut vocab = Vocab::new();
        let deps = if conflict == 1 {
            ggd_conflict_workload(&cfg, &mut vocab)
        } else {
            mixed_ggd_workload(&cfg, &mut vocab)
        };
        let shuffled = permute(&deps, order_seed);

        let a = dep_sat_with_config(&deps, &chase_cfg(1));
        let b = dep_sat_with_config(&shuffled, &chase_cfg(1));
        prop_assert_eq!(a.is_satisfiable(), b.is_satisfiable());
        prop_assert_eq!(
            matches!(a.outcome, DepSatOutcome::Unknown { .. }),
            matches!(b.outcome, DepSatOutcome::Unknown { .. })
        );
        prop_assert_eq!(a.stats.generated_nodes, b.stats.generated_nodes);
        if let (Some(ma), Some(mb)) = (a.model(), b.model()) {
            prop_assert_eq!(fingerprint(ma), fingerprint(mb));
        }
    }

    /// Conflict-heavy variant of worker independence: random overlap
    /// workloads whose firings share touched attrs and premise nodes,
    /// chased at p ∈ {1, 2, 8} with forced splitting. Parallel apply ≡
    /// serial apply even when the partition is mostly conflicts.
    #[test]
    fn conflict_heavy_chase_is_worker_independent(
        depth in 1usize..3,
        gen_per_tier in 1usize..3,
        literal_rules in 2usize..4,
        seed in 0u64..500,
    ) {
        let cfg = GgdGenConfig {
            chain_depth: depth,
            gen_per_tier,
            fanout: 2,
            literal_rules,
            seed,
        };
        let mut vocab = Vocab::new();
        let deps = ggd_overlap_workload(&cfg, &mut vocab);
        let base = dep_sat_with_config(&deps, &chase_cfg(1));
        prop_assert!(base.is_satisfiable());
        let base_fp = fingerprint(base.model().unwrap());
        for p in [2usize, 8] {
            let mut ccfg = chase_cfg(p);
            ccfg.ttl = std::time::Duration::ZERO;
            ccfg.batch = 1;
            let r = dep_sat_with_config(&deps, &ccfg);
            prop_assert!(r.is_satisfiable(), "p={}", p);
            prop_assert_eq!(r.stats.rounds, base.stats.rounds);
            prop_assert_eq!(r.stats.generated_nodes, base.stats.generated_nodes);
            prop_assert_eq!(r.stats.apply_conflicts, base.stats.apply_conflicts);
            prop_assert_eq!(fingerprint(r.model().unwrap()), base_fp.clone());
        }
    }

    /// And invariant across worker counts under forced splitting, on the
    /// same random workloads.
    #[test]
    fn chase_fixpoint_is_worker_independent(
        depth in 1usize..3,
        seed in 0u64..500,
    ) {
        let cfg = GgdGenConfig {
            chain_depth: depth,
            gen_per_tier: 2,
            fanout: 2,
            literal_rules: 2,
            seed,
        };
        let mut vocab = Vocab::new();
        let deps = mixed_ggd_workload(&cfg, &mut vocab);
        let base = dep_sat_with_config(&deps, &chase_cfg(1));
        for p in [2usize, 4] {
            let mut ccfg = chase_cfg(p);
            ccfg.ttl = std::time::Duration::ZERO;
            ccfg.batch = 1;
            let r = dep_sat_with_config(&deps, &ccfg);
            prop_assert_eq!(r.is_satisfiable(), base.is_satisfiable(), "p={}", p);
            prop_assert_eq!(r.stats.generated_nodes, base.stats.generated_nodes);
            if let (Some(ma), Some(mb)) = (r.model(), base.model()) {
                prop_assert_eq!(fingerprint(ma), fingerprint(mb));
            }
        }
    }
}

// ---------------------------------------------------------------------
// 4. The interned value pipeline is semantics-preserving (proptest).
// ---------------------------------------------------------------------
//
// Attribute values are globally interned `ValueId`s and every hot-path
// literal check is a `u32` compare (DESIGN.md §15). These properties pin
// the contract that makes the substitution sound — id equality ⟺ value
// equality, stable under re-interning — and that the drivers built on it
// (Detect, Sat, the incremental engine under attr-overwrite deltas)
// agree with value-level semantics at p ∈ {1, 8}, on values chosen to be
// hostile to shortcuts: unicode, the empty string, strings that *look*
// like numbers or booleans, boundary integers.

/// The adversarial value pool. `Str("42")`, `Str("true")` and `Str("")`
/// must stay distinct from `Int(42)`, `Bool(true)` and everything else.
fn value_pool() -> Vec<Value> {
    vec![
        Value::str(""),
        Value::str("Zürich"),
        Value::str("東京"),
        Value::str("Ωmega ∂"),
        Value::str("  spaced  out  "),
        Value::str("42"),
        Value::str("true"),
        Value::int(42),
        Value::int(0),
        Value::int(-7),
        Value::int(i64::MAX),
        Value::int(i64::MIN),
        Value::Bool(true),
        Value::Bool(false),
    ]
}

/// Two string-heavy rules over a `t --e--> t` edge: a unicode constant
/// premise and an attr-equality consequence — every check crosses the
/// interned fast path.
fn pool_rules(vocab: &mut Vocab) -> GfdSet {
    let t = vocab.label("t");
    let e = vocab.label("e");
    let a = vocab.attr("a");
    let b = vocab.attr("b");
    let mut p1 = Pattern::new();
    let x = p1.add_node(t, "x");
    let y = p1.add_node(t, "y");
    p1.add_edge(x, e, y);
    let r1 = Gfd::new(
        "uni-const",
        p1,
        vec![Literal::eq_const(x, a, Value::str("Zürich"))],
        vec![Literal::eq_const(y, a, Value::str("東京"))],
    );
    let mut p2 = Pattern::new();
    let x = p2.add_node(t, "x");
    let y = p2.add_node(t, "y");
    p2.add_edge(x, e, y);
    let r2 = Gfd::new("pool-eq", p2, vec![], vec![Literal::eq_attr(x, b, y, b)]);
    GfdSet::from_vec(vec![r1, r2])
}

/// Build a pool-valued graph: `n` nodes in a chain-with-chords topology,
/// attrs `a`/`b` drawn from the pool by index.
fn pool_graph(n: usize, picks: &[usize], vocab: &mut Vocab) -> Graph {
    let pool = value_pool();
    let t = vocab.label("t");
    let e = vocab.label("e");
    let a = vocab.attr("a");
    let b = vocab.attr("b");
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(t)).collect();
    for i in 0..n {
        g.add_edge(nodes[i], e, nodes[(i + 1) % n]);
        if i % 3 == 0 {
            g.add_edge(nodes[i], e, nodes[(i + 5) % n]);
        }
    }
    for (i, &node) in nodes.iter().enumerate() {
        let va = &pool[picks[(2 * i) % picks.len()] % pool.len()];
        let vb = &pool[picks[(2 * i + 1) % picks.len()] % pool.len()];
        g.set_attr(node, a, va.clone());
        g.set_attr(node, b, vb.clone());
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Id equality ⟺ value equality, for every pair of attribute values
    /// a pool graph carries, and every id survives a resolve → re-intern
    /// round trip unchanged. This is the exact property literal checks
    /// rely on when they compare raw `u32`s.
    #[test]
    fn interned_ids_agree_with_value_equality(
        n in 4usize..16,
        picks in proptest::collection::vec(0usize..64, 8..32),
    ) {
        let mut vocab = Vocab::new();
        let g = pool_graph(n, &picks, &mut vocab);
        let ids: Vec<ValueId> = g
            .nodes()
            .flat_map(|v| g.attrs(v).iter().map(|&(_, id)| id).collect::<Vec<_>>())
            .collect();
        for &x in &ids {
            prop_assert_eq!(ValueId::of(x.resolve()), x, "re-intern must be stable");
            for &y in &ids {
                prop_assert_eq!(
                    x == y,
                    x.resolve() == y.resolve(),
                    "id {:?} vs {:?} ({:?} vs {:?})",
                    x, y, x.resolve(), y.resolve()
                );
            }
        }
    }

    /// Detect over pool-valued graphs: the violation set matches a
    /// value-level re-evaluation of every rule literal, and is identical
    /// at p = 1 and p = 8.
    #[test]
    fn detect_on_pool_values_matches_value_semantics(
        n in 4usize..16,
        picks in proptest::collection::vec(0usize..64, 8..32),
    ) {
        let mut vocab = Vocab::new();
        let g = pool_graph(n, &picks, &mut vocab);
        let sigma = pool_rules(&mut vocab);
        let base = gfd::detect::detect(&g, &sigma, &DetectConfig::with_workers(1));
        let wide = gfd::detect::detect(&g, &sigma, &DetectConfig::with_workers(8));
        prop_assert_eq!(violation_keys(&base), violation_keys(&wide));
        // Every reported violation must also violate under *value*
        // semantics: premise holds, some consequence literal fails, with
        // literals decided by resolving ids back to `Value`s.
        let holds = |g: &Graph, lit: &Literal, m: &[NodeId]| -> bool {
            let left = g.attr(m[lit.var.index()], lit.attr).map(ValueId::resolve);
            match &lit.rhs {
                Operand::Const(c) => left.as_ref() == Some(&c.resolve()),
                Operand::Attr(v2, a2) => {
                    let right = g.attr(m[v2.index()], *a2).map(ValueId::resolve);
                    matches!((left, right), (Some(l), Some(r)) if l == r)
                }
            }
        };
        for v in &base.violations {
            let dep = sigma.get(v.gfd);
            prop_assert!(dep.premise.iter().all(|l| holds(&g, l, &v.m)));
            prop_assert!(!dep.consequence.iter().all(|l| holds(&g, l, &v.m)));
        }
    }

    /// Attr-overwrite deltas through the incremental engine: batches
    /// that repeatedly overwrite the same (node, attr) slots with pool
    /// values — unicode → empty → int → bool — leave exactly the
    /// violation set a from-scratch detect computes, at p ∈ {1, 8}.
    #[test]
    fn attr_overwrite_deltas_stay_equivalent(
        n in 6usize..14,
        picks in proptest::collection::vec(0usize..64, 8..32),
        writes in proptest::collection::vec((0usize..14, 0usize..2, 0usize..64), 4..24),
    ) {
        let mut vocab = Vocab::new();
        let g = pool_graph(n, &picks, &mut vocab);
        let sigma = pool_rules(&mut vocab);
        let a = vocab.attr("a");
        let b = vocab.attr("b");
        let pool = value_pool();
        // Three batches over the same write list: each batch shifts the
        // value index, so most slots are overwritten repeatedly across
        // (and within) batches.
        let batches: Vec<gfd::graph::DeltaBatch> = (0..3)
            .map(|round| {
                let mut batch = gfd::graph::DeltaBatch::new();
                for &(node, which, vi) in &writes {
                    let attr = if which == 0 { a } else { b };
                    let value = pool[(vi + round) % pool.len()].clone();
                    batch.set_attr(NodeId::new(node % n), attr, value);
                }
                batch
            })
            .collect();
        for p in [1usize, 8] {
            let mut incr = gfd::incr::IncrementalDetector::new(
                g.clone(),
                sigma.clone(),
                gfd::incr::IncrConfig {
                    detect: DetectConfig::with_workers(p),
                    compact_fraction: 0.25,
                },
            );
            let mut reference = g.clone();
            for (i, batch) in batches.iter().enumerate() {
                incr.apply(batch);
                batch.apply_to_graph(&mut reference);
                let full = gfd::detect::detect(
                    &reference,
                    &sigma,
                    &DetectConfig::with_workers(p),
                );
                let keys: Vec<(usize, Vec<usize>)> = incr
                    .violations()
                    .iter()
                    .map(|v| (v.gfd.index(), v.m.iter().map(|x| x.index()).collect()))
                    .collect();
                let full_keys: Vec<(usize, Vec<usize>)> = full
                    .violations
                    .iter()
                    .map(|v| (v.gfd.index(), v.m.iter().map(|x| x.index()).collect()))
                    .collect();
                prop_assert_eq!(keys, full_keys, "p={} batch={}", p, i);
            }
        }
    }

    /// Sat and chase at p = 1 vs p = 8 on string-heavy literal sets:
    /// verdicts agree with the sequential driver, and lifted runs agree
    /// with each other, when every constant comes from the pool.
    #[test]
    fn sat_on_pool_constants_is_worker_invariant(
        consts in proptest::collection::vec((0usize..14, 0usize..14), 2..6),
    ) {
        let pool = value_pool();
        let mut vocab = Vocab::new();
        let t = vocab.label("t");
        let e = vocab.label("e");
        let a = vocab.attr("a");
        let rules: Vec<Gfd> = consts
            .iter()
            .enumerate()
            .map(|(i, &(ci, cj))| {
                let mut p = Pattern::new();
                let x = p.add_node(t, "x");
                let y = p.add_node(t, "y");
                p.add_edge(x, e, y);
                Gfd::new(
                    format!("r{i}"),
                    p,
                    vec![Literal::eq_const(x, a, pool[ci].clone())],
                    vec![Literal::eq_const(y, a, pool[cj].clone())],
                )
            })
            .collect();
        let sigma = GfdSet::from_vec(rules);
        let expected = gfd::seq_sat(&sigma).is_satisfiable();
        let deps = DepSet::from_gfds(sigma.clone());
        for p in [1usize, 8] {
            let r = dep_sat_with_config(&deps, &chase_cfg(p));
            prop_assert_eq!(r.is_satisfiable(), expected, "p={}", p);
        }
    }
}
