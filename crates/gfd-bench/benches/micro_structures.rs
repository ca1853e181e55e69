//! Criterion microbenchmarks of the core data structures, plus ablations
//! of the design choices DESIGN.md calls out (dependency ordering,
//! component pruning).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gfd_core::{sat_with_config, EqRel, ReasonConfig};
use gfd_gen::synthetic_workload;
use gfd_graph::{AttrId, Graph, LabelIndex, NodeId, Pattern, Vocab};
use gfd_match::{dual_simulation, MatchPlan};
use gfd_runtime::DispatchMode;
use std::hint::black_box;

fn bench_eq_rel(c: &mut Criterion) {
    let mut g = c.benchmark_group("eq_rel");
    g.bench_function("bind_1k", |b| {
        b.iter(|| {
            let mut eq = EqRel::new();
            for i in 0..1000usize {
                eq.bind(
                    (NodeId::new(i), AttrId::new(i % 7)),
                    gfd_graph::ValueId::of((i % 5) as i64),
                )
                .unwrap();
            }
            black_box(eq.key_count())
        })
    });
    g.bench_function("merge_chain_1k", |b| {
        b.iter(|| {
            let mut eq = EqRel::new();
            for i in 0..1000usize {
                eq.merge(
                    (NodeId::new(i), AttrId::new(0)),
                    (NodeId::new(i + 1), AttrId::new(0)),
                )
                .unwrap();
            }
            black_box(eq.same_class(
                (NodeId::new(0), AttrId::new(0)),
                (NodeId::new(1000), AttrId::new(0)),
            ))
        })
    });
    g.finish();
}

/// A ring-with-chords graph that gives the matcher real work.
fn ring_graph(n: usize, vocab: &mut Vocab) -> Graph {
    let t = vocab.label("t");
    let e = vocab.label("e");
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(t)).collect();
    for i in 0..n {
        g.add_edge(nodes[i], e, nodes[(i + 1) % n]);
        g.add_edge(nodes[i], e, nodes[(i + 7) % n]);
    }
    g
}

fn bench_matching(c: &mut Criterion) {
    let mut vocab = Vocab::new();
    let g = ring_graph(256, &mut vocab);
    let idx = LabelIndex::build(&g);
    let t = vocab.label("t");
    let e = vocab.label("e");
    let mut path4 = Pattern::new();
    let vars: Vec<_> = (0..4).map(|i| path4.add_node(t, format!("v{i}"))).collect();
    for w in vars.windows(2) {
        path4.add_edge(w[0], e, w[1]);
    }

    let mut group = c.benchmark_group("matching");
    group.bench_function("count_path4_ring256", |b| {
        b.iter(|| black_box(gfd_match::count_matches(&g, &idx, &path4)))
    });
    group.bench_function("plan_build", |b| {
        b.iter(|| black_box(MatchPlan::build(&path4, None, Some(&idx))))
    });
    group.bench_function("dual_simulation", |b| {
        b.iter(|| black_box(dual_simulation(&g, &idx, &path4).is_some()))
    });
    group.finish();
}

/// A graph with average out-degree ≥ 16 across several edge labels: the
/// regime where the frozen CSR's O(log d) probes and label sub-slices
/// must beat the builder's Vec scans (DESIGN.md §1).
fn dense_graph(n: usize, out_degree: usize, labels: usize, vocab: &mut Vocab) -> Graph {
    let t = vocab.label("t");
    let ls: Vec<_> = (0..labels).map(|i| vocab.label(&format!("e{i}"))).collect();
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(t)).collect();
    for i in 0..n {
        for j in 1..=out_degree {
            // Deterministic pseudo-random targets, spread over labels.
            let dst = (i * 31 + j * 97) % n;
            g.add_edge(nodes[i], ls[j % labels], nodes[dst]);
        }
    }
    g
}

/// Head-to-head: builder Vec-scan vs frozen CSR on the two probes that
/// dominate the matching hot path.
fn bench_structures(c: &mut Criterion) {
    let mut vocab = Vocab::new();
    let n = 1024;
    let degree = 32; // well past the ≥16 crossover regime
    let g = dense_graph(n, degree, 4, &mut vocab);
    let csr = g.freeze();
    let labels: Vec<_> = (0..4).map(|i| vocab.label(&format!("e{i}"))).collect();

    // A fixed probe mix: half hits (the exact label and target an edge
    // was built with), half misses.
    let probes: Vec<(NodeId, gfd_graph::LabelId, NodeId)> = (0..512)
        .map(|k| {
            let src = (k * 53) % n;
            if k % 2 == 0 {
                // dense_graph added src --e{j%4}--> (src*31 + j*97) % n.
                let j = k % degree + 1;
                let dst = (src * 31 + j * 97) % n;
                (NodeId::new(src), labels[j % 4], NodeId::new(dst))
            } else {
                let dst = (src * 31 + 1) % n; // usually absent
                (NodeId::new(src), labels[k % 4], NodeId::new(dst))
            }
        })
        .collect();
    let hits = probes
        .iter()
        .filter(|&&(s, l, d)| g.has_edge(s, l, d))
        .count();
    assert!(
        (200..=312).contains(&hits),
        "probe mix should be roughly half hits, got {hits}/512"
    );

    let mut group = c.benchmark_group("micro_structures");
    group.bench_function("has_edge/vec_scan", |b| {
        b.iter(|| {
            probes
                .iter()
                .filter(|&&(s, l, d)| g.has_edge(s, l, d))
                .count()
        })
    });
    group.bench_function("has_edge/csr", |b| {
        b.iter(|| {
            probes
                .iter()
                .filter(|&&(s, l, d)| csr.has_edge(s, l, d))
                .count()
        })
    });

    // Anchored expansion: candidates of (node, label), deduplicated —
    // the Vec-scan variant filters the whole adjacency with a
    // `contains` dedup exactly as the pre-CSR matcher did.
    group.bench_function("anchored_expansion/vec_scan", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for i in 0..n {
                let v = NodeId::new(i);
                let label = labels[i % 4];
                let mut candidates: Vec<NodeId> = Vec::new();
                for &(el, node) in g.out_edges(v) {
                    if label.pattern_matches(el) && !candidates.contains(&node) {
                        candidates.push(node);
                    }
                }
                total += candidates.len();
            }
            total
        })
    });
    group.bench_function("anchored_expansion/csr", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for i in 0..n {
                let v = NodeId::new(i);
                let label = labels[i % 4];
                // Sub-slice node ids strictly increase: dedup is free.
                total += csr.out_with_label(v, label).len();
            }
            total
        })
    });
    group.finish();
}

/// Head-to-head: streamed two-pointer intersection vs the galloping
/// (exponential-probe) fallback `intersect_sorted_view` switches to when
/// one side is ≥8x longer. Balanced inputs stay on the two-pointer; the
/// skewed cases pin that galloping wins by a wide margin there.
fn bench_intersect(c: &mut Criterion) {
    // `long` = every 3rd id of a 192k universe; `short` = 64 scattered
    // ids (1000x skew); `mid` = comparable density for the balanced case.
    let long: Vec<NodeId> = (0..65_536usize).map(|i| NodeId::new(i * 3)).collect();
    let short: Vec<NodeId> = (0..64usize).map(|i| NodeId::new(i * 3001)).collect();
    let mid: Vec<NodeId> = (0..65_536usize).map(|i| NodeId::new(i * 3 + 1)).collect();
    let expect = gfd_match::intersect_slices_two_pointer(&short, &long);
    assert_eq!(gfd_match::intersect_slices_gallop(&short, &long), expect);

    let mut group = c.benchmark_group("intersect");
    group.bench_function("skewed_1000x/two_pointer", |b| {
        b.iter(|| black_box(gfd_match::intersect_slices_two_pointer(&short, &long)))
    });
    group.bench_function("skewed_1000x/gallop", |b| {
        b.iter(|| black_box(gfd_match::intersect_slices_gallop(&short, &long)))
    });
    group.bench_function("balanced/two_pointer", |b| {
        b.iter(|| black_box(gfd_match::intersect_slices_two_pointer(&mid, &long)))
    });
    group.bench_function("balanced/gallop", |b| {
        b.iter(|| black_box(gfd_match::intersect_slices_gallop(&mid, &long)))
    });
    group.finish();
}

/// Head-to-head: the raw queue structures under the scheduler's access
/// pattern — one owner draining its own queue, `p - 1` thieves pulling
/// from the other end — Chase–Lev [`WsDeque`] vs the old
/// `Mutex<VecDeque>`. Acceptance: the lock-free deque is no slower at
/// p = 2 and faster at p = 8.
fn bench_deque(c: &mut Criterion) {
    use gfd_runtime::deque::{Steal, WsDeque};
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    const UNITS: usize = 65_536;
    // A unit costs a few nanoseconds, like a cheap scan unit: enough
    // that the structures are exercised at a realistic op:work ratio,
    // small enough that queue overhead still shows.
    fn consume(v: usize) -> usize {
        let mut h = v as u64 ^ 0x9e37_79b9_7f4a_7c15;
        for _ in 0..4 {
            h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(17);
        }
        h as usize & 0xff
    }

    let mut group = c.benchmark_group("deque");
    for p in [2usize, 8] {
        // Chase–Lev under the scheduler's pattern: the owner drains its
        // own bottom lock-free; each thief claims up to half the deque
        // (one top-CAS per element, like `sched::steal`), consumes the
        // loot locally, and yields when it finds nothing.
        group.bench_with_input(BenchmarkId::new("chase_lev", p), &p, |b, &p| {
            b.iter(|| {
                let dq = WsDeque::<usize>::new();
                for v in (0..UNITS).rev() {
                    dq.push(v);
                }
                let consumed = AtomicUsize::new(0);
                let sink = AtomicUsize::new(0);
                std::thread::scope(|s| {
                    for t in 0..p {
                        let (dq, consumed, sink) = (&dq, &consumed, &sink);
                        s.spawn(move || {
                            let mut local = 0usize;
                            while consumed.load(Ordering::Relaxed) < UNITS {
                                if t == 0 {
                                    let mut n = 0;
                                    while let Some(v) = dq.pop() {
                                        local += consume(v);
                                        n += 1;
                                    }
                                    consumed.fetch_add(n, Ordering::Relaxed);
                                    std::thread::yield_now();
                                } else {
                                    let mut budget = dq.len_hint().div_ceil(2).max(1);
                                    let mut loot = Vec::with_capacity(budget);
                                    while budget > 0 {
                                        match dq.steal() {
                                            Steal::Success(v) => {
                                                loot.push(v);
                                                budget -= 1;
                                            }
                                            Steal::Retry => continue,
                                            Steal::Empty => break,
                                        }
                                    }
                                    if loot.is_empty() {
                                        std::thread::yield_now();
                                        continue;
                                    }
                                    let n = loot.len();
                                    for v in loot {
                                        local += consume(v);
                                    }
                                    consumed.fetch_add(n, Ordering::Relaxed);
                                }
                            }
                            sink.fetch_add(local, Ordering::Relaxed);
                        });
                    }
                });
                black_box(sink.into_inner())
            })
        });
        // The old layout: every owner pop takes the lock; a thief locks
        // and splits off the back half wholesale.
        group.bench_with_input(BenchmarkId::new("mutex_vecdeque", p), &p, |b, &p| {
            b.iter(|| {
                let q = Mutex::new((0..UNITS).collect::<VecDeque<usize>>());
                let consumed = AtomicUsize::new(0);
                let sink = AtomicUsize::new(0);
                std::thread::scope(|s| {
                    for t in 0..p {
                        let (q, consumed, sink) = (&q, &consumed, &sink);
                        s.spawn(move || {
                            let mut local = 0usize;
                            while consumed.load(Ordering::Relaxed) < UNITS {
                                if t == 0 {
                                    let got = q.lock().unwrap().pop_front();
                                    match got {
                                        Some(v) => {
                                            local += consume(v);
                                            consumed.fetch_add(1, Ordering::Relaxed);
                                        }
                                        None => std::thread::yield_now(),
                                    }
                                } else {
                                    let loot = {
                                        let mut q = q.lock().unwrap();
                                        let keep = q.len().div_ceil(2);
                                        q.split_off(keep)
                                    };
                                    if loot.is_empty() {
                                        std::thread::yield_now();
                                        continue;
                                    }
                                    let n = loot.len();
                                    for v in loot {
                                        local += consume(v);
                                    }
                                    consumed.fetch_add(n, Ordering::Relaxed);
                                }
                            }
                            sink.fetch_add(local, Ordering::Relaxed);
                        });
                    }
                });
                black_box(sink.into_inner())
            })
        });
    }
    group.finish();
}

/// Head-to-head: the old centralized coordinator dispatch vs per-worker
/// deques with work stealing, on the same satisfiability workload at
/// p ∈ {2, 4, 8}. Work stealing removes the idle round-trip a worker paid
/// per batch; the bench pins that it is never slower.
fn bench_scheduler(c: &mut Criterion) {
    let w = synthetic_workload(60, 5, 3, 7);
    assert!(sat_with_config(&w.sigma, &ReasonConfig::with_workers(2)).is_satisfiable());
    let mut group = c.benchmark_group("sched");
    for p in [2usize, 4, 8] {
        for (name, dispatch) in [
            ("work_stealing", DispatchMode::WorkStealing),
            ("coordinator_dispatch", DispatchMode::Coordinator),
        ] {
            let cfg = ReasonConfig::with_workers(p).with_dispatch(dispatch);
            group.bench_with_input(BenchmarkId::new(name, p), &cfg, |b, cfg| {
                b.iter(|| black_box(sat_with_config(&w.sigma, cfg).is_satisfiable()))
            });
        }
    }
    group.finish();
}

/// Head-to-head guard for the observability layer (DESIGN.md §13), in two
/// halves. First the dormant path in isolation: a disabled `TraceBuf`'s
/// per-event-site cost must stay branch-cheap (no clock read, no ring
/// write). Then the sched workload off-vs-on: with event tracing
/// *enabled* the run must stay within 2% of the trace-disabled run
/// (interleaved min-of-runs, robust to load spikes). The disabled path
/// executes a strict subset of the enabled path's per-event work, so the
/// asserted bound also caps what the no-op instrumentation costs a
/// production run. The workload uses k = 6 patterns so per-unit match
/// work amortizes the enabled path's two clock reads per span — the
/// regime every real workload is in; tracing sub-microsecond units is
/// what the ring's drop counter is for.
fn bench_trace_overhead(_c: &mut Criterion) {
    use gfd_bench::fmt_duration;
    use gfd_runtime::{EventKind, TraceBuf, TraceSpec};
    use std::time::{Duration, Instant};

    // Half 1: the no-op event site, measured directly.
    const SITES: u32 = 4_000_000;
    let mut buf = TraceBuf::new(black_box(TraceSpec::disabled()), 0);
    let start = Instant::now();
    for i in 0..SITES {
        let span = buf.start();
        buf.span(EventKind::RuleEval, i, span, 1, 0);
    }
    black_box(&mut buf);
    let per_site = start.elapsed().as_nanos() as f64 / f64::from(SITES);
    println!("trace_disabled_event_site: {per_site:.2} ns/site ({SITES} sites)");
    assert!(
        per_site < 5.0,
        "disabled event site must stay branch-cheap, got {per_site:.2} ns"
    );

    // Half 2: the sched workload (the same one `bench_scheduler` times),
    // tracing off vs on. The enabled ring is sized to the run: the
    // default 2^16-entry ring is a ~3 MiB-per-worker allocation that
    // would dominate a millisecond-scale run as a fixed cost, which is
    // start-up amortization, not per-event overhead.
    let w = synthetic_workload(60, 5, 3, 7);
    let off_cfg = ReasonConfig::with_workers(4).with_trace(TraceSpec::disabled());
    let on_cfg = ReasonConfig::with_workers(4).with_trace(TraceSpec::with_capacity(1 << 12));
    let run = |cfg: &ReasonConfig| {
        let start = Instant::now();
        black_box(sat_with_config(&w.sigma, cfg).is_satisfiable());
        start.elapsed()
    };
    let (_, _) = (run(&off_cfg), run(&on_cfg)); // warm-up
    let (mut off, mut on) = (Duration::MAX, Duration::MAX);
    for _ in 0..9 {
        off = off.min(run(&off_cfg));
        on = on.min(run(&on_cfg));
    }
    let overhead = on.as_secs_f64() / off.as_secs_f64() - 1.0;
    println!(
        "sched_trace_overhead/p4: trace_off {}  trace_on {}  overhead {:+.2}%",
        fmt_duration(off),
        fmt_duration(on),
        overhead * 100.0,
    );
    // 2% relative plus a 2ms absolute floor: quick-scale runs are a few
    // tens of ms, where a bare percentage would amplify timer noise.
    assert!(
        on <= off.mul_f64(1.02) + Duration::from_millis(2),
        "tracing overhead exceeded 2%: off={off:?} on={on:?}"
    );
}

/// Zero-cost guard for the `Atomics` family parameterization
/// (DESIGN.md §14.2): the production `WsDeque<usize, StdAtomics>` —
/// the generic deque instantiated with the delegating family — must
/// run the owner's push/pop hot loop no slower than a hand-inlined
/// monomorphic Chase–Lev written directly against `std::sync::atomic`.
/// `StdAtomics` is `#[inline(always)]` delegation over the std types,
/// so the two loops should compile to the same code; the assertion
/// (min-of-interleaved-runs, with an absolute floor against timer
/// noise) catches any future indirection creeping into the family
/// traits.
fn bench_atomics_zero_cost(_c: &mut Criterion) {
    use gfd_bench::fmt_duration;
    use gfd_runtime::deque::WsDeque;
    use std::cell::UnsafeCell;
    use std::mem::MaybeUninit;
    use std::sync::atomic::{fence, AtomicIsize, Ordering};
    use std::time::{Duration, Instant};

    const BATCH: usize = 256;
    const ROUNDS: usize = 20_000;

    /// The baseline: the same C11 Chase–Lev owner path, monomorphic,
    /// no trait in sight — including the buffer-pointer indirection
    /// the real deque pays on every op (fixed capacity, so the grow
    /// branch is taken-but-never-entered on both sides, like the
    /// workload itself guarantees for the generic deque too).
    struct RawBuffer {
        slots: Box<[UnsafeCell<MaybeUninit<usize>>]>,
        mask: usize,
    }
    struct RawDeque {
        bottom: AtomicIsize,
        top: AtomicIsize,
        buf: std::sync::atomic::AtomicPtr<RawBuffer>,
    }
    impl RawDeque {
        fn new(cap: usize) -> Self {
            let cap = cap.next_power_of_two();
            let buf = Box::new(RawBuffer {
                slots: (0..cap)
                    .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                    .collect(),
                mask: cap - 1,
            });
            RawDeque {
                bottom: AtomicIsize::new(0),
                top: AtomicIsize::new(0),
                buf: std::sync::atomic::AtomicPtr::new(Box::into_raw(buf)),
            }
        }
        fn push(&self, value: usize) {
            let b = self.bottom.load(Ordering::Relaxed);
            let t = self.top.load(Ordering::Acquire);
            let buf = self.buf.load(Ordering::Relaxed);
            // SAFETY: single-threaded here; `buf` is the live buffer
            // and slot `b` is outside the live window until the
            // release store below.
            unsafe {
                assert!(b - t < ((*buf).mask + 1) as isize, "baseline never grows");
                (*(*buf).slots[(b as usize) & (*buf).mask].get()).write(value);
            }
            self.bottom.store(b + 1, Ordering::Release);
        }
        fn pop(&self) -> Option<usize> {
            let b = self.bottom.load(Ordering::Relaxed) - 1;
            let buf = self.buf.load(Ordering::Relaxed);
            self.bottom.store(b, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            let t = self.top.load(Ordering::Relaxed);
            if t > b {
                self.bottom.store(b + 1, Ordering::Relaxed);
                return None;
            }
            // SAFETY: `[t, b]` non-empty, slot `b` written by a prior push.
            let value =
                unsafe { (*(*buf).slots[(b as usize) & (*buf).mask].get()).assume_init_read() };
            if t == b {
                let won = self
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.bottom.store(b + 1, Ordering::Relaxed);
                if !won {
                    return None;
                }
            }
            Some(value)
        }
    }
    impl Drop for RawDeque {
        fn drop(&mut self) {
            // SAFETY: created by `Box::into_raw` in `new`, never replaced.
            drop(unsafe { Box::from_raw(*self.buf.get_mut()) });
        }
    }

    let generic = WsDeque::<usize>::with_capacity(BATCH);
    let run_generic = || {
        let start = Instant::now();
        let mut acc = 0usize;
        for _ in 0..ROUNDS {
            for i in 0..BATCH {
                generic.push(i);
            }
            while let Some(v) = generic.pop() {
                acc = acc.wrapping_add(v);
            }
        }
        black_box(acc);
        start.elapsed()
    };
    let raw = RawDeque::new(BATCH);
    let run_raw = || {
        let start = Instant::now();
        let mut acc = 0usize;
        for _ in 0..ROUNDS {
            for i in 0..BATCH {
                raw.push(i);
            }
            while let Some(v) = raw.pop() {
                acc = acc.wrapping_add(v);
            }
        }
        black_box(acc);
        start.elapsed()
    };

    let (_, _) = (run_generic(), run_raw()); // warm-up
    let (mut generic_t, mut raw_t) = (Duration::MAX, Duration::MAX);
    for _ in 0..9 {
        generic_t = generic_t.min(run_generic());
        raw_t = raw_t.min(run_raw());
    }
    let overhead = generic_t.as_secs_f64() / raw_t.as_secs_f64() - 1.0;
    println!(
        "atomics_zero_cost: generic {}  monomorphic {}  overhead {:+.2}%",
        fmt_duration(generic_t),
        fmt_duration(raw_t),
        overhead * 100.0,
    );
    // 10% relative plus a 2ms absolute floor: the loops should be
    // instruction-identical, but micro-loop timing wobbles with
    // alignment and machine load.
    assert!(
        generic_t <= raw_t.mul_f64(1.10) + Duration::from_millis(2),
        "Atomics parameterization is not zero-cost: generic={generic_t:?} raw={raw_t:?}"
    );
}

/// Asserted guard for the interned-value literal path (DESIGN.md §15):
/// a `ValueId` equality check must beat the `Value::Str(Arc<str>)`
/// content compare by ≥ 3x on a string-heavy mix, and must not regress
/// the balanced (int-heavy) mix the old representation was already fast
/// on. Both sides answer the same probe list and must agree exactly —
/// id equality ⟺ value equality is what makes the substitution sound.
fn bench_literal_interning(_c: &mut Criterion) {
    use gfd_bench::fmt_duration;
    use gfd_graph::{Value, ValueId};
    use std::time::{Duration, Instant};

    // 64 distinct strings with a long shared prefix, so content compares
    // walk real bytes before diverging. Left/right pools are allocated
    // separately: equal contents never share an `Arc`, exactly like two
    // occurrences parsed from different input lines pre-interning.
    let make_str_pool = || -> Vec<Value> {
        (0..64)
            .map(|i| {
                Value::str(format!(
                    "the-quick-brown-fox-jumps-over-the-lazy-dog/{:03}",
                    i % 48 // 48 distinct values, some duplicated
                ))
            })
            .collect()
    };
    let make_int_pool = || -> Vec<Value> { (0..64).map(|i| Value::int((i % 48) as i64)).collect() };

    let probes: Vec<(usize, usize)> = (0..4096)
        .map(|k| ((k * 31) % 64, (k * 17 + k / 64) % 64))
        .collect();
    const SWEEPS: usize = 400;

    let guard = |label: &str, left: Vec<Value>, right: Vec<Value>, min_ratio: f64| {
        let left_ids: Vec<ValueId> = left.iter().map(|v| ValueId::of(v.clone())).collect();
        let right_ids: Vec<ValueId> = right.iter().map(|v| ValueId::of(v.clone())).collect();
        let run_values = || {
            let start = Instant::now();
            let mut eq = 0usize;
            for _ in 0..SWEEPS {
                for &(i, j) in &probes {
                    if left[i] == right[j] {
                        eq += 1;
                    }
                }
            }
            (start.elapsed(), black_box(eq))
        };
        let run_ids = || {
            let start = Instant::now();
            let mut eq = 0usize;
            for _ in 0..SWEEPS {
                for &(i, j) in &probes {
                    if left_ids[i] == right_ids[j] {
                        eq += 1;
                    }
                }
            }
            (start.elapsed(), black_box(eq))
        };
        let (_, val_eq) = run_values();
        let (_, id_eq) = run_ids(); // warm-up both paths
        assert_eq!(val_eq, id_eq, "{label}: interned equality must agree");
        let (mut vals_t, mut ids_t) = (Duration::MAX, Duration::MAX);
        for _ in 0..9 {
            vals_t = vals_t.min(run_values().0);
            ids_t = ids_t.min(run_ids().0);
        }
        let ratio = vals_t.as_secs_f64() / ids_t.as_secs_f64().max(1e-9);
        println!(
            "literal_check/{label}: arc_str {}  value_id {}  ({ratio:.1}x)",
            fmt_duration(vals_t),
            fmt_duration(ids_t),
        );
        assert!(
            ids_t.mul_f64(min_ratio) <= vals_t + Duration::from_millis(2),
            "{label}: interned check only {ratio:.2}x faster (need ≥ {min_ratio}x): \
             values={vals_t:?} ids={ids_t:?}"
        );
    };

    // String-heavy mix: the acceptance bar is ≥ 3x.
    guard("string_heavy", make_str_pool(), make_str_pool(), 3.0);
    // Balanced (int-heavy) mix: ints were already a word compare, so the
    // bar is only "no regression" (ratio ≥ 1 within the noise floor).
    guard("balanced_int", make_int_pool(), make_int_pool(), 1.0);
}

/// Asserted guard for the three-way intersection crossover
/// (DESIGN.md §15). Pins the plan-layer constants, checks the slice
/// kernels agree, and asserts the regime map the planner encodes:
///
/// * the hub regime, end to end: a multi-anchored step over fat,
///   overlapping adjacencies, searched with the stats-driven plan
///   (which routes the step through the bitset merge) must beat the
///   same plan with the bitset demoted (`MatchPlan::without_bitset`):
///   sorted merge + per-candidate probes — same `HomSearch`, same
///   ordering, same matches, only the strategy differs;
/// * skewed 1000x: galloping beats the two-pointer walk;
/// * balanced sparse: the two-pointer stays ahead of the bitset (the
///   case the `BITSET_ANCHOR_DEGREE` gate protects).
fn bench_intersect_crossover(_c: &mut Criterion) {
    use gfd_bench::fmt_duration;
    use gfd_match::{
        intersect_slices_bitset, intersect_slices_gallop, intersect_slices_two_pointer, HomSearch,
        IntersectStrategy, SearchLimits, BITSET_ANCHOR_DEGREE, BITSET_MIN_CANDIDATES,
    };
    use std::ops::ControlFlow;
    use std::time::{Duration, Instant};

    // The constants the planner and runtime gate on; DESIGN.md §15
    // documents these values, and the hub workload generator sizes its
    // head degree against them.
    assert_eq!(BITSET_ANCHOR_DEGREE, 64, "plan-layer bitset gate moved");
    assert_eq!(BITSET_MIN_CANDIDATES, 64, "runtime bitset gate moved");

    // Skew and balanced shapes mirror `bench_intersect`; the kernels
    // must agree everywhere.
    let long: Vec<NodeId> = (0..65_536usize).map(|i| NodeId::new(i * 3)).collect();
    let short: Vec<NodeId> = (0..64usize).map(|i| NodeId::new(i * 3001)).collect();
    let mid: Vec<NodeId> = (0..65_536usize).map(|i| NodeId::new(i * 3 + 1)).collect();
    for (a, b) in [(&short, &long), (&mid, &long)] {
        let expect = intersect_slices_two_pointer(a, b);
        assert_eq!(intersect_slices_gallop(a, b), expect);
        assert_eq!(intersect_slices_bitset(a, b), expect);
    }

    // Hub regime: five hubs with fat, heavily-overlapping spoke
    // adjacencies (residue windows mod 64, so pairwise overlaps stay
    // large but the last window thins the final intersection) and a
    // 7-node pattern whose last variable is anchored on all five. The
    // merge fallback intersects the two smallest adjacencies and then
    // binary-probes every surviving candidate against each remaining
    // anchor — the high overlap keeps those survivors alive through
    // most probes. The bitset fold streams each extra adjacency through
    // the scratch set once, one u64 AND per 64 nodes. `without_bitset`
    // demotes only the strategy, so ordering and anchors are identical
    // and the timing isolates the candidate-generation path.
    // Sized so each hub adjacency clearly outgrows L2, and windowed so
    // the hubs overlap almost completely: survivors stay fat through
    // every per-candidate probe of the merge fallback, which is exactly
    // the regime where folding whole adjacencies through the bitset
    // beats probing candidates one at a time.
    const SPOKES: usize = 245_760;
    // Each hub covers spokes whose index mod 64 falls in the window.
    const WINDOWS: [(usize, usize); 5] = [(0, 16), (0, 16), (0, 16), (0, 16), (8, 24)];
    let mut vocab = Vocab::new();
    let r_lbl = vocab.label("root");
    let hub_lbls: Vec<_> = ["ha", "hb", "hc", "hd", "he"]
        .into_iter()
        .map(|n| vocab.label(n))
        .collect();
    let s_lbl = vocab.label("spoke");
    let e = vocab.label("e");
    let mut g = Graph::new();
    let root = g.add_node(r_lbl);
    let hubs: Vec<NodeId> = hub_lbls.iter().map(|&l| g.add_node(l)).collect();
    for &h in &hubs {
        g.add_edge(root, e, h);
        g.add_edge(h, e, root);
    }
    for i in 0..hubs.len() {
        for j in i + 1..hubs.len() {
            g.add_edge(hubs[i], e, hubs[j]);
        }
    }
    let spokes: Vec<NodeId> = (0..SPOKES).map(|_| g.add_node(s_lbl)).collect();
    for (hi, (lo, hi_end)) in WINDOWS.into_iter().enumerate() {
        for (si, &sp) in spokes.iter().enumerate() {
            if (lo..hi_end).contains(&(si % 64)) {
                g.add_edge(hubs[hi], e, sp);
            }
        }
    }
    let idx = LabelIndex::build(&g);
    // Reciprocal r ↔ hub edges plus a hub clique keep every unplaced
    // hub's connectivity to the prefix strictly ahead of `d`'s, so the
    // connectivity-first ordering defers `d` until every hub is bound —
    // the multi-anchored closing step under test.
    let mut pat = Pattern::new();
    let r = pat.add_node(r_lbl, "r");
    let d_hubs: Vec<_> = ["a", "b", "c", "d4", "e5"]
        .into_iter()
        .zip(hub_lbls.iter().copied())
        .map(|(name, l)| pat.add_node(l, name))
        .collect();
    let d = pat.add_node(s_lbl, "d");
    for &h in &d_hubs {
        pat.add_edge(r, e, h);
        pat.add_edge(h, e, r);
        pat.add_edge(h, e, d);
    }
    for i in 0..d_hubs.len() {
        for j in i + 1..d_hubs.len() {
            pat.add_edge(d_hubs[i], e, d_hubs[j]);
        }
    }
    let stats_plan = MatchPlan::build(&pat, None, Some(&idx));
    let last = stats_plan.steps().last().expect("non-empty plan");
    assert_eq!(last.var, d, "spoke variable must close the plan");
    assert_eq!(last.anchors.len(), 5, "closing step must carry all anchors");
    assert_eq!(
        last.strategy,
        IntersectStrategy::Bitset,
        "stats plan must route the triply-anchored step through the bitset"
    );
    let merge_plan = stats_plan.without_bitset();
    assert!(
        merge_plan
            .steps()
            .iter()
            .all(|s| s.strategy != IntersectStrategy::Bitset),
        "demoted plan must stay on the merge path"
    );
    let count_with = |plan: &MatchPlan| -> usize {
        let mut count = 0usize;
        HomSearch::new(&g, &idx, &pat, plan).run(
            |_| {
                count += 1;
                ControlFlow::<()>::Continue(())
            },
            SearchLimits::none(),
        );
        count
    };
    let expect = count_with(&merge_plan);
    assert_eq!(count_with(&stats_plan), expect, "plans must agree");
    // d ranges over spokes in every window: residues [8, 16) mod 64.
    assert_eq!(expect, SPOKES / 64 * 8, "hub fixture match count drifted");
    // Timing probe: stop at the first match. Every intersection —
    // two-pointer merge, per-candidate probes, bitset folds — happens
    // while the closing frame is built, before anything is emitted, so
    // breaking early times pure candidate generation with the shared
    // match-emission cost excluded.
    let first_match = |plan: &MatchPlan| -> usize {
        let mut n = 0usize;
        HomSearch::new(&g, &idx, &pat, plan).run(
            |_| {
                n += 1;
                ControlFlow::Break(())
            },
            SearchLimits::none(),
        );
        n
    };

    let time = |f: &dyn Fn() -> usize| {
        let mut best = Duration::MAX;
        black_box(f()); // warm-up
        for _ in 0..9 {
            let start = Instant::now();
            black_box(f());
            best = best.min(start.elapsed());
        }
        best
    };
    let floor = Duration::from_micros(500);

    let hub_merge = time(&|| (0..4).map(|_| first_match(&merge_plan)).sum());
    let hub_bit = time(&|| (0..4).map(|_| first_match(&stats_plan)).sum());
    println!(
        "intersect_crossover/hub_search: merge_plan {}  bitset_plan {}  ({:.2}x)",
        fmt_duration(hub_merge),
        fmt_duration(hub_bit),
        hub_merge.as_secs_f64() / hub_bit.as_secs_f64().max(1e-9),
    );
    assert!(
        hub_bit <= hub_merge + floor,
        "bitset plan must win the hub regime: merge={hub_merge:?} bitset={hub_bit:?}"
    );

    let skew_two = time(&|| {
        (0..64)
            .map(|_| intersect_slices_two_pointer(&short, &long).len())
            .sum()
    });
    let skew_gal = time(&|| {
        (0..64)
            .map(|_| intersect_slices_gallop(&short, &long).len())
            .sum()
    });
    println!(
        "intersect_crossover/skewed_1000x: two_pointer {}  gallop {}",
        fmt_duration(skew_two),
        fmt_duration(skew_gal),
    );
    assert!(
        skew_gal <= skew_two + floor,
        "gallop must win the 1000x skew: two={skew_two:?} gallop={skew_gal:?}"
    );

    let bal_two = time(&|| intersect_slices_two_pointer(&mid, &long).len());
    let bal_bit = time(&|| intersect_slices_bitset(&mid, &long).len());
    println!(
        "intersect_crossover/balanced: two_pointer {}  bitset {}",
        fmt_duration(bal_two),
        fmt_duration(bal_bit),
    );
    assert!(
        bal_two <= bal_bit + floor,
        "two-pointer must stay ahead on the balanced sparse case: \
         two={bal_two:?} bitset={bal_bit:?}"
    );
}

fn bench_ablations(c: &mut Criterion) {
    let w = synthetic_workload(80, 5, 3, 42);
    let mut group = c.benchmark_group("seq_sat_ablations");
    for (name, dep, prune) in [
        ("ordered+pruned", true, true),
        ("no_dependency_order", false, true),
        ("no_component_pruning", true, false),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &(), |b, _| {
            let cfg = ReasonConfig {
                use_dependency_order: dep,
                prune_components: prune,
                ..ReasonConfig::sequential()
            };
            b.iter(|| black_box(sat_with_config(&w.sigma, &cfg).is_satisfiable()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_eq_rel,
    bench_structures,
    bench_matching,
    bench_intersect,
    bench_literal_interning,
    bench_intersect_crossover,
    bench_deque,
    bench_scheduler,
    bench_trace_overhead,
    bench_atomics_zero_cost,
    bench_ablations
);
criterion_main!(benches);
