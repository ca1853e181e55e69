//! Sampling, failure accounting and the metric list a run reports.

use gfd_runtime::TraceSpec;
use std::time::{Duration, Instant};

/// Operations attempted and failed (a wrong or missing answer). A failed
/// operation contributes no timing sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Answers attempted.
    pub attempted: u64,
    /// Answers that were wrong or missing.
    pub failed: u64,
}

impl Tally {
    /// Count one answer; returns `ok` so callers can gate their sample.
    pub fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }
}

/// A named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

/// The metrics of one run, in report order.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Record a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Add to a metric several phases contribute to, recording it on
    /// first use.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value += value,
            None => self.put(name, value, unit),
        }
    }
}

/// The program's own tracing: on in a traced run, off otherwise.
pub fn trace_spec(traced: bool) -> TraceSpec {
    if traced {
        TraceSpec::enabled()
    } else {
        TraceSpec::disabled()
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile `q ∈ (0, 1]` of a sample (0 for an empty one).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Wall time of `f` in milliseconds, with its result.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// A closed loop: call `op(i)` for `i = 0, 1, …` — the next call only
/// after the previous returned — until at least `min` calls were made and
/// `budget` has elapsed. Returns the number of calls.
pub fn closed_loop(min: usize, budget: Duration, mut op: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut i = 0;
    while i < min || start.elapsed() < budget {
        op(i);
        i += 1;
    }
    i
}

/// One kind of call in a run's interleaved closed loop. The call records
/// its own samples and counts its answers in the [`Tally`] it is given.
pub struct Op<'a> {
    share: f64,
    min: usize,
    max: usize,
    call: Box<dyn FnMut(&mut Tally) + 'a>,
    spent: f64,
    calls: usize,
}

impl<'a> Op<'a> {
    /// An op that should take `share` of the run's measuring time and be
    /// called at least `min` times.
    pub fn new(share: f64, min: usize, call: impl FnMut(&mut Tally) + 'a) -> Self {
        Op {
            share,
            min,
            max: usize::MAX,
            call: Box::new(call),
            spent: 0.0,
            calls: 0,
        }
    }

    /// An op called exactly `n` times (a fixed stream), scheduled by
    /// `share` while the budget lasts.
    pub fn exactly(n: usize, share: f64, call: impl FnMut(&mut Tally) + 'a) -> Self {
        Op {
            max: n,
            ..Op::new(share, n, call)
        }
    }
}

/// Run `ops` in one closed loop — one call at a time — until `budget` has
/// elapsed and every op made its minimum number of calls. Each step calls
/// the op furthest behind its share of the time spent so far, so every op
/// samples the whole run rather than one stretch of it: on a shared host
/// whose speed drifts over seconds, that keeps the drift out of the
/// comparison between metrics and between runs.
pub fn interleave(ops: &mut [Op<'_>], budget: Duration, tally: &mut Tally) {
    let start = Instant::now();
    loop {
        let over = start.elapsed() >= budget;
        let next = ops
            .iter_mut()
            .filter(|o| o.calls < o.max && (!over || o.calls < o.min))
            .min_by(|a, b| (a.spent / a.share).total_cmp(&(b.spent / b.share)));
        let Some(op) = next else { break };
        let t = Instant::now();
        (op.call)(tally);
        op.spent += t.elapsed().as_secs_f64();
        op.calls += 1;
    }
}

/// Wall times of one end-to-end call with the program's own tracing off
/// and on, for `trace.overhead_pct`.
#[derive(Default)]
pub struct Overhead {
    off: Vec<f64>,
    on: Vec<f64>,
}

impl Overhead {
    /// An op timing `call` untraced and traced, alternating which goes
    /// first. `call` returns its wall time in ms.
    pub fn op<'a>(&'a mut self, share: f64, mut call: impl FnMut(TraceSpec) -> f64 + 'a) -> Op<'a> {
        Op::new(share, 3, move |_: &mut Tally| {
            let on_first = self.off.len() % 2 == 1;
            for on in [on_first, !on_first] {
                if on {
                    self.on.push(call(TraceSpec::enabled()));
                } else {
                    self.off.push(call(TraceSpec::disabled()));
                }
            }
        })
    }

    /// Traced median over untraced median, minus one, in percent.
    pub fn pct(&self) -> f64 {
        let off = median(&self.off);
        (median(&self.on) - off) / off * 100.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A small deterministic generator (splitmix64) for the benchmark's own
/// seeded choices; the program's inputs come from `gfd-gen`.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `items` in an order drawn from `seed` (Fisher–Yates).
pub fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    let mut rng = SplitMix(seed);
    for i in (1..out.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn shuffles_are_seeded_permutations() {
        let v: Vec<u32> = (0..50).collect();
        let (a, b) = (shuffled(&v, 1), shuffled(&v, 2));
        assert_eq!(a, shuffled(&v, 1));
        assert_ne!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, v);
    }

    #[test]
    fn closed_loop_meets_its_minimum() {
        let mut n = 0;
        assert_eq!(closed_loop(7, Duration::ZERO, |_| n += 1), 7);
        assert_eq!(n, 7);
    }

    #[test]
    fn interleave_meets_minimums_and_stream_lengths() {
        let (mut a, mut b) = (0, 0);
        let mut ops = vec![
            Op::new(0.5, 3, |t: &mut Tally| {
                t.check(true);
                a += 1;
            }),
            Op::exactly(4, 0.5, |_: &mut Tally| b += 1),
        ];
        let mut tally = Tally::default();
        interleave(&mut ops, Duration::ZERO, &mut tally);
        drop(ops);
        assert_eq!((a, b, tally.attempted), (3, 4, 3));
    }
}
