//! The unified run metrics reported by every scheduler workload.
//!
//! One type serves all three reasoning layers (it replaced per-layer
//! stats structs and ad-hoc detection atomics): sequential runs populate
//! the same counters as parallel ones, just with one worker.

use gfd_trace::Trace;
use std::time::Duration;

/// Counters and timings for one scheduler run (`SeqSat`/`SeqImp`,
/// `ParSat`/`ParImp`, or a detection pass).
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// Wall-clock time of the whole run (including setup and the final
    /// convergence phase).
    pub elapsed: Duration,
    /// Number of workers used.
    pub workers: usize,
    /// Initial work units generated from pivot candidates.
    pub units_generated: usize,
    /// Units executed by workers (initial + split).
    pub units_dispatched: u64,
    /// Units created by TTL straggler splitting.
    pub units_split: u64,
    /// Units taken from another worker's deque.
    pub units_stolen: u64,
    /// Matches found and processed across all workers.
    pub matches: u64,
    /// Branches explored by branch-and-bound workloads (the GED
    /// small-model search); zero for match-driven workloads.
    pub branches: u64,
    /// Matches that entered the pending (inverted) index.
    pub pending: u64,
    /// Pending re-checks triggered by attribute instantiation.
    pub rechecks: u64,
    /// ΔEq ops broadcast between workers.
    pub delta_ops_broadcast: u64,
    /// Unit executions that panicked and were caught by the scheduler's
    /// isolation envelope.
    pub units_panicked: u64,
    /// Panicked units requeued for another attempt.
    pub units_retried: u64,
    /// When the run had a wall-clock deadline: the slack left at the end,
    /// in milliseconds (negative = the run overshot the deadline while
    /// finishing its last units).
    pub deadline_slack_ms: Option<i64>,
    /// Busy (CPU) time per worker.
    pub worker_busy: Vec<Duration>,
    /// Wall time each worker spent with no runnable unit (steal attempts
    /// failed, waiting for quiescence or new splits).
    pub worker_idle: Vec<Duration>,
    /// Did the run end early (conflict / consequence / budget reached)?
    pub early_terminated: bool,
    /// The structured trace recorded by this run (empty unless tracing
    /// was enabled — see `gfd_trace` and DESIGN.md §13). Riding on the
    /// metrics lets every engine's existing return path deliver traces
    /// to the CLI without new plumbing.
    pub trace: Trace,
}

impl RunMetrics {
    /// The simulated parallel makespan: the maximum per-worker busy (CPU)
    /// time. On a machine with ≥ p free cores this approximates wall
    /// time; on fewer cores it still reflects what dedicated processors
    /// would achieve, which is what the scalability experiments compare.
    pub fn makespan(&self) -> Option<Duration> {
        self.worker_busy.iter().max().copied()
    }

    /// Total busy (CPU) time across workers.
    pub fn total_busy(&self) -> Duration {
        self.worker_busy.iter().sum()
    }

    /// Total idle (wall) time across workers.
    pub fn total_idle(&self) -> Duration {
        self.worker_idle.iter().sum()
    }

    /// Load imbalance: max busy time over mean busy time (1.0 = perfectly
    /// balanced). `None` when per-worker times were not collected.
    pub fn imbalance(&self) -> Option<f64> {
        if self.worker_busy.is_empty() {
            return None;
        }
        let max = self.worker_busy.iter().max()?.as_secs_f64();
        let mean = self
            .worker_busy
            .iter()
            .map(Duration::as_secs_f64)
            .sum::<f64>()
            / self.worker_busy.len() as f64;
        if mean == 0.0 {
            return Some(1.0);
        }
        Some(max / mean)
    }

    /// Fold another run's metrics into this one — the accumulator for
    /// multi-run flows (one streamed `DeltaBatch` after another, or the
    /// chase's per-round scheduler runs).
    ///
    /// Counters sum; `elapsed` sums; `workers` takes the max;
    /// `early_terminated` is sticky; `deadline_slack_ms` takes the most
    /// recent measurement (the later run's remaining slack supersedes the
    /// earlier one's); per-worker busy/idle vectors add element-wise,
    /// extending with zeros when worker counts differ; traces concatenate.
    pub fn merge(&mut self, other: &RunMetrics) {
        self.elapsed += other.elapsed;
        self.workers = self.workers.max(other.workers);
        self.units_generated += other.units_generated;
        self.units_dispatched += other.units_dispatched;
        self.units_split += other.units_split;
        self.units_stolen += other.units_stolen;
        self.matches += other.matches;
        self.branches += other.branches;
        self.pending += other.pending;
        self.rechecks += other.rechecks;
        self.delta_ops_broadcast += other.delta_ops_broadcast;
        self.units_panicked += other.units_panicked;
        self.units_retried += other.units_retried;
        if other.deadline_slack_ms.is_some() {
            self.deadline_slack_ms = other.deadline_slack_ms;
        }
        if self.worker_busy.len() < other.worker_busy.len() {
            self.worker_busy
                .resize(other.worker_busy.len(), Duration::ZERO);
        }
        for (acc, d) in self.worker_busy.iter_mut().zip(&other.worker_busy) {
            *acc += *d;
        }
        if self.worker_idle.len() < other.worker_idle.len() {
            self.worker_idle
                .resize(other.worker_idle.len(), Duration::ZERO);
        }
        for (acc, d) in self.worker_idle.iter_mut().zip(&other.worker_idle) {
            *acc += *d;
        }
        self.early_terminated |= other.early_terminated;
        self.trace.merge(&other.trace);
    }

    /// Serialize as a machine-readable JSON object: every counter, the
    /// per-worker timings (integer microseconds — the interchange parser
    /// is integer-only), and the aggregated trace profile. One schema
    /// serves the CLI's `--metrics-json` and the bench harness.
    pub fn to_json(&self, rule_names: &[String]) -> String {
        let durs = |v: &[Duration]| {
            let items: Vec<String> = v.iter().map(|d| d.as_micros().to_string()).collect();
            format!("[{}]", items.join(", "))
        };
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!(
            "  \"elapsed_us\": {},\n",
            self.elapsed.as_micros()
        ));
        out.push_str(&format!(
            "  \"units_generated\": {}, \"units_dispatched\": {}, \
             \"units_split\": {}, \"units_stolen\": {},\n",
            self.units_generated, self.units_dispatched, self.units_split, self.units_stolen
        ));
        out.push_str(&format!(
            "  \"matches\": {}, \"branches\": {}, \"pending\": {}, \
             \"rechecks\": {}, \"delta_ops_broadcast\": {},\n",
            self.matches, self.branches, self.pending, self.rechecks, self.delta_ops_broadcast
        ));
        out.push_str(&format!(
            "  \"units_panicked\": {}, \"units_retried\": {},\n",
            self.units_panicked, self.units_retried
        ));
        out.push_str(&format!(
            "  \"deadline_slack_ms\": {},\n",
            match self.deadline_slack_ms {
                Some(ms) => ms.to_string(),
                None => "null".to_string(),
            }
        ));
        out.push_str(&format!(
            "  \"early_terminated\": {},\n",
            self.early_terminated
        ));
        out.push_str(&format!(
            "  \"worker_busy_us\": {},\n  \"worker_idle_us\": {},\n",
            durs(&self.worker_busy),
            durs(&self.worker_idle)
        ));
        out.push_str(&format!(
            "  \"profile\": {}\n",
            self.trace.profile().to_json(rule_names, 1)
        ));
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_of_balanced_run_is_one() {
        let m = RunMetrics {
            worker_busy: vec![Duration::from_millis(10); 4],
            ..Default::default()
        };
        assert!((m.imbalance().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_detects_straggler() {
        let m = RunMetrics {
            worker_busy: vec![
                Duration::from_millis(10),
                Duration::from_millis(10),
                Duration::from_millis(40),
            ],
            ..Default::default()
        };
        assert!(m.imbalance().unwrap() > 1.5);
    }

    #[test]
    fn imbalance_none_without_data() {
        assert!(RunMetrics::default().imbalance().is_none());
    }

    #[test]
    fn idle_time_totals() {
        let m = RunMetrics {
            worker_idle: vec![Duration::from_millis(3), Duration::from_millis(4)],
            ..Default::default()
        };
        assert_eq!(m.total_idle(), Duration::from_millis(7));
    }

    #[test]
    fn makespan_edge_cases() {
        // Empty worker_busy: no makespan at all, not a zero one.
        assert!(RunMetrics::default().makespan().is_none());
        // All-zero busy times still report a (zero) makespan: the data
        // was collected, the workers just never ran a unit.
        let m = RunMetrics {
            worker_busy: vec![Duration::ZERO; 3],
            ..Default::default()
        };
        assert_eq!(m.makespan(), Some(Duration::ZERO));
    }

    #[test]
    fn imbalance_zero_mean_busy_is_balanced() {
        // Zero-mean busy (e.g. an empty seed at p > 1) must not divide by
        // zero: by convention the run is perfectly balanced.
        let m = RunMetrics {
            worker_busy: vec![Duration::ZERO; 4],
            ..Default::default()
        };
        assert_eq!(m.imbalance(), Some(1.0));
    }

    #[test]
    fn merge_accumulates_counters_and_worker_vectors() {
        let mut total = RunMetrics {
            workers: 2,
            units_dispatched: 10,
            units_stolen: 1,
            matches: 5,
            elapsed: Duration::from_millis(30),
            worker_busy: vec![Duration::from_millis(10), Duration::from_millis(20)],
            worker_idle: vec![Duration::from_millis(1), Duration::from_millis(2)],
            ..Default::default()
        };
        let batch = RunMetrics {
            workers: 4,
            units_dispatched: 7,
            units_stolen: 3,
            units_split: 2,
            matches: 4,
            elapsed: Duration::from_millis(12),
            deadline_slack_ms: Some(-3),
            early_terminated: true,
            worker_busy: vec![Duration::from_millis(5); 4],
            worker_idle: vec![Duration::from_millis(1); 4],
            ..Default::default()
        };
        total.merge(&batch);
        assert_eq!(total.workers, 4);
        assert_eq!(total.units_dispatched, 17);
        assert_eq!(total.units_stolen, 4);
        assert_eq!(total.units_split, 2);
        assert_eq!(total.matches, 9);
        assert_eq!(total.elapsed, Duration::from_millis(42));
        assert_eq!(total.deadline_slack_ms, Some(-3));
        assert!(total.early_terminated);
        // Element-wise busy add, extended with zeros to 4 workers.
        assert_eq!(
            total.worker_busy,
            vec![
                Duration::from_millis(15),
                Duration::from_millis(25),
                Duration::from_millis(5),
                Duration::from_millis(5),
            ]
        );
        // Merging an empty batch changes nothing.
        let snapshot = total.units_dispatched;
        total.merge(&RunMetrics::default());
        assert_eq!(total.units_dispatched, snapshot);
        assert_eq!(total.deadline_slack_ms, Some(-3), "None must not clobber");
    }

    #[test]
    fn merge_concatenates_traces() {
        use gfd_trace::{EventKind, Trace, TraceEvent};
        let ev = |id| TraceEvent {
            kind: EventKind::UnitExec,
            worker: 0,
            id,
            t0_ns: 0,
            dur_ns: 5,
            a: 0,
            b: 0,
        };
        let mut total = RunMetrics {
            trace: Trace {
                events: vec![ev(0)],
                dropped: 1,
            },
            ..Default::default()
        };
        let batch = RunMetrics {
            trace: Trace {
                events: vec![ev(1), ev(2)],
                dropped: 0,
            },
            ..Default::default()
        };
        total.merge(&batch);
        assert_eq!(total.trace.events.len(), 3);
        assert_eq!(total.trace.dropped, 1);
    }

    #[test]
    fn json_export_is_integer_only_and_complete() {
        let m = RunMetrics {
            workers: 2,
            units_dispatched: 3,
            deadline_slack_ms: Some(-7),
            worker_busy: vec![Duration::from_micros(1500), Duration::from_micros(200)],
            ..Default::default()
        };
        let json = m.to_json(&[]);
        assert!(json.contains("\"workers\": 2"), "{json}");
        assert!(json.contains("\"deadline_slack_ms\": -7"), "{json}");
        assert!(json.contains("\"worker_busy_us\": [1500, 200]"), "{json}");
        assert!(json.contains("\"profile\""), "{json}");
        assert!(!json.contains('.'), "floats would break the parser: {json}");
        let none = RunMetrics::default().to_json(&[]);
        assert!(none.contains("\"deadline_slack_ms\": null"), "{none}");
    }
}
