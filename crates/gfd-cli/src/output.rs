//! Shared output formatting helpers.

use gfd_runtime::RunMetrics;
use std::time::Duration;

/// Render a duration compactly (`1.23s`, `45ms`, `890µs`).
pub fn fmt_duration(d: Duration) -> String {
    if d >= Duration::from_secs(1) {
        format!("{:.2}s", d.as_secs_f64())
    } else if d >= Duration::from_millis(1) {
        format!("{}ms", d.as_millis())
    } else {
        format!("{}µs", d.as_micros())
    }
}

/// Render the unified scheduler metrics as indented lines.
///
/// Every [`RunMetrics`] counter prints unconditionally — `sat`, `imp`,
/// `detect` and the `ged-*` commands all show the same shape, so a zero
/// (e.g. `branches explored: 0` for match-driven workloads) reads as "not
/// that kind of work" rather than silently disappearing from the output.
pub fn fmt_metrics(m: &RunMetrics) -> String {
    let mut out = String::new();
    out.push_str(&format!("  workers: {}\n", m.workers));
    out.push_str(&format!(
        "  units: {} generated, {} dispatched, {} split, {} stolen\n",
        m.units_generated, m.units_dispatched, m.units_split, m.units_stolen
    ));
    out.push_str(&format!(
        "  matches: {} ({} pending, {} rechecks, {} delta ops broadcast)\n",
        m.matches, m.pending, m.rechecks, m.delta_ops_broadcast
    ));
    out.push_str(&format!("  branches explored: {}\n", m.branches));
    out.push_str(&format!(
        "  faults: {} unit(s) panicked, {} retried\n",
        m.units_panicked, m.units_retried
    ));
    if let Some(slack) = m.deadline_slack_ms {
        out.push_str(&format!("  deadline slack: {slack}ms\n"));
    }
    if let Some(ms) = m.makespan() {
        out.push_str(&format!(
            "  makespan: {} (idle: {})\n",
            fmt_duration(ms),
            fmt_duration(m.total_idle())
        ));
    }
    out.push_str(&format!(
        "  early termination: {}\n",
        if m.early_terminated { "yes" } else { "no" }
    ));
    out
}

/// Render the chase counters that accompany [`RunMetrics`] on the
/// generalized (GGD) reasoning paths.
pub fn fmt_chase_stats(s: &gfd_chase::ChaseStats) -> String {
    format!(
        "  chase: {} round(s), {} premise eval(s), {} match(es) enumerated, \
         {} node(s) generated, {} realization check(s)\n\
         \x20 apply: {} independent firing(s), {} conflicting (serial fallback); \
         scan {}, apply {}\n",
        s.rounds,
        s.premise_evals,
        s.matches_enumerated,
        s.generated_nodes,
        s.realization_checks,
        s.apply_independent,
        s.apply_conflicts,
        fmt_duration(s.scan_time),
        fmt_duration(s.apply_time),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_report_faults_and_slack() {
        let m = RunMetrics {
            units_panicked: 2,
            units_retried: 1,
            deadline_slack_ms: Some(-7),
            ..Default::default()
        };
        let text = fmt_metrics(&m);
        assert!(
            text.contains("faults: 2 unit(s) panicked, 1 retried"),
            "{text}"
        );
        assert!(text.contains("deadline slack: -7ms"), "{text}");
        // Without a deadline the slack line disappears; the fault line
        // prints unconditionally like every other counter.
        let text = fmt_metrics(&RunMetrics::default());
        assert!(
            text.contains("faults: 0 unit(s) panicked, 0 retried"),
            "{text}"
        );
        assert!(!text.contains("deadline slack"), "{text}");
    }

    #[test]
    fn durations_pick_sensible_units() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_duration(Duration::from_millis(45)), "45ms");
        assert_eq!(fmt_duration(Duration::from_micros(890)), "890µs");
    }
}
