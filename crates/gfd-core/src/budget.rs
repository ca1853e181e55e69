//! The unified resource budget every reasoning driver honors
//! (DESIGN.md §11.2).
//!
//! Before this module each driver grew its own ad-hoc limit — the GED
//! search counted branches, the generating chase counted fresh nodes,
//! `SeqSat`/`SeqImp`/detection had nothing. [`Budget`] is the one struct
//! threaded through all of them: a wall-clock deadline and a max-units
//! cap enforced cooperatively by the scheduler at unit boundaries
//! (`gfd_runtime::SchedOptions`). The driver-specific caps live on the
//! driver's own config (`GedReasonConfig::max_branches`,
//! `ChaseConfig::max_generated_nodes`).
//!
//! Exhausting any limit **degrades, never panics**: a run that cannot
//! finish reports [`Interrupt`] through its driver's unknown/partial arm
//! (`SatOutcome::Unknown`, `ImpOutcome::Unknown`, a `None` GED outcome,
//! a truncated detection report). A *definite* answer found before the
//! limit tripped — a conflict, a witness, a counterexample — is still
//! returned: budgets bound work, not soundness.

use gfd_runtime::{AbortInfo, Exhaustion, RunOutcome, SchedOptions};
use std::time::{Duration, Instant};

/// Resource limits for one reasoning or detection run. The default is
/// unlimited on every axis.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Budget {
    /// Wall-clock instant after which the run degrades to unknown/partial.
    pub deadline: Option<Instant>,
    /// Maximum scheduler work units to execute.
    pub max_units: Option<u64>,
}

impl Budget {
    /// No limits on any axis.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// True when no limit is set.
    pub fn is_unlimited(&self) -> bool {
        *self == Self::default()
    }

    /// Set the deadline to `ms` milliseconds from now.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline = Some(Instant::now() + Duration::from_millis(ms));
        self
    }

    /// Set an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Cap the scheduler work units executed.
    pub fn with_max_units(mut self, max: u64) -> Self {
        self.max_units = Some(max);
        self
    }

    /// Has the wall-clock deadline passed? (The cooperative check drivers
    /// call at their own phase boundaries — rounds, batches — where the
    /// scheduler's per-unit check is out of reach.)
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The scheduler-level slice of this budget. Tracing defaults to off;
    /// drivers overwrite `trace` from their own config before running.
    pub fn sched_options(&self) -> SchedOptions {
        SchedOptions {
            deadline: self.deadline,
            max_units: self.max_units,
            ..Default::default()
        }
    }

    /// Milliseconds of deadline slack remaining right now (negative once
    /// the deadline has been overshot); `None` without a deadline.
    ///
    /// An overshoot always reports a strictly negative value: a run that
    /// finishes within a millisecond past the cut must not round to `0`
    /// and masquerade as having met its deadline exactly.
    pub fn deadline_slack_ms(&self) -> Option<i64> {
        let deadline = self.deadline?;
        let now = Instant::now();
        Some(if now <= deadline {
            (deadline - now).as_millis() as i64
        } else {
            -((now - deadline).as_millis() as i64).max(1)
        })
    }
}

/// Why a run ended without a definite answer — the payload of every
/// driver's unknown/degraded arm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The wall-clock deadline expired.
    Deadline,
    /// The scheduler unit budget was consumed.
    Units,
    /// The branch budget was consumed (branch-and-bound drivers).
    Branches,
    /// A unit panicked and the run was cancelled; the string is the
    /// structured abort description ([`AbortInfo`]).
    Aborted(String),
}

impl Interrupt {
    /// Map a degraded scheduler outcome to its interrupt; `None` for the
    /// outcomes that finished normally (`Completed`, `Stopped`).
    pub fn from_outcome(outcome: &RunOutcome) -> Option<Interrupt> {
        match outcome {
            RunOutcome::Completed | RunOutcome::Stopped => None,
            RunOutcome::BudgetExceeded(Exhaustion::Deadline) => Some(Interrupt::Deadline),
            RunOutcome::BudgetExceeded(Exhaustion::Units) => Some(Interrupt::Units),
            RunOutcome::Aborted(info) => Some(Interrupt::Aborted(info.to_string())),
        }
    }

    /// The abort description, when this interrupt is a panic.
    pub fn abort_info(info: &AbortInfo) -> Interrupt {
        Interrupt::Aborted(info.to_string())
    }
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::Deadline => write!(f, "deadline expired"),
            Interrupt::Units => write!(f, "unit budget exhausted"),
            Interrupt::Branches => write!(f, "branch budget exhausted"),
            Interrupt::Aborted(info) => write!(f, "run aborted: {info}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(!b.expired());
        assert!(b.deadline_slack_ms().is_none());
        let opts = b.sched_options();
        assert!(opts.deadline.is_none());
        assert!(opts.max_units.is_none());
    }

    #[test]
    fn builders_set_each_axis() {
        let b = Budget::unlimited()
            .with_deadline_ms(10_000)
            .with_max_units(5);
        assert!(!b.is_unlimited());
        assert_eq!(b.max_units, Some(5));
        assert!(!b.expired());
        let slack = b.deadline_slack_ms().unwrap();
        assert!(slack > 8_000 && slack <= 10_000, "{slack}");
    }

    #[test]
    fn past_deadline_is_expired_with_negative_slack() {
        let b = Budget::unlimited().with_deadline(Instant::now() - Duration::from_millis(50));
        assert!(b.expired());
        assert!(b.deadline_slack_ms().unwrap() <= -50);
    }

    #[test]
    fn overshoot_at_the_budget_cut_stays_strictly_negative() {
        // A run that finishes a hair past its deadline (sub-millisecond
        // overshoot) must not round to 0ms slack: the sign is the signal
        // that the deadline was missed.
        let b = Budget::unlimited().with_deadline(Instant::now() - Duration::from_micros(10));
        let slack = b.deadline_slack_ms().unwrap();
        assert!(slack <= -1, "overshoot must be strictly negative: {slack}");
    }

    #[test]
    fn interrupts_from_scheduler_outcomes() {
        use gfd_runtime::{AbortInfo, Exhaustion, RunOutcome};
        assert_eq!(Interrupt::from_outcome(&RunOutcome::Completed), None);
        assert_eq!(Interrupt::from_outcome(&RunOutcome::Stopped), None);
        assert_eq!(
            Interrupt::from_outcome(&RunOutcome::BudgetExceeded(Exhaustion::Deadline)),
            Some(Interrupt::Deadline)
        );
        let aborted = RunOutcome::Aborted(AbortInfo {
            worker: 1,
            unit: "u".into(),
            payload: "boom".into(),
        });
        let i = Interrupt::from_outcome(&aborted).unwrap();
        assert!(i.to_string().contains("boom"), "{i}");
    }
}
