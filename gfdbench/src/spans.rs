//! Spans recorded by the benchmark around each public layer call.
//!
//! A span has a name, a start, a duration and the span that caused it;
//! spans of one end-to-end call share its root. A layer's *self time* is
//! its span's duration minus the part its child spans cover. The
//! layer-sum check ([`Spans::check`]) holds per kind of end-to-end call
//! (root name): over all its calls, the roots' own self time — wall time
//! no layer span accounts for — must stay within [`RESIDUAL_SHARE`] of
//! their wall time plus [`RESIDUAL_FLOOR_MS`] per call. Checking totals
//! rather than single calls keeps one preemption of the host between two
//! layer calls from failing a run.

use std::time::Instant;

/// Share of an end-to-end call's wall time that may fall outside every
/// layer span.
pub const RESIDUAL_SHARE: f64 = 0.05;
/// Fixed allowance (ms) per call on top of the share, for calls so short
/// that clock reads dominate.
pub const RESIDUAL_FLOOR_MS: f64 = 0.25;

struct Span {
    name: &'static str,
    dur_ms: f64,
    child_ms: f64,
}

/// In-memory span recorder. Spans nest through the closure passed to
/// [`Spans::span`].
#[derive(Default)]
pub struct Spans {
    spans: Vec<Span>,
    stack: Vec<usize>,
    last_root: usize,
    /// Per root name: calls, wall time and time outside every layer span.
    roots: Vec<RootTotal>,
}

/// Totals of one kind of end-to-end call.
#[derive(Clone, Debug)]
pub struct RootTotal {
    /// Root span name.
    pub name: &'static str,
    /// Calls made.
    pub calls: usize,
    /// Their wall time (ms).
    pub wall_ms: f64,
    /// The part of it outside every layer span (ms).
    pub unattributed_ms: f64,
}

impl RootTotal {
    /// Does the layer-sum check hold?
    pub fn holds(&self) -> bool {
        self.unattributed_ms
            <= RESIDUAL_SHARE * self.wall_ms + RESIDUAL_FLOOR_MS * self.calls as f64
    }
}

impl Spans {
    /// Run `f` inside a span called `name`, a child of the innermost open
    /// span (or a new root).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        if parent.is_none() {
            self.last_root = id;
        }
        self.spans.push(Span {
            name,
            dur_ms: 0.0,
            child_ms: 0.0,
        });
        self.stack.push(id);
        let start = Instant::now();
        let out = f(self);
        let dur_ms = start.elapsed().as_secs_f64() * 1e3;
        self.stack.pop();
        self.spans[id].dur_ms = dur_ms;
        match parent {
            Some(p) => self.spans[p].child_ms += dur_ms,
            None => self.close_root(id),
        }
        out
    }

    fn close_root(&mut self, id: usize) {
        let root = &self.spans[id];
        let total = match self.roots.iter_mut().find(|r| r.name == root.name) {
            Some(t) => t,
            None => {
                self.roots.push(RootTotal {
                    name: root.name,
                    calls: 0,
                    wall_ms: 0.0,
                    unattributed_ms: 0.0,
                });
                self.roots.last_mut().expect("just pushed")
            }
        };
        total.calls += 1;
        total.wall_ms += root.dur_ms;
        total.unattributed_ms += root.dur_ms - root.child_ms;
    }

    /// Per kind of end-to-end call, the layer-sum totals.
    pub fn roots(&self) -> &[RootTotal] {
        &self.roots
    }

    /// The layer-sum check: one line per kind of end-to-end call whose
    /// layer spans leave more than the allowed residual.
    pub fn check(&self) -> Vec<String> {
        self.roots
            .iter()
            .filter(|r| !r.holds())
            .map(|r| {
                format!(
                    "{}: {:.3} ms of {:.3} ms over {} calls outside every layer span",
                    r.name, r.unattributed_ms, r.wall_ms, r.calls
                )
            })
            .collect()
    }

    /// Self time (ms) of the spans called `name` in the last root.
    pub fn last(&self, name: &str) -> f64 {
        self.spans[self.last_root..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ms - s.child_ms)
            .sum()
    }

    /// Wall time (ms) of the last root.
    pub fn last_root_ms(&self) -> f64 {
        self.spans.get(self.last_root).map_or(0.0, |s| s.dur_ms)
    }

    /// Total self time per span name over the whole run, in first-seen
    /// order, with the number of spans of that name.
    pub fn totals(&self) -> Vec<(&'static str, usize, f64)> {
        let mut out: Vec<(&'static str, usize, f64)> = Vec::new();
        for s in &self.spans {
            let self_ms = s.dur_ms - s.child_ms;
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += self_ms;
                }
                None => out.push((s.name, 1, self_ms)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_check_passes_when_covered() {
        let mut s = Spans::default();
        s.span("root", |s| {
            s.span("a", |s| {
                std::thread::sleep(Duration::from_millis(5));
                s.span("b", |_| std::thread::sleep(Duration::from_millis(5)));
            });
        });
        assert!(s.last("a") >= 4.0 && s.last("a") < s.last_root_ms());
        assert!(s.last("b") >= 4.0);
        assert!(s.check().is_empty(), "{:?}", s.check());
        assert_eq!(s.roots()[0].calls, 1);
    }

    #[test]
    fn uncovered_root_time_fails_the_check() {
        let mut s = Spans::default();
        s.span("root", |s| {
            std::thread::sleep(Duration::from_millis(10));
            s.span("a", |_| ());
        });
        assert_eq!(s.check().len(), 1);
    }
}
