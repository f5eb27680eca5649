//! Checker-side metrics: how often the helper mechanism fires, how deep
//! roll-back goes, and what (if anything) is being flagged.
//!
//! The paper's argument hinges on two mechanisms — `linothers` helping
//! and the roll-back abstraction relation — whose *frequency* is
//! workload-dependent and invisible in a pass/fail report. This module
//! gives them live counters so an 8-thread rename storm shows, in one
//! `render_prometheus()` dump, how many operations were linearized by
//! helpers versus at their own LP, how many roll-backs were performed
//! and how many helped operations each had to unwind, and a gauge per
//! [`ViolationKind`] (all expected to stay 0 on a correct execution).

use std::sync::Arc;

use atomfs_obs::{Counter, Gauge, Histogram, Registry};

use crate::checker::ViolationKind;

/// Metric handles for an [`LpChecker`](crate::checker::LpChecker).
pub struct CheckerMetrics {
    self_lins: Arc<Counter>,
    helped_lins: Arc<Counter>,
    rollbacks: Arc<Counter>,
    rollback_depth: Arc<Histogram>,
    helpset_size: Arc<Histogram>,
    violations: Vec<Arc<Gauge>>,
}

impl CheckerMetrics {
    /// Register the checker metric family in `registry`. Idempotent per
    /// registry.
    pub fn register(registry: &Registry) -> Arc<CheckerMetrics> {
        let self_lins = registry.counter(
            "crlh_lins_total",
            &[("kind", "self")],
            "Operations linearized at their own LP.",
        );
        let helped_lins = registry.counter(
            "crlh_lins_total",
            &[("kind", "helped")],
            "Operations linearized by a rename's linothers helper.",
        );
        let rollbacks = registry.counter(
            "crlh_rollback_total",
            &[],
            "Abstraction-relation checks that ran the roll-back mechanism.",
        );
        let rollback_depth = registry.histogram(
            "crlh_rollback_depth",
            &[],
            "Helped operations unwound per roll-back (Helplist length).",
        );
        let helpset_size = registry.histogram(
            "crlh_helpset_size",
            &[],
            "Threads helped per linothers invocation.",
        );
        let violations = ViolationKind::ALL
            .iter()
            .map(|k| {
                registry.gauge(
                    "crlh_violations",
                    &[("kind", k.label())],
                    "Violations flagged so far, by kind.",
                )
            })
            .collect();
        Arc::new(CheckerMetrics {
            self_lins,
            helped_lins,
            rollbacks,
            rollback_depth,
            helpset_size,
            violations,
        })
    }

    /// Record one linearization.
    #[inline]
    pub fn lin(&self, helped: bool) {
        if helped {
            self.helped_lins.inc();
        } else {
            self.self_lins.inc();
        }
    }

    /// Record one roll-back (abstraction-relation check) and how many
    /// helped operations it unwound.
    #[inline]
    pub fn rollback(&self, depth: u64) {
        self.rollbacks.inc();
        self.rollback_depth.record(depth);
    }

    /// Record a linothers invocation that helped `n` threads.
    #[inline]
    pub fn helpset(&self, n: u64) {
        self.helpset_size.record(n);
    }

    /// Record one flagged violation.
    #[inline]
    pub fn violation(&self, kind: ViolationKind) {
        self.violations[kind as usize].add(1);
    }
}

/// Retained-state components exported by [`StreamCheckerMetrics`], in
/// the order of the `crlh_stream_retained` gauge family.
const RETAINED_COMPONENTS: [&str; 8] = [
    "descriptors",
    "helplist",
    "effect_entries",
    "bindings",
    "locks",
    "private_inodes",
    "pending_unbinds",
    "narration",
];

/// Metric handles for a [`StreamChecker`](crate::stream::StreamChecker):
/// how far the released (checked) prefix trails the emit frontier, how
/// much replay state the checker is holding, how fast events flow, and
/// a per-criterion violation gauge. These are the signals an operator
/// watches on an always-on checking plane: lag growing without bound
/// means the pump cannot keep up; retained state growing means a
/// retirement hook regressed; any violation gauge leaving zero means
/// the execution broke its specification.
pub struct StreamCheckerMetrics {
    events: Arc<Counter>,
    watermark: Arc<Gauge>,
    frontier: Arc<Gauge>,
    lag_stamps: Arc<Gauge>,
    lag_ns: Arc<Gauge>,
    retained: Vec<Arc<Gauge>>,
    retained_window: Arc<Gauge>,
    violations: Vec<Arc<Gauge>>,
}

impl StreamCheckerMetrics {
    /// Register the streaming-checker metric family in `registry`.
    pub fn register(registry: &Registry) -> Arc<StreamCheckerMetrics> {
        let events = registry.counter(
            "crlh_stream_events_total",
            &[],
            "Events fed to the streaming checker.",
        );
        let watermark = registry.gauge(
            "crlh_stream_watermark",
            &[],
            "Cross-shard stable watermark: all stamps below are checked.",
        );
        let frontier = registry.gauge(
            "crlh_stream_frontier",
            &[],
            "Sequence stamps issued by the emitters at the last poll.",
        );
        let lag_stamps = registry.gauge(
            "crlh_stream_lag_stamps",
            &[],
            "Watermark lag: emit frontier minus stable watermark, in stamps.",
        );
        let lag_ns = registry.gauge(
            "crlh_stream_lag_ns",
            &[],
            "Watermark lag in wall time: age of the oldest unstable stamp.",
        );
        let retained = RETAINED_COMPONENTS
            .iter()
            .map(|c| {
                registry.gauge(
                    "crlh_stream_retained",
                    &[("component", c)],
                    "Replay state currently held by the streaming checker.",
                )
            })
            .collect();
        let retained_window = registry.gauge(
            "crlh_stream_retained_window",
            &[],
            "Total retained replay state excluding live-tree bindings — \
             bounded by the in-flight window on a healthy stream.",
        );
        let violations = ViolationKind::ALL
            .iter()
            .map(|k| {
                registry.gauge(
                    "crlh_stream_violations",
                    &[("kind", k.label())],
                    "Violations flagged by the streaming checker, by kind.",
                )
            })
            .collect();
        Arc::new(StreamCheckerMetrics {
            events,
            watermark,
            frontier,
            lag_stamps,
            lag_ns,
            retained,
            retained_window,
            violations,
        })
    }

    /// Record a batch of checked events.
    #[inline]
    pub fn events(&self, n: u64) {
        self.events.add(n);
    }

    /// Export watermark/frontier/lag after a poll.
    pub fn observe_window(&self, watermark: u64, frontier: u64, lag_ns: u64) {
        self.watermark.set(watermark as i64);
        self.frontier.set(frontier as i64);
        self.lag_stamps
            .set(frontier.saturating_sub(watermark) as i64);
        self.lag_ns.set(lag_ns as i64);
    }

    /// Export the retained-state census.
    pub fn observe_retained(&self, r: &crate::checker::RetainedState) {
        let vals = [
            r.descriptors,
            r.helplist,
            r.effect_entries,
            r.bindings,
            r.locks_held,
            r.private_inodes,
            r.pending_unbinds,
            r.narration_lines,
        ];
        for (g, v) in self.retained.iter().zip(vals) {
            g.set(v as i64);
        }
        self.retained_window.set(r.window_total() as i64);
    }

    /// Record one flagged violation.
    #[inline]
    pub fn violation(&self, kind: ViolationKind) {
        self.violations[kind as usize].add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_indexing_matches_all() {
        let reg = Registry::new();
        let m = CheckerMetrics::register(&reg);
        for k in ViolationKind::ALL {
            m.violation(k);
        }
        let snap = reg.snapshot();
        let total: f64 = snap
            .entries
            .iter()
            .filter(|e| e.name == "crlh_violations")
            .map(|e| match &e.value {
                atomfs_obs::SnapValue::Gauge(v) => *v,
                _ => 0.0,
            })
            .sum();
        assert_eq!(total, ViolationKind::ALL.len() as f64);
    }

    #[test]
    fn lin_splits_self_and_helped() {
        let reg = Registry::new();
        let m = CheckerMetrics::register(&reg);
        m.lin(false);
        m.lin(true);
        m.lin(true);
        let text = reg.render_prometheus();
        assert!(text.contains("crlh_lins_total{kind=\"self\"} 1"));
        assert!(text.contains("crlh_lins_total{kind=\"helped\"} 2"));
    }
}
