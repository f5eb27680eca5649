//! Online checking: run the LP checker *while* the file system executes.
//!
//! [`OnlineChecker`] is a [`TraceSink`] that feeds each event straight
//! into an [`LpChecker`] under a mutex. Because emitters call the sink at
//! the atomic instant each event describes, the mutex ordering is a legal
//! total order — the same property the offline buffer relies on — so
//! online and offline checking accept exactly the same executions.

use parking_lot::Mutex;

use atomfs_trace::{Event, Tid, TraceSink};

use crate::checker::{CheckReport, CheckerConfig, LpChecker};

/// A trace sink that checks events as they arrive.
pub struct OnlineChecker {
    inner: Mutex<LpChecker>,
}

impl OnlineChecker {
    /// Create an online checker with the given configuration.
    pub fn new(cfg: CheckerConfig) -> Self {
        OnlineChecker {
            inner: Mutex::new(LpChecker::new(cfg)),
        }
    }

    /// Create an online checker that also records live metrics (helped
    /// vs. self linearizations, roll-back depth, violation gauges).
    pub fn with_metrics(
        cfg: CheckerConfig,
        metrics: std::sync::Arc<crate::metrics::CheckerMetrics>,
    ) -> Self {
        OnlineChecker {
            inner: Mutex::new(LpChecker::new(cfg).with_metrics(metrics)),
        }
    }

    /// Number of violations observed so far.
    pub fn violation_count(&self) -> usize {
        self.inner.lock().violations().len()
    }

    /// Finish checking and produce the report. Call after all file system
    /// activity has quiesced (threads joined).
    pub fn finish(self) -> CheckReport {
        self.inner.into_inner().finish()
    }
}

impl Default for OnlineChecker {
    fn default() -> Self {
        Self::new(CheckerConfig::default())
    }
}

impl TraceSink for OnlineChecker {
    fn emit(&self, event: Event) {
        self.inner.lock().feed(&event);
    }

    /// The checker only inspects events, so borrowed emission (what a
    /// [`atomfs_trace::FanoutSink`] routes to non-last sinks) costs no
    /// clone at all.
    fn emit_ref(&self, event: &Event) {
        self.inner.lock().feed(event);
    }

    /// Decided under the checker mutex, which orders every event.
    fn claim(&self, tid: Tid, valid: &dyn Fn() -> bool) -> bool {
        let mut inner = self.inner.lock();
        let ok = valid();
        inner.feed(&Event::OptValidate { tid, ok });
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomfs_trace::{OpDesc, OpRet};

    #[test]
    fn online_checker_accumulates() {
        let c = OnlineChecker::default();
        c.emit(Event::OpBegin {
            tid: Tid(1),
            op: OpDesc::Mkdir {
                path: vec!["a".into()],
            },
        });
        // Ending without an LP is a NoLinearization violation.
        c.emit(Event::OpEnd {
            tid: Tid(1),
            ret: OpRet::Ok,
        });
        assert_eq!(c.violation_count(), 1);
        let report = c.finish();
        assert!(!report.is_ok());
    }
}
