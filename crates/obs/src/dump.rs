//! Black-box dumps: frozen flight-recorder state captured at the moment
//! something went wrong.
//!
//! Degradation paths (shard quarantine, sticky read-only flip, checker
//! violation, recovery that licensed loss) call [`trigger`] with a
//! [`TriggerCause`]. The trigger freezes the flight recorder, copies the
//! live span stacks, optionally snapshots a registered metrics
//! [`Registry`], attaches the caller's health report,
//! and retains the whole capture as a [`BlackBox`] — the last
//! [`MAX_RETAINED`] captures are kept in memory for a supervisor (or a
//! test) to [`drain`]. Each capture serializes two ways:
//!
//! * [`BlackBox::to_json`] — the analysis format: cause, trigger tick,
//!   frozen spans, in-flight spans, metrics, health.
//! * [`BlackBox::to_chrome_trace`] — Chrome `trace_event` JSON (an
//!   object with a `traceEvents` array of `ph:"X"` complete events),
//!   loadable in `chrome://tracing` / Perfetto for a visual timeline of
//!   the moments before the fault.
//!
//! Triggering is deliberately cheap to reach but heavyweight to run
//! (allocation, serialization): it sits on degradation paths, which are
//! rare by construction. Re-entrant triggers (a metrics callback that
//! itself degrades) are not possible because [`trigger`] never runs
//! caller callbacks — the metrics snapshot is taken through a `Weak`
//! registry reference the process opted into with [`set_registry`].
//!
//! Dumps need no off switch of their own: only degradation paths trigger
//! them, and with span sampling off
//! ([`set_sampling(0)`](crate::span::set_sampling)) the rings they freeze
//! stop filling.

use crate::registry::Registry;
use crate::span::SpanRecord;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, Weak};

/// Why a black-box dump was captured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TriggerCause {
    /// A journal shard was quarantined (its device or region died).
    ShardQuarantine {
        /// The quarantined shard.
        shard: u32,
        /// Human-readable cause from the journal.
        detail: String,
    },
    /// The file system flipped into sticky degraded (read-only) mode.
    DegradedFlip {
        /// Human-readable cause.
        detail: String,
    },
    /// The online checker flagged a violation.
    CheckerViolation {
        /// The violation kind's label.
        kind: String,
    },
    /// The streaming checker flagged a violation while following a live
    /// trace; the dump's health payload carries the offending stamped
    /// window.
    StreamViolation {
        /// The violation kind's label.
        kind: String,
        /// Global sequence stamp of the event window where it surfaced.
        stamp: u64,
    },
    /// Recovery completed but had to license lost operations.
    RecoveryLoss {
        /// Operations lost inside the licensed windows.
        lost_ops: u64,
        /// Human-readable summary.
        detail: String,
    },
    /// An explicit capture requested by an operator or test.
    Manual {
        /// Free-form reason.
        detail: String,
    },
}

impl TriggerCause {
    /// Stable short name for the cause variant.
    pub fn label(&self) -> &'static str {
        match self {
            TriggerCause::ShardQuarantine { .. } => "shard_quarantine",
            TriggerCause::DegradedFlip { .. } => "degraded_flip",
            TriggerCause::CheckerViolation { .. } => "checker_violation",
            TriggerCause::StreamViolation { .. } => "stream_violation",
            TriggerCause::RecoveryLoss { .. } => "recovery_loss",
            TriggerCause::Manual { .. } => "manual",
        }
    }

    fn to_json(&self) -> String {
        use crate::registry::json_escape as esc;
        match self {
            TriggerCause::ShardQuarantine { shard, detail } => format!(
                "{{\"kind\":\"shard_quarantine\",\"shard\":{},\"detail\":\"{}\"}}",
                shard,
                esc(detail)
            ),
            TriggerCause::DegradedFlip { detail } => format!(
                "{{\"kind\":\"degraded_flip\",\"detail\":\"{}\"}}",
                esc(detail)
            ),
            TriggerCause::CheckerViolation { kind } => format!(
                "{{\"kind\":\"checker_violation\",\"violation\":\"{}\"}}",
                esc(kind)
            ),
            TriggerCause::StreamViolation { kind, stamp } => format!(
                "{{\"kind\":\"stream_violation\",\"violation\":\"{}\",\"stamp\":{}}}",
                esc(kind),
                stamp
            ),
            TriggerCause::RecoveryLoss { lost_ops, detail } => format!(
                "{{\"kind\":\"recovery_loss\",\"lost_ops\":{},\"detail\":\"{}\"}}",
                lost_ops,
                esc(detail)
            ),
            TriggerCause::Manual { detail } => {
                format!("{{\"kind\":\"manual\",\"detail\":\"{}\"}}", esc(detail))
            }
        }
    }
}

/// One frozen capture: everything the recorder knew when the trigger
/// fired.
#[derive(Debug, Clone)]
pub struct BlackBox {
    /// What fired the capture.
    pub cause: TriggerCause,
    /// Monotonic tick at capture time (same clock as span timestamps).
    pub at: u64,
    /// The frozen flight-recorder rings, sorted by start tick.
    pub spans: Vec<SpanRecord>,
    /// Spans that were still open (in-flight ops) at capture time.
    pub active: Vec<SpanRecord>,
    /// Metrics snapshot JSON, if a registry was attached via
    /// [`set_registry`].
    pub metrics: Option<String>,
    /// The caller's health report JSON, if it passed one.
    pub health: Option<String>,
}

impl BlackBox {
    /// The analysis serialization: a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"cause\":");
        out.push_str(&self.cause.to_json());
        out.push_str(&format!(",\"at\":{}", self.at));
        out.push_str(&format!(
            ",\"flightrec\":{}",
            crate::flightrec::stats_json()
        ));
        out.push_str(",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_json());
        }
        out.push_str("],\"active\":[");
        for (i, s) in self.active.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_json());
        }
        out.push(']');
        if let Some(m) = &self.metrics {
            out.push_str(",\"metrics\":");
            out.push_str(m);
        }
        if let Some(h) = &self.health {
            out.push_str(",\"health\":");
            out.push_str(h);
        }
        out.push('}');
        out
    }

    /// Chrome `trace_event` serialization: `{"traceEvents":[...]}` with
    /// one `ph:"X"` complete event per span (timestamps in microseconds,
    /// thread = recorder slot) plus one instant event for the trigger.
    pub fn to_chrome_trace(&self) -> String {
        use crate::registry::json_escape as esc;
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for s in self.spans.iter().chain(self.active.iter()) {
            if !first {
                out.push(',');
            }
            first = false;
            let end = if s.end == 0 {
                self.at.max(s.start)
            } else {
                s.end
            };
            let mut args = format!("\"id\":{},\"parent\":{}", s.id, s.parent);
            if s.shard != crate::span::NO_SHARD {
                args.push_str(&format!(",\"shard\":{}", s.shard));
            }
            if s.epoch != crate::span::NO_U64 {
                args.push_str(&format!(",\"epoch\":{}", s.epoch));
            }
            if s.stamp != crate::span::NO_U64 {
                args.push_str(&format!(",\"stamp\":{}", s.stamp));
            }
            if s.retries != 0 {
                args.push_str(&format!(",\"retries\":{}", s.retries));
            }
            if s.err {
                args.push_str(",\"err\":true");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{}}}}}",
                esc(s.label),
                s.kind.label(),
                s.slot,
                s.start as f64 / 1000.0,
                (end.saturating_sub(s.start)) as f64 / 1000.0,
                args
            ));
        }
        if !first {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"trigger\",\"ph\":\"i\",\"s\":\"g\",\
             \"pid\":1,\"tid\":0,\"ts\":{:.3}}}",
            self.cause.label(),
            self.at as f64 / 1000.0
        ));
        out.push_str("]}");
        out
    }
}

/// Captures retained in memory; older ones fall off the back.
pub const MAX_RETAINED: usize = 8;

struct State {
    retained: Mutex<VecDeque<BlackBox>>,
    registry: Mutex<Weak<Registry>>,
    triggered: AtomicU64,
}

fn state() -> &'static State {
    static S: OnceLock<State> = OnceLock::new();
    S.get_or_init(|| State {
        retained: Mutex::new(VecDeque::new()),
        registry: Mutex::new(Weak::new()),
        triggered: AtomicU64::new(0),
    })
}

/// Attach the metrics registry whose snapshot future dumps should
/// embed. Held weakly: the dump layer never keeps a registry alive.
pub fn set_registry(r: &std::sync::Arc<Registry>) {
    *state().registry.lock().unwrap() = std::sync::Arc::downgrade(r);
}

/// Capture a black-box dump now. `health_json` is the triggering
/// subsystem's own health report, if it has one — callers must NOT
/// hold locks that their registered metrics callbacks also take
/// (the metrics snapshot runs those callbacks).
pub fn trigger(cause: TriggerCause, health_json: Option<String>) -> BlackBox {
    let s = state();
    s.triggered.fetch_add(1, Ordering::Relaxed);
    let metrics = {
        let weak = s.registry.lock().unwrap().clone();
        weak.upgrade().map(|r| r.snapshot().to_json())
    };
    let bb = BlackBox {
        cause,
        at: crate::span::now(),
        spans: crate::flightrec::freeze(),
        active: crate::span::active_spans(),
        metrics,
        health: health_json,
    };
    let mut q = s.retained.lock().unwrap();
    if q.len() >= MAX_RETAINED {
        q.pop_front();
    }
    q.push_back(bb.clone());
    bb
}

/// The most recent capture, if any (leaves it retained).
pub fn latest() -> Option<BlackBox> {
    state().retained.lock().unwrap().back().cloned()
}

/// Take every retained capture, oldest first.
pub fn drain() -> Vec<BlackBox> {
    state().retained.lock().unwrap().drain(..).collect()
}

/// Total triggers since process start.
pub fn triggered_total() -> u64 {
    state().triggered.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The retained-dump store is process-global: tests that assert on
    /// `latest()`/`drain()` take this lock so they never see each other's
    /// captures.
    fn store_lock() -> std::sync::MutexGuard<'static, ()> {
        static STORE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        STORE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn trigger_captures_spans_metrics_and_health() {
        use crate::span::{set_sampling, Span, SpanKind, DEFAULT_SPAN_SAMPLE};
        let _store = store_lock();
        let registry = std::sync::Arc::new(crate::Registry::new());
        registry.counter("dump_test_total", &[], "x").add(5);
        set_registry(&registry);
        set_sampling(1);
        {
            let mut s = Span::root(SpanKind::ShardAppend, "dump_test_append");
            s.set_shard(2);
            s.set_epoch(4);
            s.set_stamp(17);
            s.fail();
        }
        let open = Span::root(SpanKind::Op, "dump_test_inflight");
        let bb = trigger(
            TriggerCause::ShardQuarantine {
                shard: 2,
                detail: "device died".into(),
            },
            Some("{\"health\":\"degraded\"}".into()),
        );
        drop(open);
        set_sampling(DEFAULT_SPAN_SAMPLE);

        assert!(bb.spans.iter().any(|s| s.label == "dump_test_append"
            && s.shard == 2
            && s.epoch == 4
            && s.stamp == 17
            && s.err));
        assert!(bb.active.iter().any(|s| s.label == "dump_test_inflight"));
        let json = bb.to_json();
        assert!(json.contains("\"kind\":\"shard_quarantine\""));
        assert!(json.contains("\"shard\":2"));
        assert!(json.contains("dump_test_total"));
        assert!(json.contains("\"health\":\"degraded\""));
        assert!(json.contains("\"flightrec\":{"));
        let trace = bb.to_chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"name\":\"shard_quarantine\""));
        assert!(latest().is_some());
        assert!(!drain().is_empty());
        assert!(drain().is_empty());
    }

    #[test]
    fn retention_is_bounded() {
        let _store = store_lock();
        for i in 0..(MAX_RETAINED + 3) {
            trigger(
                TriggerCause::Manual {
                    detail: format!("capture {i}"),
                },
                None,
            );
        }
        let all: Vec<_> = drain()
            .into_iter()
            .filter(|b| matches!(&b.cause, TriggerCause::Manual { .. }))
            .collect();
        assert!(all.len() <= MAX_RETAINED);
    }

    #[test]
    fn cause_json_escapes_detail() {
        let c = TriggerCause::DegradedFlip {
            detail: "a\"b\nc".into(),
        };
        assert_eq!(
            c.to_json(),
            "{\"kind\":\"degraded_flip\",\"detail\":\"a\\\"b\\nc\"}"
        );
    }
}
