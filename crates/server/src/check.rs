//! The checker pump: a thread that follows the served file system's
//! trace sink and keeps a streaming CRL-H checker current — correctness
//! as an always-on observability plane, not a post-mortem pass.
//!
//! The pump owns a [`TailCursor`](atomfs_trace::TailCursor) over the
//! `ShardedSink` the traced file system emits into, polls it for the
//! newly *stable* stamp prefix (everything below the cross-shard
//! watermark), and feeds that prefix to a [`StreamChecker`]. Because the
//! cursor only releases watermark-stable events, the checker sees the
//! exact stamp-ordered stream an end-of-run `take_stamped` would have
//! produced — while requests are still being served.
//!
//! The live verdict is surfaced three ways:
//! * the `/check` HTTP route on the RPC listener (JSON verdict + window
//!   stats, see [`CheckerPump::status_json`]),
//! * `crlh_stream_*` gauges on the server's metrics registry,
//! * a retained black-box dump frozen at the first violation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use atomfs_obs::{BlackBox, Registry, Span, SpanKind};
use atomfs_trace::{CursorStats, ShardedSink};
use crlh::{CheckReport, StreamChecker, StreamCheckerMetrics, StreamConfig, StreamStatus};
use parking_lot::Mutex;

/// How the pump follows the sink and how often it wakes when idle.
#[derive(Debug, Clone)]
pub struct PumpConfig {
    /// Checker shape (criteria config, window cap).
    pub stream: StreamConfig,
    /// Drain polled events out of the sink (`follow_consuming`) so sink
    /// memory stays bounded by the in-flight window. Turn off only for
    /// differential harnesses that also want the quiescent
    /// `take_stamped` view of the same run.
    pub consume: bool,
    /// Sleep between polls that found nothing new.
    pub idle: Duration,
}

impl Default for PumpConfig {
    fn default() -> Self {
        PumpConfig {
            stream: StreamConfig::default(),
            consume: true,
            idle: Duration::from_micros(200),
        }
    }
}

/// Handle to the running checker thread. Obtained from
/// [`serve_checked`](crate::server::serve_checked); queried by the
/// `/check` route; stopped by
/// [`Server::shutdown_checked`](crate::server::Server::shutdown_checked).
pub struct CheckerPump {
    checker: Arc<Mutex<Option<StreamChecker>>>,
    stop: Arc<AtomicBool>,
    handle: Mutex<Option<JoinHandle<()>>>,
    polls: Arc<AtomicU64>,
}

impl CheckerPump {
    /// Start the pump thread over `sink`. When a `registry` is given the
    /// checker exports its `crlh_stream_*` metrics there.
    pub fn start(
        sink: &Arc<ShardedSink>,
        cfg: PumpConfig,
        registry: Option<&Registry>,
    ) -> CheckerPump {
        let mut cursor = if cfg.consume {
            sink.follow_consuming()
        } else {
            sink.follow()
        };
        let mut checker = StreamChecker::new(cfg.stream);
        if let Some(reg) = registry {
            checker = checker.with_metrics(StreamCheckerMetrics::register(reg));
        }
        let checker = Arc::new(Mutex::new(Some(checker)));
        let stop = Arc::new(AtomicBool::new(false));
        let polls = Arc::new(AtomicU64::new(0));
        let handle = {
            let checker = Arc::clone(&checker);
            let stop = Arc::clone(&stop);
            let polls = Arc::clone(&polls);
            let idle = cfg.idle;
            std::thread::Builder::new()
                .name("afs-checker".into())
                .spawn(move || {
                    loop {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let batch = cursor.poll();
                        polls.fetch_add(1, Ordering::Relaxed);
                        if batch.is_empty() {
                            std::thread::park_timeout(idle);
                            continue;
                        }
                        let stats = cursor.stats();
                        let mut sp = Span::op_root(SpanKind::Checker, "checker_pump");
                        sp.set_stamp(stats.watermark);
                        if let Some(c) = checker.lock().as_mut() {
                            c.ingest_owned(batch, stats);
                        }
                    }
                    // Stop is only requested once the server has shut
                    // down (sink quiescent), so release everything still
                    // buffered and feed the checker the tail.
                    let pre = cursor.stats();
                    let tail = cursor.finish();
                    if !tail.is_empty() {
                        let end = tail.last().map(|&(s, _)| s + 1).unwrap_or(0);
                        let stats = CursorStats {
                            watermark: pre.watermark.max(end),
                            frontier: pre.frontier.max(end),
                            released: pre.released + tail.len() as u64,
                            buffered: 0,
                        };
                        if let Some(c) = checker.lock().as_mut() {
                            c.ingest_owned(tail, stats);
                        }
                    }
                })
                .expect("spawn checker pump")
        };
        CheckerPump {
            checker,
            stop,
            handle: Mutex::new(Some(handle)),
            polls,
        }
    }

    /// Live verdict + window stats, or `None` once the pump has been
    /// finished.
    pub fn status(&self) -> Option<StreamStatus> {
        self.checker.lock().as_ref().map(StreamChecker::status)
    }

    /// The `/check` payload: JSON verdict, watermark/lag, retained-state
    /// census, and the violation list.
    pub fn status_json(&self) -> Option<String> {
        self.checker
            .lock()
            .as_ref()
            .map(|c| c.status().to_json(c.violations()))
    }

    /// Whether any violation has been flagged so far (`false` also after
    /// the checker was taken by [`CheckerPump::stop_and_finish`]).
    pub fn failed(&self) -> bool {
        self.checker
            .lock()
            .as_ref()
            .map(|c| !c.violations().is_empty())
            .unwrap_or(false)
    }

    /// The black box frozen at the first violation, if one fired.
    pub fn violation_dump(&self) -> Option<BlackBox> {
        self.checker
            .lock()
            .as_ref()
            .and_then(|c| c.violation_dump().cloned())
    }

    /// Polls executed so far (including empty ones).
    pub fn polls(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }

    /// Stop the pump thread and join it. Idempotent. Call only once the
    /// sink is quiescent (e.g. after server shutdown): the thread's
    /// final drain assumes no emitter is still racing it.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.lock().take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }

    /// Stop the pump and run end-of-trace checks (liveness: no operation
    /// left open, no helped-but-unapplied effect). Returns `None` if the
    /// checker was already taken.
    pub fn stop_and_finish(&self) -> Option<CheckReport> {
        self.stop();
        self.checker.lock().take().map(StreamChecker::finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomfs_trace::TraceSink;

    #[test]
    fn pump_follows_an_empty_sink_and_stops_cleanly() {
        let sink = Arc::new(ShardedSink::with_shards(4));
        let pump = CheckerPump::start(&sink, PumpConfig::default(), None);
        let st = pump.status().expect("live");
        assert!(st.ok);
        let report = pump.stop_and_finish().expect("first finish");
        report.assert_ok();
        assert!(pump.stop_and_finish().is_none(), "finish is one-shot");
    }

    #[test]
    fn pump_drains_events_emitted_before_stop() {
        let sink = Arc::new(ShardedSink::with_shards(4));
        let pump = CheckerPump::start(&sink, PumpConfig::default(), None);
        // A full legal op so end-of-trace liveness holds.
        for ev in crlh::stream_test_ops::op_events(7, "d", 42) {
            sink.emit(ev);
        }
        // Give the pump a chance to see it live (not required for
        // correctness — the final drain would catch it anyway).
        std::thread::sleep(Duration::from_millis(5));
        let report = pump.stop_and_finish().expect("finish");
        report.assert_ok();
        assert_eq!(report.stats.ops_completed, 1);
        assert!(sink.is_empty(), "consuming pump drains the sink");
    }
}
