//! Streaming (bounded-window) CRL-H checking — the always-on edition of
//! [`LpChecker`](crate::checker::LpChecker).
//!
//! The offline flow buffers a complete trace and replays it at a
//! quiescent point, so both the buffered trace and the checker's
//! narration grow with trace length — useless for a server that never
//! quiesces. [`StreamChecker`] instead consumes the stamp-ordered
//! prefix a [`TailCursor`](atomfs_trace::TailCursor) releases as the
//! cross-shard watermark advances, and keeps only:
//!
//! * the checker's replay state, whose every component retires as
//!   operations discharge (descriptors at `OpEnd`, roll-back effect
//!   logs and Helplist entries at discharge) — O(in-flight operations);
//! * a bounded ring of the most recent stamped events (`window_cap`),
//!   frozen into the flight-recorder black box if a violation fires.
//!
//! It does not narrate: the violations and that ring are what a failed
//! run reports, and a transcript would cost a formatted line per event.
//! Memory is therefore proportional to the in-flight window, not the
//! trace — [`RetainedState`](crate::checker::RetainedState) measures
//! this and `benches`/CI enforce it.
//!
//! # Cost per event
//!
//! The wrapped checker pays for what an event touches, not for the tree
//! (see the `checker` module docs): a lockless claim is decided on the
//! abstract state in place, or on a rolled-back view that copies only the
//! nodes undischarged helped effects name; relation and `GoodAFS` checks
//! revisit only dirty inodes. So the pump's rate holds as the tree grows.
//!
//! # Verdict equivalence
//!
//! The streaming feed is a prefix-by-prefix replay of exactly the trace
//! a quiescent `take_stamped` + [`LpChecker::check_stamped`] pass would
//! see (the cursor's watermark rule guarantees the released stream *is*
//! that merge), and [`LpChecker::feed_stamped`] enforces the same
//! strict stamp monotonicity across chunk boundaries. So after
//! [`StreamChecker::finish`] at quiescence, the verdict — violations,
//! stats, final abstract state — is identical to the offline checker's;
//! `tests/checker_stream.rs` pins this differentially, violation seeds
//! included.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use atomfs_obs::json_escape;
use atomfs_trace::{CursorStats, Stamped};

use crate::checker::{
    CheckReport, CheckerConfig, CheckerStats, LpChecker, RetainedState, Violation,
};
use crate::metrics::StreamCheckerMetrics;

/// Configuration for a [`StreamChecker`].
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// The wrapped checker's configuration.
    pub checker: CheckerConfig,
    /// Recent stamped events retained for the violation black box.
    pub window_cap: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            checker: CheckerConfig::default(),
            window_cap: 256,
        }
    }
}

/// A point-in-time summary of the stream checker — the payload behind
/// the server's `/check` scrape.
#[derive(Debug, Clone)]
pub struct StreamStatus {
    /// No violations so far.
    pub ok: bool,
    /// Events checked.
    pub events: u64,
    /// Stable watermark at the last ingest.
    pub watermark: u64,
    /// Emit frontier at the last ingest.
    pub frontier: u64,
    /// Watermark lag in stamps.
    pub lag_stamps: u64,
    /// Watermark lag in wall time (age of the oldest unstable stamp).
    pub lag_ns: u64,
    /// Violations flagged so far.
    pub violations: usize,
    /// Current replay-state census.
    pub retained: RetainedState,
    /// Execution counters so far.
    pub stats: CheckerStats,
}

/// The incremental checker: wraps an [`LpChecker`], feeds it watermark-
/// stable batches, exports stream metrics, and freezes a black box
/// carrying the offending stamped window on the first violation.
pub struct StreamChecker {
    checker: LpChecker,
    /// Ring of the most recent stamped events (the "offending window"
    /// a violation dump carries).
    window: VecDeque<Stamped>,
    window_cap: usize,
    cursor: CursorStats,
    events: u64,
    /// Violations already exported to metrics / the dump trigger.
    reported: usize,
    /// The black box frozen at the first violation (also pushed onto
    /// the global retained ring by `dump::trigger`).
    dump: Option<atomfs_obs::BlackBox>,
    metrics: Option<Arc<StreamCheckerMetrics>>,
    /// `(frontier, when)` samples: at `when`, stamps below `frontier`
    /// had been issued. The oldest sample whose frontier exceeds the
    /// current watermark dates the oldest still-unstable stamp.
    samples: VecDeque<(u64, Instant)>,
    lag_ns: u64,
}

impl StreamChecker {
    /// Create a streaming checker.
    pub fn new(cfg: StreamConfig) -> Self {
        StreamChecker {
            checker: LpChecker::new(cfg.checker),
            window: VecDeque::with_capacity(cfg.window_cap.min(4096)),
            window_cap: cfg.window_cap.max(1),
            cursor: CursorStats {
                watermark: 0,
                frontier: 0,
                released: 0,
                buffered: 0,
            },
            events: 0,
            reported: 0,
            dump: None,
            metrics: None,
            samples: VecDeque::new(),
            lag_ns: 0,
        }
    }

    /// Attach stream metrics (builder-style).
    pub fn with_metrics(mut self, metrics: Arc<StreamCheckerMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Feed one watermark-stable batch released by a tail cursor, with
    /// the cursor's progress counters from the same poll. Safe to call
    /// with an empty batch (updates lag/retained gauges only). Only the
    /// tail the window ring keeps is cloned.
    pub fn ingest(&mut self, batch: &[Stamped], cursor: CursorStats) {
        let mut sp = atomfs_obs::Span::op_root(atomfs_obs::SpanKind::Checker, "stream_ingest");
        self.cursor = cursor;
        for (stamp, ev) in batch {
            self.checker.feed_stamped(*stamp, ev);
        }
        let keep = &batch[batch.len().saturating_sub(self.window_cap)..];
        self.remember(keep.iter().cloned());
        self.after_batch(batch.len(), batch.last().map(|(s, _)| *s), &mut sp);
    }

    /// [`StreamChecker::ingest`] for a caller that owns the batch (the
    /// poll loop of a pump): the window ring takes its tail by move, so
    /// no event is cloned at all. The production path.
    pub fn ingest_owned(&mut self, batch: Vec<Stamped>, cursor: CursorStats) {
        let mut sp = atomfs_obs::Span::op_root(atomfs_obs::SpanKind::Checker, "stream_ingest");
        self.cursor = cursor;
        let n = batch.len();
        let last = batch.last().map(|(s, _)| *s);
        for (stamp, ev) in &batch {
            self.checker.feed_stamped(*stamp, ev);
        }
        self.remember(batch.into_iter().skip(n.saturating_sub(self.window_cap)));
        self.after_batch(n, last, &mut sp);
    }

    /// Push the newest events onto the window ring, oldest dropped.
    fn remember(&mut self, events: impl Iterator<Item = Stamped>) {
        for se in events {
            if self.window.len() == self.window_cap {
                self.window.pop_front();
            }
            self.window.push_back(se);
        }
    }

    /// Shared post-feed tail of the ingest paths.
    fn after_batch(&mut self, fed: usize, last_stamp: Option<u64>, sp: &mut atomfs_obs::Span) {
        self.events += fed as u64;
        if let Some(stamp) = last_stamp {
            sp.set_stamp(stamp);
        }
        self.observe(fed as u64);
        if self.checker.violations().len() > self.reported {
            sp.fail();
            self.on_new_violations();
        }
    }

    /// Update the ns-lag estimate and export gauges.
    fn observe(&mut self, fed: u64) {
        let now = Instant::now();
        // Samples whose frontier is at or below the watermark describe
        // fully-stable stamps: retire them. What remains dates the
        // oldest stamp still waiting for stability.
        while let Some((f, _)) = self.samples.front() {
            if *f <= self.cursor.watermark {
                self.samples.pop_front();
            } else {
                break;
            }
        }
        self.lag_ns = self
            .samples
            .front()
            .map(|(_, t)| now.duration_since(*t).as_nanos() as u64)
            .unwrap_or(0);
        if self.cursor.frontier > self.cursor.watermark {
            if self.samples.len() >= 4096 {
                self.samples.pop_front();
            }
            self.samples.push_back((self.cursor.frontier, now));
        }
        if let Some(m) = &self.metrics {
            m.events(fed);
            m.observe_window(self.cursor.watermark, self.cursor.frontier, self.lag_ns);
            m.observe_retained(&self.checker.retained());
        }
    }

    /// Export newly flagged violations and, on the first one, freeze a
    /// flight-recorder black box carrying the offending stamped window.
    fn on_new_violations(&mut self) {
        let fresh: Vec<Violation> = self.checker.violations()[self.reported..].to_vec();
        self.reported = self.checker.violations().len();
        if let Some(m) = &self.metrics {
            for v in &fresh {
                m.violation(v.kind);
            }
        }
        if self.dump.is_none() {
            let first = &fresh[0];
            self.dump = Some(atomfs_obs::dump::trigger(
                atomfs_obs::TriggerCause::StreamViolation {
                    kind: first.kind.label().to_string(),
                    stamp: self.cursor.watermark,
                },
                Some(self.window_json(&fresh)),
            ));
        }
    }

    /// The black box frozen at the first violation, if one fired.
    pub fn violation_dump(&self) -> Option<&atomfs_obs::BlackBox> {
        self.dump.as_ref()
    }

    /// The offending window as JSON: the violations just flagged plus
    /// the ring of stamped events leading up to them.
    fn window_json(&self, fresh: &[Violation]) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"violations\":[");
        for (i, v) in fresh.iter().take(8).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"at\":{},\"kind\":\"{}\",\"message\":\"{}\"}}",
                v.at,
                v.kind.label(),
                json_escape(&v.message)
            ));
        }
        out.push_str("],\"window\":[");
        for (i, (stamp, ev)) in self.window.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"stamp\":{},\"event\":\"{}\"}}",
                stamp,
                json_escape(&format!("{ev:?}"))
            ));
        }
        out.push_str("]}");
        out
    }

    /// Current verdict + window statistics.
    pub fn status(&self) -> StreamStatus {
        StreamStatus {
            ok: self.checker.violations().is_empty(),
            events: self.events,
            watermark: self.cursor.watermark,
            frontier: self.cursor.frontier,
            lag_stamps: self.cursor.lag(),
            lag_ns: self.lag_ns,
            violations: self.checker.violations().len(),
            retained: self.checker.retained(),
            stats: *self.checker.stats(),
        }
    }

    /// Violations flagged so far.
    pub fn violations(&self) -> &[Violation] {
        self.checker.violations()
    }

    /// Events checked so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Finish at quiescence: run the end-of-trace checks and produce
    /// the same report the offline checker would for this trace.
    pub fn finish(self) -> CheckReport {
        self.checker.finish()
    }
}

impl StreamStatus {
    /// Render as the `/check` JSON document.
    pub fn to_json(&self, violations: &[Violation]) -> String {
        let r = &self.retained;
        let mut out = format!(
            "{{\"ok\":{},\"events\":{},\"watermark\":{},\"frontier\":{},\
             \"lag_stamps\":{},\"lag_ns\":{},\"violations\":{},\
             \"retained\":{{\"descriptors\":{},\"helplist\":{},\
             \"effect_entries\":{},\"bindings\":{},\"locks\":{},\
             \"private_inodes\":{},\"pending_unbinds\":{},\
             \"narration\":{},\"window_total\":{}}},\
             \"stats\":{{\"ops_begun\":{},\"ops_completed\":{},\"lps\":{},\
             \"helps\":{},\"opt_claims\":{},\"opt_retries\":{},\"refused\":{}}}",
            self.ok,
            self.events,
            self.watermark,
            self.frontier,
            self.lag_stamps,
            self.lag_ns,
            self.violations,
            r.descriptors,
            r.helplist,
            r.effect_entries,
            r.bindings,
            r.locks_held,
            r.private_inodes,
            r.pending_unbinds,
            r.narration_lines,
            r.window_total(),
            self.stats.ops_begun,
            self.stats.ops_completed,
            self.stats.lps,
            self.stats.helps,
            self.stats.opt_claims,
            self.stats.opt_retries,
            self.stats.refused,
        );
        out.push_str(",\"failures\":[");
        for (i, v) in violations.iter().take(8).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"at\":{},\"kind\":\"{}\",\"message\":\"{}\"}}",
                v.at,
                v.kind.label(),
                json_escape(&v.message)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Test support shared with downstream crates (the server's checker-pump
/// and differential tests): the canonical *legal* pessimistic event
/// sequences a streaming checker must accept.
#[doc(hidden)]
pub mod stream_test_ops {
    use atomfs_trace::{Event, MicroOp, OpDesc, OpRet, PathTag, Tid};
    use atomfs_vfs::FileType;

    /// The pessimistic mkdir grammar — begin, lock root, create + insert
    /// under the lock, LP, unlock, end (7 events). Unstamped: emit them
    /// through a sink, or stamp them yourself for direct feeds.
    pub fn op_events(tid: u32, name: &str, ino: u64) -> Vec<Event> {
        let t = Tid(tid);
        vec![
            Event::OpBegin {
                tid: t,
                op: OpDesc::Mkdir {
                    path: vec![name.trim_start_matches('/').to_string()],
                },
            },
            Event::Lock {
                tid: t,
                ino: 1,
                tag: PathTag::Common,
            },
            Event::Mutate {
                tid: t,
                mop: MicroOp::Create {
                    ino,
                    ftype: FileType::Dir,
                },
            },
            Event::Mutate {
                tid: t,
                mop: MicroOp::Ins {
                    parent: 1,
                    name: name.trim_start_matches('/').to_string(),
                    child: ino,
                },
            },
            Event::Lp { tid: t },
            Event::Unlock { tid: t, ino: 1 },
            Event::OpEnd {
                tid: t,
                ret: OpRet::Ok,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomfs_trace::{Event, MicroOp, Tid};

    /// The pessimistic mkdir grammar, stamped starting at `base`.
    fn op_events(tid: u32, name: &str, ino: u64, base: u64) -> Vec<Stamped> {
        stream_test_ops::op_events(tid, name, ino)
            .into_iter()
            .enumerate()
            .map(|(i, e)| (base + i as u64, e))
            .collect()
    }

    fn cursor(watermark: u64, frontier: u64) -> CursorStats {
        CursorStats {
            watermark,
            frontier,
            released: watermark,
            buffered: 0,
        }
    }

    #[test]
    fn chunked_feed_matches_offline_verdict() {
        let trace: Vec<Stamped> = [op_events(1, "/a", 2, 0), op_events(2, "/b", 3, 7)].concat();
        let mut s = StreamChecker::new(StreamConfig::default());
        for chunk in trace.chunks(2) {
            s.ingest(chunk, cursor(chunk.last().unwrap().0 + 1, 14));
        }
        let streaming = s.finish();
        let offline = LpChecker::check_stamped(CheckerConfig::default(), &trace);
        assert!(streaming.is_ok(), "{:?}", streaming.violations);
        assert_eq!(streaming.violations.len(), offline.violations.len());
        assert_eq!(streaming.final_afs, offline.final_afs);
    }

    #[test]
    fn stamp_regression_across_chunks_is_flagged() {
        let mut s = StreamChecker::new(StreamConfig::default());
        let a = op_events(1, "/a", 2, 10);
        s.ingest(&a, cursor(17, 17));
        // A second chunk whose stamps went backwards: the recorder (or a
        // lossy merge) broke the total order. Must be caught even though
        // each chunk is internally sorted.
        let b = op_events(2, "/b", 3, 1);
        s.ingest(&b, cursor(17, 17));
        assert!(!s.status().ok);
        assert!(s
            .violations()
            .iter()
            .any(|v| matches!(v.kind, crate::checker::ViolationKind::Protocol)));
    }

    #[test]
    fn first_violation_freezes_a_black_box_with_the_window() {
        let mut s = StreamChecker::new(StreamConfig::default());
        // A mutation outside any operation / lock: a protocol breach.
        let bad = vec![(
            0u64,
            Event::Mutate {
                tid: Tid(9),
                mop: MicroOp::Ins {
                    parent: 1,
                    name: "ghost".to_string(),
                    child: 77,
                },
            },
        )];
        s.ingest(&bad, cursor(1, 1));
        assert!(!s.status().ok);
        let bb = s.violation_dump().expect("violation must freeze a dump");
        assert!(matches!(
            &bb.cause,
            atomfs_obs::TriggerCause::StreamViolation { .. }
        ));
        let health = bb.health.as_deref().expect("dump carries the window");
        assert!(health.contains("\"window\""));
        assert!(health.contains("\"stamp\":0"));
        // Only the first violation dumps; later ones are counters only.
        s.ingest(&bad, cursor(1, 1));
        assert!(s.violations().len() > 1);
    }

    #[test]
    fn stream_does_not_narrate_and_state_retires() {
        // A window smaller than a batch: each ingest keeps its batch's tail.
        let mut s = StreamChecker::new(StreamConfig {
            window_cap: 4,
            ..StreamConfig::default()
        });
        for i in 0..200u64 {
            let base = i * 7;
            s.ingest(
                &op_events(1, &format!("/d{i}"), 2 + i, base),
                cursor(base + 7, base + 7),
            );
        }
        let st = s.status();
        assert!(st.ok, "{:?}", s.violations());
        assert_eq!(st.retained.narration_lines, 0);
        let kept: Vec<u64> = s.window.iter().map(|(stamp, _)| *stamp).collect();
        assert_eq!(kept, [1396, 1397, 1398, 1399]);
        assert_eq!(st.retained.descriptors, 0);
        assert_eq!(st.retained.effect_entries, 0);
        assert_eq!(st.retained.locks_held, 0);
    }

    #[test]
    fn status_json_shape() {
        let mut s = StreamChecker::new(StreamConfig::default());
        s.ingest(&op_events(1, "/a", 2, 0), cursor(7, 7));
        let json = s.status().to_json(s.violations());
        assert!(json.starts_with("{\"ok\":true"), "{json}");
        assert!(json.contains("\"watermark\":7"));
        assert!(json.contains("\"window_total\""));
        assert!(json.ends_with("\"failures\":[]}"));
    }
}
