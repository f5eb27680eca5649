//! The flight recorder: a fixed-budget, always-on ring of recently
//! completed spans.
//!
//! Completed [`SpanRecord`]s are written into
//! one of a small set of lock-free rings (one per thread slot, the same
//! round-robin slots the sharded metrics use). Each ring holds the last
//! [`RING_CAP`] records for its slot and overwrites the oldest — so at
//! any instant the recorder holds a bounded window of the most recent
//! activity per thread, with zero steady-state allocation and no
//! cross-thread contention on the write path.
//!
//! The write protocol is a per-entry seqlock: the writer claims an index
//! with one `fetch_add` on the ring head, marks the entry's sequence 0
//! (in progress), writes the record, then publishes the entry's
//! generation token with a release store. Readers ([`freeze`]) copy the
//! entry and re-check the token; a torn read (writer lapped the reader
//! inside the copy) is discarded. Losing a handful of entries under a
//! concurrent storm is acceptable — the recorder is a best-effort
//! post-mortem window, not a durable log.
//!
//! The runtime off switch is [`set_sampling(0)`](crate::span::set_sampling):
//! no span records, so nothing reaches the rings.

use crate::span::SpanRecord;
use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Rings available (thread slots wrap onto these, like metric shards).
pub const RING_COUNT: usize = 16;
/// Records retained per ring. 16 × 512 × 96 B ≈ 768 KiB fixed budget.
pub const RING_CAP: usize = 512;

struct Entry {
    /// 0 = never written or write in progress; otherwise the 1-based
    /// generation token `head_index + 1` of the write that produced
    /// the data.
    seq: AtomicU64,
    data: UnsafeCell<SpanRecord>,
}

struct Ring {
    head: AtomicU64,
    entries: Box<[Entry]>,
}

// Safety: entry data is only read after validating `seq` around the
// copy; torn reads are detected and discarded.
unsafe impl Sync for Ring {}

impl Ring {
    fn new() -> Self {
        Ring {
            head: AtomicU64::new(0),
            entries: (0..RING_CAP)
                .map(|_| Entry {
                    seq: AtomicU64::new(0),
                    data: UnsafeCell::new(SpanRecord::empty()),
                })
                .collect(),
        }
    }

    fn push(&self, rec: &SpanRecord) {
        let n = self.head.fetch_add(1, Ordering::Relaxed);
        let e = &self.entries[(n as usize) % RING_CAP];
        e.seq.store(0, Ordering::Relaxed);
        fence(Ordering::Release);
        unsafe { *e.data.get() = *rec };
        e.seq.store(n + 1, Ordering::Release);
    }

    fn drain_into(&self, out: &mut Vec<SpanRecord>) {
        for e in self.entries.iter() {
            let s1 = e.seq.load(Ordering::Acquire);
            if s1 == 0 {
                continue;
            }
            let copy = unsafe { *e.data.get() };
            fence(Ordering::Acquire);
            if e.seq.load(Ordering::Relaxed) == s1 {
                out.push(copy);
            }
        }
    }
}

struct Recorder {
    rings: Vec<Ring>,
    recorded: AtomicU64,
}

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        rings: (0..RING_COUNT).map(|_| Ring::new()).collect(),
        recorded: AtomicU64::new(0),
    })
}

/// Record one completed span (called from `Span::drop`). Two RMW-class
/// atomics on the hot path: the global tally and the ring-head claim.
pub(crate) fn record(rec: &SpanRecord) {
    let r = recorder();
    r.recorded.fetch_add(1, Ordering::Relaxed);
    r.rings[(rec.slot as usize) % RING_COUNT].push(rec);
}

/// Snapshot every ring: all retained spans, sorted by start tick.
/// This is the "freeze" a black-box dump captures; it does not stop
/// concurrent writers (their entries simply land after the copy).
pub fn freeze() -> Vec<SpanRecord> {
    let r = recorder();
    let mut out = Vec::with_capacity(RING_COUNT * 64);
    for ring in &r.rings {
        ring.drain_into(&mut out);
    }
    out.sort_by_key(|s| (s.start, s.id));
    out
}

/// Total spans ever recorded (including overwritten ones).
pub fn recorded_total() -> u64 {
    recorder().recorded.load(Ordering::Relaxed)
}

/// Spans currently retained across all rings.
pub fn retained() -> usize {
    let r = recorder();
    r.rings
        .iter()
        .map(|ring| (ring.head.load(Ordering::Relaxed) as usize).min(RING_CAP))
        .sum()
}

/// The `flightrec` health section: budget, fill level, lifetime tally.
pub fn stats_json() -> String {
    format!(
        "{{\"rings\":{},\"ring_cap\":{},\"retained\":{},\"recorded_total\":{},\"sampling\":{}}}",
        RING_COUNT,
        RING_CAP,
        retained(),
        recorded_total(),
        crate::span::sampling()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completed_spans_land_in_the_recorder() {
        use crate::span::{set_sampling, Span, SpanKind, DEFAULT_SPAN_SAMPLE};
        set_sampling(1);
        let before = recorded_total();
        {
            let mut s = Span::root(SpanKind::FlushBarrier, "flightrec_test_span");
            s.set_shard(9);
        }
        assert!(recorded_total() > before);
        let frozen = freeze();
        let hit = frozen
            .iter()
            .find(|s| s.label == "flightrec_test_span")
            .expect("span retained in ring");
        assert_eq!(hit.shard, 9);
        assert!(hit.end >= hit.start);
        set_sampling(DEFAULT_SPAN_SAMPLE);
    }

    #[test]
    fn ring_overwrites_oldest_without_growing() {
        use crate::span::{set_sampling, Span, SpanKind, DEFAULT_SPAN_SAMPLE};
        set_sampling(1);
        for _ in 0..(RING_CAP * 2) {
            let _s = Span::root(SpanKind::EpochCut, "flightrec_churn");
        }
        assert!(retained() <= RING_COUNT * RING_CAP);
        set_sampling(DEFAULT_SPAN_SAMPLE);
    }

    #[test]
    fn stats_json_is_well_formed() {
        let s = stats_json();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"recorded_total\""));
    }
}
