//! The sharded, sequence-stamped trace recorder.
//!
//! [`BufferSink`](crate::BufferSink) funnels every instrumented atomic
//! step of every thread through one global mutex, so under heavy
//! concurrency the *tracer* — not the file system being measured —
//! becomes the bottleneck. [`ShardedSink`] removes that serialization
//! point: each emitting thread appends to its own shard (a mutex that is
//! uncontended as long as threads outnumber shards at most lightly), and
//! each event is stamped from one global `AtomicU64` sequence counter at
//! the instant `emit` is called.
//!
//! # Why the stamp order is a legal total order
//!
//! The checker does not need a *physically serialized* recording — it
//! needs *some* legal total order of the execution's atomic steps. The
//! emitter guarantees that `emit` runs at the atomic instant the event
//! describes, while the locks making that step atomic are held (`Lock`
//! after acquiring, `Unlock`/`Mutate`/`Lp` before releasing). The stamp
//! is taken inside `emit`, hence inside that critical section, so:
//!
//! * **Per-thread program order** is preserved: a thread stamps its own
//!   events one after another, so its stamps increase monotonically.
//! * **Per-inode critical-section order** is preserved: if thread A's
//!   event and thread B's event are ordered by the same inode lock, A's
//!   stamp is taken before A releases and B's after B acquires; atomic
//!   read-modify-writes on one counter are coherent with happens-before,
//!   so A's stamp is smaller.
//!
//! Any two events *not* ordered by one of those relations were genuinely
//! concurrent, and either order is a legal interleaving. Stamp order is
//! therefore a legal total order — exactly the contract the offline
//! CRL-H checker, `wgl` cross-validation, and the journal fanout rely
//! on. `DESIGN.md` ("Trace recording and the legal-total-order
//! contract") spells the argument out.
//!
//! Taking the stamp *under the shard lock* additionally keeps every
//! shard's segment sorted, so [`ShardedSink::take`] can k-way merge the
//! segments by stamp instead of sorting.
//!
//! A claim ([`TraceSink::claim`]) also needs the converse, so stamps are
//! `AcqRel`: a counter move published before an earlier stamp is visible
//! to a validation run after a later one.
//!
//! # Draining
//!
//! [`ShardedSink::take`]/[`ShardedSink::snapshot`] are meant for
//! quiescent points (emitting threads joined), like every existing
//! consumer in this workspace. A drain that races live emitters is safe
//! (no events are lost or duplicated) but may split concurrent events
//! across two takes such that their concatenation is not stamp-sorted.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

// The process-global round-robin slot of `atomfs_obs::shard`: a thread
// keeps one slot for its lifetime, so every `ShardedSink` maps it to a
// stable shard and long-lived emitter threads never migrate (which would
// break the sorted-segment property).
use atomfs_vfs::thread_slot;
use parking_lot::Mutex;

use crate::{Event, Inum, Tid, TraceSink};

/// A recorded event with its global sequence stamp.
pub type Stamped = (u64, Event);

/// One per-thread segment. Padded to a cache line so shard locks on
/// adjacent slots do not false-share.
#[repr(align(64))]
pub(crate) struct Shard {
    pub(crate) events: Mutex<Vec<Stamped>>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            events: Mutex::new(Vec::new()),
        }
    }
}

/// A low-contention trace recorder: per-thread shards, one global
/// sequence counter.
///
/// Produces the same totally-ordered `Vec<Event>` as
/// [`BufferSink`](crate::BufferSink) (see [`ShardedSink::take`]), so the
/// CRL-H checker and every other replay consumer work unchanged;
/// [`ShardedSink::take_stamped`] additionally exposes the stamps so
/// consumers can assert monotonicity (`crlh::LpChecker::check_stamped`).
pub struct ShardedSink {
    pub(crate) seq: AtomicU64,
    /// Events drained by [`ShardedSink::take_stamped`] so far. `len()` is
    /// derived as `seq - taken`, so `emit` pays exactly one atomic RMW
    /// (the stamp) — the same count as `BufferSink`'s length counter.
    pub(crate) taken: AtomicU64,
    pub(crate) shards: Box<[Shard]>,
    mask: usize,
}

impl Default for ShardedSink {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedSink {
    /// Create a recorder with one shard per available hardware thread
    /// (rounded up to a power of two).
    pub fn new() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8);
        Self::with_shards(n)
    }

    /// Create a recorder with at least `shards` shards (rounded up to a
    /// power of two, minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shards: Vec<Shard> = (0..n).map(|_| Shard::new()).collect();
        ShardedSink {
            seq: AtomicU64::new(0),
            taken: AtomicU64::new(0),
            shards: shards.into_boxed_slice(),
            mask: n - 1,
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of events recorded and not yet taken (O(1), lock-free).
    ///
    /// Derived from stamps issued minus events drained, so an event whose
    /// emitter has taken its stamp but not yet finished pushing is already
    /// counted — fine for the progress polling this exists for.
    pub fn len(&self) -> usize {
        (self.seq.load(Ordering::Relaxed) - self.taken.load(Ordering::Relaxed)) as usize
    }

    /// Whether no events are recorded (O(1), lock-free).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sequence stamps handed out so far (including taken events).
    pub fn stamps_issued(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Drain all shards and merge into one stamp-ordered trace.
    pub fn take_stamped(&self) -> Vec<Stamped> {
        let segments: Vec<Vec<Stamped>> = self
            .shards
            .iter()
            .map(|s| std::mem::take(&mut *s.events.lock()))
            .collect();
        let merged = merge_by_stamp(segments);
        self.taken.fetch_add(merged.len() as u64, Ordering::Relaxed);
        merged
    }

    /// Drain all shards into the same totally-ordered `Vec<Event>` a
    /// [`BufferSink`](crate::BufferSink) would have recorded.
    pub fn take(&self) -> Vec<Event> {
        self.take_stamped().into_iter().map(|(_, e)| e).collect()
    }

    /// Copy the recorded events (stamped, merged) without clearing.
    pub fn snapshot_stamped(&self) -> Vec<Stamped> {
        let segments: Vec<Vec<Stamped>> = self
            .shards
            .iter()
            .map(|s| s.events.lock().clone())
            .collect();
        merge_by_stamp(segments)
    }

    /// Copy the recorded events (merged) without clearing.
    pub fn snapshot(&self) -> Vec<Event> {
        self.snapshot_stamped()
            .into_iter()
            .map(|(_, e)| e)
            .collect()
    }
}

impl TraceSink for ShardedSink {
    fn emit(&self, event: Event) {
        let shard = &self.shards[thread_slot() & self.mask];
        let mut segment = shard.events.lock();
        // Stamped under the shard lock: the segment stays sorted even
        // when two threads share a shard. The stamp is still taken
        // inside the emitter's critical section (we are inside
        // `emit`), which is what makes stamp order legal.
        let stamp = self.seq.fetch_add(1, Ordering::AcqRel);
        segment.push((stamp, event));
    }

    /// The claim's stamp is taken first and `valid` runs after it, still
    /// under the shard lock: an `ok: true` claim was valid at its stamp.
    fn claim(&self, tid: Tid, chain: &[Inum], locked: bool, valid: &dyn Fn() -> bool) -> bool {
        let chain = chain.to_vec();
        let shard = &self.shards[thread_slot() & self.mask];
        let mut segment = shard.events.lock();
        let stamp = self.seq.fetch_add(1, Ordering::AcqRel);
        let ok = valid();
        let event = Event::OptValidate {
            tid,
            chain,
            locked,
            ok,
        };
        segment.push((stamp, event));
        ok
    }
}

/// K-way merge of per-shard segments, each already sorted by stamp,
/// into one stamp-sorted vector. O(n log k).
fn merge_by_stamp(segments: Vec<Vec<Stamped>>) -> Vec<Stamped> {
    let mut iters: Vec<std::vec::IntoIter<Stamped>> = segments
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(Vec::into_iter)
        .collect();
    match iters.len() {
        0 => return Vec::new(),
        1 => return iters.pop().expect("checked").collect(),
        _ => {}
    }
    let total: usize = iters.iter().map(|it| it.len()).sum();
    let mut out = Vec::with_capacity(total);
    // The heap holds (stamp, iterator index); the event itself sits in
    // `heads` so it never needs an `Ord` impl.
    let mut heads: Vec<Option<Event>> = Vec::with_capacity(iters.len());
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::with_capacity(iters.len());
    for (i, it) in iters.iter_mut().enumerate() {
        match it.next() {
            Some((stamp, event)) => {
                heads.push(Some(event));
                heap.push(Reverse((stamp, i)));
            }
            None => heads.push(None),
        }
    }
    while let Some(Reverse((stamp, i))) = heap.pop() {
        let event = heads[i].take().expect("head present for queued stamp");
        out.push((stamp, event));
        if let Some((next_stamp, next_event)) = iters[i].next() {
            debug_assert!(next_stamp > stamp, "shard segment not sorted");
            heads[i] = Some(next_event);
            heap.push(Reverse((next_stamp, i)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_and_merges_single_thread() {
        let sink = ShardedSink::with_shards(4);
        sink.emit(Event::Lp { tid: Tid(1) });
        sink.emit(Event::Lp { tid: Tid(2) });
        assert_eq!(sink.len(), 2);
        let stamped = sink.take_stamped();
        assert_eq!(stamped.len(), 2);
        assert!(stamped[0].0 < stamped[1].0);
        assert_eq!(stamped[0].1.tid(), Tid(1));
        assert_eq!(stamped[1].1.tid(), Tid(2));
        assert!(sink.is_empty());
    }

    #[test]
    fn concurrent_emitters_yield_strictly_increasing_stamps() {
        let sink = Arc::new(ShardedSink::with_shards(4));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let sink = Arc::clone(&sink);
            handles.push(std::thread::spawn(move || {
                for _ in 0..250 {
                    sink.emit(Event::Lp { tid: Tid(t) });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sink.len(), 2000);
        let stamped = sink.take_stamped();
        assert_eq!(stamped.len(), 2000);
        for w in stamped.windows(2) {
            assert!(w[0].0 < w[1].0, "stamps must be strictly increasing");
        }
        // Per-thread program order is preserved in the merged trace.
        let mut last_idx = std::collections::HashMap::new();
        let mut counts = std::collections::HashMap::new();
        for (i, (_, e)) in stamped.iter().enumerate() {
            let prev = last_idx.insert(e.tid(), i);
            assert!(prev.is_none_or(|p| p < i));
            *counts.entry(e.tid()).or_insert(0usize) += 1;
        }
        assert!(counts.values().all(|c| *c == 250));
    }

    #[test]
    fn snapshot_does_not_clear_and_take_does() {
        let sink = ShardedSink::with_shards(2);
        sink.emit(Event::Lp { tid: Tid(1) });
        assert_eq!(sink.snapshot().len(), 1);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.take().len(), 1);
        assert!(sink.take().is_empty());
        assert_eq!(sink.stamps_issued(), 1);
    }

    #[test]
    fn claim_is_decided_after_its_stamp_and_stores_the_chain() {
        let sink = ShardedSink::with_shards(2);
        sink.emit(Event::Lp { tid: Tid(1) });
        // The validator already sees its own event's stamp issued.
        assert!(sink.claim(Tid(1), &[1, 4], true, &|| sink.stamps_issued() == 2));
        assert!(!sink.claim(Tid(1), &[1], false, &|| false));
        let claim = |chain: Vec<Inum>, locked, ok| Event::OptValidate {
            tid: Tid(1),
            chain,
            locked,
            ok,
        };
        assert_eq!(
            sink.take_stamped()[1..],
            [
                (1, claim(vec![1, 4], true, true)),
                (2, claim(vec![1], false, false))
            ]
        );
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedSink::with_shards(0).shard_count(), 1);
        assert_eq!(ShardedSink::with_shards(3).shard_count(), 4);
        assert_eq!(ShardedSink::with_shards(8).shard_count(), 8);
    }

    #[test]
    fn merge_handles_empty_and_skewed_segments() {
        let merged = merge_by_stamp(vec![]);
        assert!(merged.is_empty());
        let a = vec![
            (0, Event::Lp { tid: Tid(1) }),
            (3, Event::Lp { tid: Tid(1) }),
        ];
        let b = vec![
            (1, Event::Lp { tid: Tid(2) }),
            (2, Event::Lp { tid: Tid(2) }),
        ];
        let merged = merge_by_stamp(vec![a, Vec::new(), b]);
        let stamps: Vec<u64> = merged.iter().map(|(s, _)| *s).collect();
        assert_eq!(stamps, vec![0, 1, 2, 3]);
    }
}
