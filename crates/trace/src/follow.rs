//! Tail-follow cursors over a live [`ShardedSink`] — the feed for
//! streaming (online) checking.
//!
//! [`ShardedSink::take_stamped`] is a quiescent-point drain: racing it
//! against live emitters can split concurrent events across two takes
//! so their concatenation is not stamp-sorted. A [`TailCursor`] instead
//! follows the shards *while they are being written* and still hands
//! its consumer a strictly stamp-increasing merged stream, by releasing
//! only the prefix below a **cross-shard stable watermark**.
//!
//! # The watermark rule
//!
//! On every [`TailCursor::poll`], the cursor visits each shard in turn.
//! With shard *i*'s lock held it (a) copies (or drains) the events that
//! arrived since the previous poll and (b) reads the global sequence
//! counter: `low_i = seq.load()`. Because stamps are taken *under the
//! shard lock* inside `emit`, any event that lands in shard *i* after
//! the cursor releases that lock will draw its stamp from a counter
//! state that happens-after the `low_i` read — its stamp is `>= low_i`.
//!
//! The watermark is `W = min_i(low_i)`. Every future emit, into *any*
//! shard, is stamped `>= low_i >= W` for its shard's frontier, so every
//! event with stamp `< W` is already sitting in the cursor's per-shard
//! buffers. Those events can be k-way merged and released in stamp
//! order; events stamped `>= W` stay buffered until a later poll raises
//! the watermark past them. The released stream is therefore a strictly
//! increasing stamp prefix of exactly the trace a quiescent
//! `take_stamped` would have produced — `tests/` pins this
//! differentially.
//!
//! # Following vs consuming
//!
//! A *following* cursor ([`ShardedSink::follow`]) leaves the events in
//! the sink, so an end-of-run `take_stamped` still sees the whole trace
//! (differential harnesses want both views). A *consuming* cursor
//! ([`ShardedSink::follow_consuming`]) drains segments as it goes, so
//! sink memory stays proportional to the in-flight window — the mode a
//! production checker pump runs in.
//!
//! A consuming poll holds each shard lock for O(1): it swaps the shard's
//! segment with an empty spare `Vec` and reads the frontier, then moves
//! the events into its buffers after unlocking. The drained segment
//! becomes the next spare, so the vectors trade places poll after poll
//! and keep their capacity, up to a cap that gives a burst's excess back.
//! Emitters on that shard therefore never wait behind a copy of the
//! events the cursor takes.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::shard::{ShardedSink, Stamped};

/// Events' worth of capacity a cursor keeps in each buffer it recycles
/// (a consuming cursor's spare, and the per-shard pending queues) once a
/// poll has emptied it. Steady polls move far fewer events than this, so the
/// buffers never regrow; a burst (set-up, a stalled consumer) grows them
/// once, and this gives the excess back instead of holding it for good.
const RETAINED_CAP: usize = 4096;

/// Counters describing how far a [`TailCursor`] has progressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CursorStats {
    /// Current stable watermark: every event stamped below this has
    /// been released (merged, in stamp order) to the consumer.
    pub watermark: u64,
    /// Stamps issued by the sink at the last poll — the emit frontier.
    pub frontier: u64,
    /// Events released to the consumer so far.
    pub released: u64,
    /// Events copied/drained from the sink but still held back because
    /// their stamp is at or above the watermark.
    pub buffered: usize,
}

impl CursorStats {
    /// Watermark lag in stamps: how far the released prefix trails the
    /// emit frontier. The streaming checker exports this as a gauge.
    pub fn lag(&self) -> u64 {
        self.frontier.saturating_sub(self.watermark)
    }
}

/// An incremental follower of a live [`ShardedSink`]; see the module
/// docs for the watermark rule that makes its output stamp-ordered.
pub struct TailCursor {
    sink: Arc<ShardedSink>,
    /// Per-shard read offset into the live segment (following mode).
    positions: Vec<usize>,
    /// Per-shard events copied out of the sink but not yet released
    /// (stamp >= watermark). Each deque is stamp-sorted; heads across
    /// deques are what the release step k-way merges.
    pending: Vec<VecDeque<Stamped>>,
    /// Drain segments instead of copying (production pump mode).
    consume: bool,
    /// The empty vector a consuming poll swaps in for a shard's segment.
    spare: Vec<Stamped>,
    watermark: u64,
    frontier: u64,
    released: u64,
    /// Set if a concurrent `take_stamped` yanked events out from under
    /// a following cursor (segment shrank below our position). The
    /// cursor can no longer prove its prefix is complete.
    invalidated: bool,
}

impl ShardedSink {
    /// Open a non-destructive tail cursor: events stay in the sink, so
    /// a later quiescent [`ShardedSink::take_stamped`] still returns the
    /// full trace. Do not mix with concurrent `take`/`take_stamped`
    /// calls while the cursor is live (the cursor detects this and
    /// reports itself [`TailCursor::invalidated`]).
    pub fn follow(self: &Arc<Self>) -> TailCursor {
        TailCursor::new(Arc::clone(self), false)
    }

    /// Open a consuming tail cursor: polled events are drained out of
    /// the sink (counting against [`ShardedSink::len`] like a take), so
    /// sink memory stays bounded by the in-flight window.
    pub fn follow_consuming(self: &Arc<Self>) -> TailCursor {
        TailCursor::new(Arc::clone(self), true)
    }
}

impl TailCursor {
    fn new(sink: Arc<ShardedSink>, consume: bool) -> Self {
        let n = sink.shard_count();
        TailCursor {
            sink,
            positions: vec![0; n],
            pending: (0..n).map(|_| VecDeque::new()).collect(),
            consume,
            spare: Vec::new(),
            watermark: 0,
            frontier: 0,
            released: 0,
            invalidated: false,
        }
    }

    /// Visit every shard, pull in newly arrived events, advance the
    /// watermark, and return the newly stable prefix merged in strictly
    /// increasing stamp order. Safe to call concurrently with emitters;
    /// returns an empty vector when nothing new became stable.
    pub fn poll(&mut self) -> Vec<Stamped> {
        let mut low = u64::MAX;
        let mut drained = 0u64;
        for i in 0..self.positions.len() {
            let shard = &self.sink.shards[i];
            let mut segment = shard.events.lock();
            // Read the frontier under the shard lock: any later emit
            // into this shard stamps itself >= this value.
            let low_i = self.sink.seq.load(Ordering::Acquire);
            if self.consume {
                std::mem::swap(&mut *segment, &mut self.spare);
                drop(segment);
                drained += self.spare.len() as u64;
                self.pending[i].extend(self.spare.drain(..));
                self.spare.shrink_to(RETAINED_CAP);
            } else {
                let pos = self.positions[i];
                if pos > segment.len() {
                    // Someone take()'d the sink out from under us; the
                    // events between our position and the head are gone
                    // and the watermark argument no longer holds.
                    self.invalidated = true;
                    self.positions[i] = segment.len();
                } else {
                    self.pending[i].extend(segment[pos..].iter().cloned());
                    self.positions[i] = segment.len();
                }
            }
            low = low.min(low_i);
        }
        if drained > 0 {
            // A consuming cursor is a take: keep `len()` meaningful.
            self.sink.taken.fetch_add(drained, Ordering::Relaxed);
        }
        self.frontier = self.sink.seq.load(Ordering::Relaxed);
        if low != u64::MAX && low > self.watermark {
            self.watermark = low;
        }
        self.release_below(self.watermark)
    }

    /// Release everything still buffered, regardless of watermark. Only
    /// legal at a quiescent point (emitting threads joined/drained) —
    /// exactly like `take_stamped`. Runs a final poll first so nothing
    /// recorded is left behind.
    pub fn finish(mut self) -> Vec<Stamped> {
        let mut out = self.poll();
        out.extend(self.release_below(u64::MAX));
        out
    }

    /// K-way merge-pop every buffered event with stamp < `bound`.
    ///
    /// Each shard's deque is stamp-sorted, so the releasable prefix per
    /// shard is found by binary search, the single-shard case is a bulk
    /// drain, and the multi-shard merge pops *runs* (all of one shard's
    /// events below the next shard's head) instead of rescanning every
    /// head per event — emitters write bursts of consecutive stamps into
    /// one shard, so runs are long.
    fn release_below(&mut self, bound: u64) -> Vec<Stamped> {
        // Releasable prefix length per shard.
        let mut take: Vec<usize> = Vec::with_capacity(self.pending.len());
        let mut total = 0usize;
        let mut live = 0usize;
        let mut last_live = 0usize;
        for (i, q) in self.pending.iter().enumerate() {
            let k = q.partition_point(|&(s, _)| s < bound);
            take.push(k);
            if k > 0 {
                total += k;
                live += 1;
                last_live = i;
            }
        }
        if total == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(total);
        if live == 1 {
            out.extend(self.pending[last_live].drain(..take[last_live]));
        } else {
            while out.len() < total {
                // Shard with the smallest head, and the runner-up head
                // bounding how far its run extends.
                let mut best: Option<(u64, usize)> = None;
                let mut next = u64::MAX;
                for (i, q) in self.pending.iter().enumerate() {
                    if take[i] == 0 {
                        continue;
                    }
                    let stamp = q.front().expect("count checked").0;
                    match best {
                        Some((b, _)) if stamp >= b => next = next.min(stamp),
                        Some((b, _)) => {
                            next = next.min(b);
                            best = Some((stamp, i));
                        }
                        None => best = Some((stamp, i)),
                    }
                }
                let (_, i) = best.expect("total > released so a head exists");
                let q = &mut self.pending[i];
                let run = q.partition_point(|&(s, _)| s < next).min(take[i]);
                take[i] -= run;
                out.extend(q.drain(..run));
            }
        }
        self.released += out.len() as u64;
        for q in &mut self.pending {
            q.shrink_to(RETAINED_CAP);
        }
        out
    }

    /// Progress counters for metrics export.
    pub fn stats(&self) -> CursorStats {
        CursorStats {
            watermark: self.watermark,
            frontier: self.frontier,
            released: self.released,
            buffered: self.pending.iter().map(VecDeque::len).sum(),
        }
    }

    /// True if a concurrent drain invalidated a following cursor's
    /// completeness guarantee (see [`ShardedSink::follow`]).
    pub fn invalidated(&self) -> bool {
        self.invalidated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, Tid, TraceSink};
    use std::sync::Barrier;

    #[test]
    fn follow_releases_full_trace_in_stamp_order_at_quiescence() {
        let sink = Arc::new(ShardedSink::with_shards(4));
        let mut cursor = sink.follow();
        for t in 0..3u32 {
            sink.emit(Event::Lp { tid: Tid(t) });
        }
        let mut got = cursor.poll();
        got.extend(cursor.finish());
        assert_eq!(got.len(), 3);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        // Non-destructive: the sink still holds everything.
        assert_eq!(sink.take_stamped().len(), 3);
    }

    #[test]
    fn consuming_cursor_drains_the_sink() {
        let sink = Arc::new(ShardedSink::with_shards(2));
        let cursor = sink.follow_consuming();
        for t in 0..5u32 {
            sink.emit(Event::Lp { tid: Tid(t) });
        }
        let got = cursor.finish();
        assert_eq!(got.len(), 5);
        assert!(sink.is_empty(), "consuming cursor must count as a take");
    }

    #[test]
    fn released_prefix_is_always_strictly_increasing_under_live_emitters() {
        let sink = Arc::new(ShardedSink::with_shards(4));
        let mut cursor = sink.follow();
        let threads = 4;
        let per = 500usize;
        let barrier = Arc::new(Barrier::new(threads + 1));
        let mut handles = Vec::new();
        for t in 0..threads as u32 {
            let sink = Arc::clone(&sink);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..per {
                    sink.emit(Event::Lp { tid: Tid(t) });
                }
            }));
        }
        barrier.wait();
        let mut all = Vec::new();
        while all.len() < threads * per {
            all.extend(cursor.poll());
        }
        for h in handles {
            h.join().unwrap();
        }
        all.extend(cursor.finish());
        assert_eq!(all.len(), threads * per);
        for w in all.windows(2) {
            assert!(w[0].0 < w[1].0, "streamed stamps must strictly increase");
        }
        // The streamed trace equals the quiescent merge.
        let offline = sink.take_stamped();
        assert_eq!(all, offline);
    }

    #[test]
    fn consuming_cursor_releases_each_event_once_under_live_emitters() {
        let sink = Arc::new(ShardedSink::with_shards(4));
        let mut cursor = sink.follow_consuming();
        let threads = 4u32;
        let per = 500u32;
        let barrier = Arc::new(Barrier::new(threads as usize + 1));
        let mut handles = Vec::new();
        for t in 0..threads {
            let sink = Arc::clone(&sink);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for i in 0..per {
                    // The unlocked inode names the event: (thread, index).
                    sink.emit(Event::Unlock {
                        tid: Tid(t),
                        ino: u64::from(i),
                    });
                }
            }));
        }
        barrier.wait();
        let total = (threads * per) as usize;
        let mut all = Vec::new();
        while all.len() < total {
            all.extend(cursor.poll());
        }
        for h in handles {
            h.join().unwrap();
        }
        all.extend(cursor.finish());
        assert!(sink.is_empty(), "a consuming cursor leaves nothing behind");
        assert_eq!(all.len(), total, "every event is released exactly once");
        for w in all.windows(2) {
            assert!(w[0].0 < w[1].0, "released stamps must strictly increase");
        }
        let mut released: Vec<(u32, u64)> = all
            .iter()
            .map(|(_, e)| match e {
                Event::Unlock { tid, ino } => (tid.0, *ino),
                other => panic!("not emitted: {other:?}"),
            })
            .collect();
        released.sort_unstable();
        let emitted: Vec<(u32, u64)> = (0..threads)
            .flat_map(|t| (0..per).map(move |i| (t, u64::from(i))))
            .collect();
        assert_eq!(released, emitted, "the released set is the emitted set");
        // Each thread's events keep their emission order.
        for t in 0..threads {
            let mine: Vec<u64> = all
                .iter()
                .filter_map(|(_, e)| match e {
                    Event::Unlock { tid, ino } if tid.0 == t => Some(*ino),
                    _ => None,
                })
                .collect();
            assert!(mine.windows(2).all(|w| w[0] < w[1]), "thread {t} reordered");
        }
    }

    #[test]
    fn concurrent_take_invalidates_a_following_cursor() {
        let sink = Arc::new(ShardedSink::with_shards(2));
        let mut cursor = sink.follow();
        sink.emit(Event::Lp { tid: Tid(1) });
        cursor.poll();
        sink.emit(Event::Lp { tid: Tid(1) });
        let _ = sink.take_stamped();
        cursor.poll();
        assert!(cursor.invalidated());
    }

    #[test]
    fn watermark_lag_is_reported() {
        let sink = Arc::new(ShardedSink::with_shards(2));
        let mut cursor = sink.follow();
        sink.emit(Event::Lp { tid: Tid(1) });
        cursor.poll();
        let stats = cursor.stats();
        assert_eq!(stats.frontier, 1);
        assert_eq!(stats.watermark, 1);
        assert_eq!(stats.lag(), 0);
        assert_eq!(stats.released, 1);
    }
}
