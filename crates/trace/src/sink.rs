//! Trace sinks.
//!
//! A [`TraceSink`] receives the atomic steps of an instrumented execution.
//! The default production configuration uses no sink at all (the emitting
//! file system holds an `Option` and skips all instrumentation); tests and
//! the CRL-H checker install a recorder ([`BufferSink`] or the sharded
//! [`crate::ShardedSink`]) and replay what it recorded, offline or live
//! through a [`crate::TailCursor`].

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::{Event, Inum, Tid};

/// Receiver of trace events.
///
/// Implementations must be cheap and must not call back into the file
/// system being traced. The emitter guarantees that `emit` is called at
/// the atomic instant the event describes (e.g. while holding the lock a
/// [`Event::Lock`] reports), so a sink that serializes its callers — or
/// stamps each call from a single atomic counter, as
/// [`crate::ShardedSink`] does — observes a legal total order of the
/// execution. A claim is decided at its order point ([`TraceSink::claim`]).
pub trait TraceSink: Send + Sync {
    /// Record one event, taking ownership.
    fn emit(&self, event: Event);

    /// Record thread `tid`'s optimistic attempt
    /// `OptValidate{tid, chain, locked, ok}` and return `ok`, where `ok`
    /// is `valid()` evaluated *after* the event's place in the total order
    /// is fixed (after its stamp, or under the lock that serializes this
    /// sink's callers). An `ok: true` claim is then valid at its own order
    /// point, and final; with `locked` it is also the announcement of the
    /// claimer's lock on `chain.last()`, so that lock enters the trace
    /// only once a valid chain proves the slot is still linked. `valid`
    /// only reads the emitter's atomics. `chain` is borrowed: only a sink
    /// that records the event copies it.
    ///
    /// The default records `ok: false` without calling `valid`: the only
    /// sound answer for a wrapper that does not forward this method. The
    /// emitter then falls back to the pessimistic walk.
    fn claim(&self, tid: Tid, chain: &[Inum], locked: bool, _valid: &dyn Fn() -> bool) -> bool {
        self.emit(Event::OptValidate {
            tid,
            chain: chain.to_vec(),
            locked,
            ok: false,
        });
        false
    }

    /// Record one event by reference.
    ///
    /// Sinks that only *inspect* events (checkers, journals, filters)
    /// override this to avoid a deep clone; recording sinks keep the
    /// default, which clones into [`TraceSink::emit`]. [`FanoutSink`]
    /// routes through this method for every sink but the last, so
    /// multi-consumer setups pay at most one clone per extra *recording*
    /// consumer instead of one per consumer.
    fn emit_ref(&self, event: &Event) {
        self.emit(event.clone());
    }

    /// Routing hint: the *primary* inode of the operation thread `tid` is
    /// about to mutate (the locked parent directory for namespace ops, the
    /// file inode for data ops, the **source** parent for renames).
    ///
    /// Emitters call this once per operation, before the first
    /// [`Event::Mutate`], while already inside the critical section. A
    /// sharded journal sink uses it to route every micro-op of the
    /// operation to one shard (chosen by inode-range hash) instead of
    /// scattering them by per-op target; recording and checking sinks
    /// ignore it — it carries no semantic content, only placement.
    fn shard_hint(&self, _tid: Tid, _primary: Inum) {}

    /// Whether a mutation whose primary inode is `primary` may proceed.
    ///
    /// Emitters ask *before* [`TraceSink::shard_hint`] and before taking
    /// any observable step of the mutation. A sink that has lost the
    /// durability domain backing `primary` (e.g. a journal whose shard
    /// for that inode range is quarantined) answers `false`, and the
    /// emitter fails the operation read-only *without mutating* — so the
    /// trace never contains a mutation the sink could not have logged.
    /// Pure observers keep the default `true`.
    fn admit_mutation(&self, _primary: Inum) -> bool {
        true
    }
}

/// A sink that discards everything (useful as an explicit default).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&self, _event: Event) {}
    fn emit_ref(&self, _event: &Event) {}
    fn claim(&self, _tid: Tid, _chain: &[Inum], _locked: bool, valid: &dyn Fn() -> bool) -> bool {
        valid()
    }
}

/// A sink that appends events to an in-memory buffer under a mutex.
///
/// The mutex both protects the buffer and serializes concurrent emitters,
/// making the buffer order a legal total order of atomic steps — the input
/// the offline CRL-H checker replays. It is also a global serialization
/// point: every emitting thread contends on the one lock, which is what
/// [`crate::ShardedSink`] exists to avoid. `BufferSink` stays as the
/// reference recorder; a differential test in `tests/trace_sharded.rs`
/// pins the two recorders to order-equivalent traces.
///
/// [`BufferSink::len`]/[`BufferSink::is_empty`] read a relaxed atomic
/// counter, so progress polling never touches the buffer mutex.
#[derive(Default)]
pub struct BufferSink {
    events: Mutex<Vec<Event>>,
    count: AtomicUsize,
}

/// Prints the event count only: formatting the buffer would go through
/// the mutex while an emitter may hold it.
impl std::fmt::Debug for BufferSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferSink")
            .field("len", &self.len())
            .finish()
    }
}

impl BufferSink {
    /// Create an empty buffer sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded so far (O(1), lock-free).
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Whether no events have been recorded (O(1), lock-free).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take the recorded events, leaving the buffer empty.
    pub fn take(&self) -> Vec<Event> {
        let mut guard = self.events.lock();
        let events = std::mem::take(&mut *guard);
        self.count.store(0, Ordering::Relaxed);
        events
    }

    /// Clone the recorded events without clearing the buffer.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().clone()
    }
}

impl TraceSink for BufferSink {
    fn emit(&self, event: Event) {
        let mut guard = self.events.lock();
        guard.push(event);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Decided under the buffer mutex, which orders every event.
    fn claim(&self, tid: Tid, chain: &[Inum], locked: bool, valid: &dyn Fn() -> bool) -> bool {
        let chain = chain.to_vec();
        let mut guard = self.events.lock();
        let ok = valid();
        guard.push(Event::OptValidate {
            tid,
            chain,
            locked,
            ok,
        });
        self.count.fetch_add(1, Ordering::Relaxed);
        ok
    }
}

/// A sink that forwards every event to several sinks, in order.
///
/// Lets one instrumented file system feed both a checker/recorder and an
/// operation journal at the same time. Events are routed by reference
/// ([`TraceSink::emit_ref`]) to every sink but the last, which receives
/// the owned event — so inspecting consumers (checker, journal) cost no
/// clone at all, and the single owned event should go to the recording
/// sink by placing it last.
///
/// A claim is decided inside the last sink's order point, and the decided
/// event is forwarded by reference to the others from there.
pub struct FanoutSink(pub Vec<std::sync::Arc<dyn TraceSink>>);

impl TraceSink for FanoutSink {
    fn emit(&self, event: Event) {
        let Some((last, rest)) = self.0.split_last() else {
            return;
        };
        for sink in rest {
            sink.emit_ref(&event);
        }
        last.emit(event);
    }

    fn claim(&self, tid: Tid, chain: &[Inum], locked: bool, valid: &dyn Fn() -> bool) -> bool {
        let Some((last, rest)) = self.0.split_last() else {
            return valid();
        };
        let forward = |ok| {
            if !rest.is_empty() {
                let event = Event::OptValidate {
                    tid,
                    chain: chain.to_vec(),
                    locked,
                    ok,
                };
                for sink in rest {
                    sink.emit_ref(&event);
                }
            }
            ok
        };
        let decided = Cell::new(false);
        let ok = last.claim(tid, chain, locked, &|| {
            decided.set(true);
            forward(valid())
        });
        // A last sink on the trait default records `ok:false` unasked.
        if decided.get() {
            ok
        } else {
            forward(ok)
        }
    }

    fn emit_ref(&self, event: &Event) {
        for sink in &self.0 {
            sink.emit_ref(event);
        }
    }

    fn shard_hint(&self, tid: Tid, primary: Inum) {
        for sink in &self.0 {
            sink.shard_hint(tid, primary);
        }
    }

    fn admit_mutation(&self, primary: Inum) -> bool {
        self.0.iter().all(|sink| sink.admit_mutation(primary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpDesc, Tid};
    use std::sync::Arc;

    #[test]
    fn buffer_sink_records_in_order() {
        let sink = BufferSink::new();
        sink.emit(Event::Lp { tid: Tid(1) });
        sink.emit(Event::Lp { tid: Tid(2) });
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].tid(), Tid(1));
        assert_eq!(events[1].tid(), Tid(2));
        assert!(sink.is_empty());
    }

    /// Formatting a sink while an emitter holds its mutex leaves the
    /// mutex held: `Debug` reads the counter, not the buffer.
    #[test]
    fn debug_leaves_a_held_buffer_locked() {
        let sink = BufferSink::new();
        sink.emit(Event::Lp { tid: Tid(1) });
        let held = sink.events.lock();
        assert_eq!(format!("{sink:?}"), "BufferSink { len: 1 }");
        assert!(sink.events.is_locked(), "Debug released the emitter's lock");
        drop(held);
    }

    #[test]
    fn buffer_sink_is_concurrent() {
        let sink = Arc::new(BufferSink::new());
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let sink = Arc::clone(&sink);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    sink.emit(Event::Lp { tid: Tid(t) });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sink.len(), 800);
    }

    #[test]
    fn null_sink_discards() {
        let sink = NullSink;
        sink.emit(Event::OpBegin {
            tid: Tid(0),
            op: OpDesc::Stat { path: vec![] },
        });
        sink.emit_ref(&Event::Lp { tid: Tid(0) });
        // Nothing to observe — the point is it compiles and is free.
    }

    #[test]
    fn snapshot_does_not_clear() {
        let sink = BufferSink::new();
        sink.emit(Event::Lp { tid: Tid(1) });
        assert_eq!(sink.snapshot().len(), 1);
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn len_tracks_take_and_emit() {
        let sink = BufferSink::new();
        assert!(sink.is_empty());
        sink.emit(Event::Lp { tid: Tid(1) });
        sink.emit_ref(&Event::Lp { tid: Tid(2) });
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.take().len(), 2);
        assert_eq!(sink.len(), 0);
        sink.emit(Event::Lp { tid: Tid(3) });
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn fanout_delivers_to_all_sinks() {
        let a = Arc::new(BufferSink::new());
        let b = Arc::new(BufferSink::new());
        let fan = FanoutSink(vec![
            Arc::clone(&a) as Arc<dyn TraceSink>,
            Arc::clone(&b) as Arc<dyn TraceSink>,
        ]);
        fan.emit(Event::Lp { tid: Tid(1) });
        fan.emit_ref(&Event::Lp { tid: Tid(2) });
        assert_eq!(a.take(), b.take());
    }

    fn claim_event(tid: u32, ok: bool) -> Event {
        Event::OptValidate {
            tid: Tid(tid),
            chain: vec![1, 7],
            locked: true,
            ok,
        }
    }

    #[test]
    fn buffer_sink_decides_claims_under_its_mutex_and_stores_the_chain() {
        let sink = BufferSink::new();
        assert!(sink.claim(Tid(1), &[1, 7], true, &|| sink.events.is_locked()));
        assert_eq!(sink.take(), vec![claim_event(1, true)]);
    }

    #[test]
    fn null_sink_claims_by_validating_alone() {
        assert!(NullSink.claim(Tid(1), &[1], false, &|| true));
        assert!(!NullSink.claim(Tid(1), &[1], false, &|| false));
    }

    /// Records, with each event, whether `order`'s mutex was held then.
    struct UnderLock {
        order: Arc<BufferSink>,
        seen: Mutex<Vec<(Event, bool)>>,
    }

    impl TraceSink for UnderLock {
        fn emit(&self, event: Event) {
            let held = self.order.events.is_locked();
            self.seen.lock().push((event, held));
        }
    }

    #[test]
    fn fanout_decides_inside_the_last_sink_and_forwards_from_there() {
        let last = Arc::new(BufferSink::new());
        let first = Arc::new(UnderLock {
            order: Arc::clone(&last),
            seen: Mutex::new(Vec::new()),
        });
        let fan = FanoutSink(vec![
            Arc::clone(&first) as Arc<dyn TraceSink>,
            Arc::clone(&last) as Arc<dyn TraceSink>,
        ]);
        assert!(fan.claim(Tid(1), &[1, 7], true, &|| last.events.is_locked()));
        assert!(!fan.claim(Tid(1), &[1, 7], true, &|| false));
        let claims = [true, false].map(|ok| claim_event(1, ok));
        assert_eq!(last.take(), claims);
        let seen: Vec<_> = claims.into_iter().map(|c| (c, true)).collect();
        assert_eq!(*first.seen.lock(), seen);
        assert!(FanoutSink(Vec::new()).claim(Tid(1), &[1], false, &|| true));
    }

    /// Forwards `emit` only, so claims fall to the trait default.
    struct EmitOnly(Arc<BufferSink>);

    impl TraceSink for EmitOnly {
        fn emit(&self, event: Event) {
            self.0.emit(event);
        }
    }

    #[test]
    fn fanout_forwards_a_default_refusal_too() {
        let first = Arc::new(BufferSink::new());
        let last = Arc::new(BufferSink::new());
        let fan = FanoutSink(vec![
            Arc::clone(&first) as Arc<dyn TraceSink>,
            Arc::new(EmitOnly(Arc::clone(&last))) as Arc<dyn TraceSink>,
        ]);
        assert!(!fan.claim(Tid(2), &[1, 7], true, &|| {
            panic!("the default never validates")
        }));
        let refused = vec![claim_event(2, false)];
        assert_eq!(first.take(), refused);
        assert_eq!(last.take(), refused);
    }

    #[test]
    fn empty_fanout_is_fine() {
        let fan = FanoutSink(Vec::new());
        fan.emit(Event::Lp { tid: Tid(1) });
        fan.emit_ref(&Event::Lp { tid: Tid(1) });
    }
}
