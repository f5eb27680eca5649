//! Deterministic interleaving control for concurrency tests.
//!
//! [`GateSink`] wraps any [`TraceSink`] and *parks* the emitting thread
//! immediately **before** an event matching a registered gate is
//! recorded — while that thread holds exactly the locks it held at that
//! point of its critical section. This turns the paper's interleaving
//! diagrams (Figures 1, 4, 8, 9) into repeatable tests: park a `mkdir`
//! just before its first mutation (holding only its parent directory's
//! lock), run a full `rename(/a, /e)`, then release the `mkdir` and check
//! the trace.
//!
//! Pick gate events at which the thread holds only its deepest lock —
//! the first `Mutate` of an updating operation, or the `Lp` of a
//! read-only/failing one. Gating on a `Lock` event would park while the
//! *previous* inode of the hand-over-hand walk is still held (its
//! `Unlock` is emitted after the child's `Lock`), which deadlocks
//! scenarios that need that inode.
//!
//! Gates are one-shot: each parks the first matching emission and ignores
//! later ones.

use parking_lot::{Condvar, Mutex};

use crate::{Event, Inum, Tid, TraceSink};

/// Identifies a registered gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateId(usize);

type Matcher = Box<dyn Fn(&Event) -> bool + Send + Sync>;

struct GateState {
    matcher: Matcher,
    open: bool,
    parked: bool,
    hit: bool,
}

/// A sink wrapper that parks emitting threads at registered gates.
pub struct GateSink<S> {
    inner: S,
    gates: Mutex<Vec<GateState>>,
    cv: Condvar,
}

impl<S: TraceSink> GateSink<S> {
    /// Wrap `inner` with no gates.
    pub fn new(inner: S) -> Self {
        GateSink {
            inner,
            gates: Mutex::new(Vec::new()),
            cv: Condvar::new(),
        }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Register a gate: the first emission matching `matcher` parks its
    /// thread until [`GateSink::open`] is called.
    pub fn add_gate(&self, matcher: impl Fn(&Event) -> bool + Send + Sync + 'static) -> GateId {
        let mut gates = self.gates.lock();
        gates.push(GateState {
            matcher: Box::new(matcher),
            open: false,
            parked: false,
            hit: false,
        });
        GateId(gates.len() - 1)
    }

    /// Block until some thread is parked at `gate`.
    ///
    /// # Panics
    ///
    /// Panics after ten seconds — a deadlocked test is reported rather
    /// than hung.
    pub fn wait_parked(&self, gate: GateId) {
        let mut gates = self.gates.lock();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !gates[gate.0].parked {
            if self.cv.wait_until(&mut gates, deadline).timed_out() {
                panic!("no thread reached gate {gate:?} within 10s");
            }
        }
    }

    /// Whether a thread is currently parked at `gate`.
    pub fn is_parked(&self, gate: GateId) -> bool {
        self.gates.lock()[gate.0].parked
    }

    /// Release the thread parked at `gate` (or let the next matching
    /// emission pass straight through).
    pub fn open(&self, gate: GateId) {
        let mut gates = self.gates.lock();
        gates[gate.0].open = true;
        self.cv.notify_all();
    }
}

impl<S: TraceSink> GateSink<S> {
    /// Park the calling thread if `event` matches a registered unopened
    /// gate; returns once the gate opens (or immediately on no match).
    fn pass_gates(&self, event: &Event) {
        let mut gates = self.gates.lock();
        let hit = gates
            .iter()
            .position(|g| !g.hit && !g.open && (g.matcher)(event));
        if let Some(i) = hit {
            gates[i].hit = true;
            gates[i].parked = true;
            self.cv.notify_all();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while !gates[i].open {
                if self.cv.wait_until(&mut gates, deadline).timed_out() {
                    panic!("gate {i} never opened within 10s (test deadlock)");
                }
            }
            gates[i].parked = false;
            self.cv.notify_all();
        }
    }
}

impl<S: TraceSink> TraceSink for GateSink<S> {
    fn emit(&self, event: Event) {
        self.pass_gates(&event);
        // The event is recorded only when the thread resumes: parking
        // happens *before* the matched step, so the trace order remains
        // the true order of atomic steps.
        self.inner.emit(event);
    }

    fn emit_ref(&self, event: &Event) {
        self.pass_gates(event);
        self.inner.emit_ref(event);
    }

    /// Gates see the *attempted* claim, `OptValidate{.., ok: true}`, and
    /// park it before the inner sink decides it.
    fn claim(&self, tid: Tid, chain: &[Inum], locked: bool, valid: &dyn Fn() -> bool) -> bool {
        self.pass_gates(&Event::OptValidate {
            tid,
            chain: chain.to_vec(),
            locked,
            ok: true,
        });
        self.inner.claim(tid, chain, locked, valid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BufferSink;
    use std::sync::Arc;

    #[test]
    fn gate_parks_and_releases() {
        let sink = Arc::new(GateSink::new(BufferSink::new()));
        let gate = sink.add_gate(|e| matches!(e, Event::Lp { tid } if *tid == Tid(5)));
        let s2 = Arc::clone(&sink);
        let h = std::thread::spawn(move || {
            s2.emit(Event::Lp { tid: Tid(4) }); // passes through
            s2.emit(Event::Lp { tid: Tid(5) }); // parks here
            s2.emit(Event::Lp { tid: Tid(6) });
        });
        sink.wait_parked(gate);
        assert_eq!(sink.inner().len(), 1, "parking happens before recording");
        assert!(sink.is_parked(gate));
        sink.open(gate);
        h.join().unwrap();
        assert_eq!(sink.inner().len(), 3);
    }

    #[test]
    fn gates_apply_to_borrowed_emissions_too() {
        let sink = Arc::new(GateSink::new(BufferSink::new()));
        let gate = sink.add_gate(|e| matches!(e, Event::Lp { tid } if *tid == Tid(9)));
        let s2 = Arc::clone(&sink);
        let h = std::thread::spawn(move || {
            s2.emit_ref(&Event::Lp { tid: Tid(9) }); // parks here
        });
        sink.wait_parked(gate);
        assert_eq!(sink.inner().len(), 0, "parking happens before recording");
        sink.open(gate);
        h.join().unwrap();
        assert_eq!(sink.inner().len(), 1);
    }

    #[test]
    fn gate_parks_a_claim_before_it_is_decided() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let sink = Arc::new(GateSink::new(BufferSink::new()));
        let gate = sink.add_gate(
            |e| matches!(e, Event::OptValidate { chain, ok: true, .. } if *chain == [1, 2]),
        );
        let ran = Arc::new(AtomicBool::new(false));
        let (s2, r2) = (Arc::clone(&sink), Arc::clone(&ran));
        let h = std::thread::spawn(move || {
            s2.claim(Tid(3), &[1, 2], true, &|| {
                r2.store(true, Ordering::SeqCst);
                false
            })
        });
        sink.wait_parked(gate);
        assert!(!ran.load(Ordering::SeqCst), "parked before valid() ran");
        assert!(sink.inner().is_empty());
        sink.open(gate);
        assert!(!h.join().unwrap());
        assert!(ran.load(Ordering::SeqCst));
        assert_eq!(
            sink.inner().take(),
            vec![Event::OptValidate {
                tid: Tid(3),
                chain: vec![1, 2],
                locked: true,
                ok: false
            }]
        );
    }

    #[test]
    fn gate_is_one_shot() {
        let sink = Arc::new(GateSink::new(BufferSink::new()));
        let gate = sink.add_gate(|e| matches!(e, Event::Lp { .. }));
        sink.open(gate); // pre-open: emission passes straight through
        sink.emit(Event::Lp { tid: Tid(1) });
        sink.emit(Event::Lp { tid: Tid(2) });
        assert_eq!(sink.inner().len(), 2);
    }
}
