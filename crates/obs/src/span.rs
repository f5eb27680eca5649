//! Causal op-span tracing.
//!
//! Every file-system operation gets a **span** — a `(start, end)` interval
//! with a parent link — and each phase it passes through (optimistic walk
//! attempt, blocked lock acquisition, journal shard append, epoch cut,
//! flush barrier, recovery replay, checker pass) is a timestamped child
//! span carrying the shard id, epoch, stamp, and retry count relevant to
//! that phase. Parenting is automatic: a thread-local span stack links a
//! child to whatever span is open on the same thread when it starts, so
//! the layers (vfs wrapper → core walk → journal sink) compose causally
//! without passing context through their APIs. Work fanned out to helper
//! threads (parallel epoch-slice writers, parallel recovery scans) links
//! explicitly with [`Span::child_of`].
//!
//! # Cost discipline
//!
//! Completed spans are recorded into the process-wide flight recorder
//! ([`crate::flightrec`]) — a fixed-budget lock-free ring per thread
//! slot, so the record path is the same 2-RMW class as a
//! [`crate::Histogram`] sample: one index `fetch_add` plus a seqlock
//! publication, all on the recording thread's own cache lines, zero
//! steady-state allocation.
//!
//! Hot-path spans are **sampled**: [`Span::op_root`] starts a recorded
//! span tree for one in [`DEFAULT_SPAN_SAMPLE`] operations (a thread-local
//! countdown, same discipline as `FsMetrics` op sampling) and an inert
//! zero-cost guard otherwise. Children ([`Span::child`]) record exactly
//! when their parent does, so a sampled operation carries its *whole*
//! phase breakdown and an unsampled one costs one branch per phase. Rare,
//! already-expensive control points (journal sync, recovery, dump
//! triggers) use [`Span::root`], which always records — that is what makes
//! the flight recorder's last-moments picture complete around a fault even
//! at sparse sampling.
//!
//! [`set_sampling(0)`](set_sampling) is the runtime off switch: root
//! constructors then return an inert guard after one relaxed load, and
//! children, finding no open parent, stay inert too. That is the floor
//! the `flightrec_overhead` bench gates against.

use crate::clock::ClockSource;
use std::cell::{Cell, RefCell, UnsafeCell};
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// The phase taxonomy. One variant per distinct layer transition; the
/// free-form label on each span refines it (e.g. which operation, which
/// journal frame kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// An operation root: one FS call as seen at some layer's boundary.
    Op,
    /// One optimistic (lockless) walk attempt.
    OptWalk,
    /// A blocked lock acquisition (uncontended takes are not spanned).
    Lock,
    /// A journal append: staging a mutation into a shard, or writing a
    /// shard's slice of an epoch.
    ShardAppend,
    /// The group-commit epoch cut (staging quiesced, buffers swapped).
    EpochCut,
    /// The device flush barrier closing a group commit.
    FlushBarrier,
    /// Recovery: scanning and replaying a shard's log.
    Replay,
    /// A checker pass over a trace.
    Checker,
    /// One served RPC request: the root accept→decode→dispatch→fs-op
    /// chain hangs under this.
    Rpc,
    /// A degradation trigger event (quarantine, degraded flip, checker
    /// violation, recovery loss) — zero-length, marks the instant.
    Trigger,
}

impl SpanKind {
    /// Stable lowercase name (used by the dump serializations).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Op => "op",
            SpanKind::OptWalk => "opt_walk",
            SpanKind::Lock => "lock",
            SpanKind::ShardAppend => "shard_append",
            SpanKind::EpochCut => "epoch_cut",
            SpanKind::FlushBarrier => "flush_barrier",
            SpanKind::Replay => "replay",
            SpanKind::Checker => "checker",
            SpanKind::Rpc => "rpc",
            SpanKind::Trigger => "trigger",
        }
    }
}

/// Sentinel for "no shard attributed".
pub const NO_SHARD: u32 = u32::MAX;
/// Sentinel for "no epoch / stamp attributed".
pub const NO_U64: u64 = u64::MAX;

/// One completed (or in-flight, when `end == 0`) span, fixed-size so the
/// flight recorder can hold it in a preallocated ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique nonzero id.
    pub id: u64,
    /// Parent span id; 0 for roots.
    pub parent: u64,
    /// Recording thread's slot (the flight-recorder ring it went to).
    pub slot: u32,
    /// Phase taxonomy entry.
    pub kind: SpanKind,
    /// Refining label (operation or phase name; `'static` so records
    /// stay `Copy`).
    pub label: &'static str,
    /// Start tick (nanoseconds on the monotonic clock).
    pub start: u64,
    /// End tick; 0 while in flight.
    pub end: u64,
    /// Journal shard attributed to this phase ([`NO_SHARD`] if none).
    pub shard: u32,
    /// Journal epoch attributed ([`NO_U64`] if none).
    pub epoch: u64,
    /// Trace stamp attributed ([`NO_U64`] if none).
    pub stamp: u64,
    /// Retries within the phase (opt-walk re-attempts, device retries).
    pub retries: u32,
    /// Whether the phase ended in an error.
    pub err: bool,
}

impl SpanRecord {
    pub(crate) fn empty() -> Self {
        SpanRecord {
            id: 0,
            parent: 0,
            slot: 0,
            kind: SpanKind::Op,
            label: "",
            start: 0,
            end: 0,
            shard: NO_SHARD,
            epoch: NO_U64,
            stamp: NO_U64,
            retries: 0,
            err: false,
        }
    }

    /// Serialize one record as a JSON object (shared by the in-flight
    /// rendering and the black-box dump).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"id\":{},\"parent\":{},\"tid\":{},\"kind\":\"{}\",\"label\":\"{}\",\
             \"start\":{},\"end\":{}",
            self.id,
            self.parent,
            self.slot,
            self.kind.label(),
            self.label,
            self.start,
            self.end
        );
        if self.shard != NO_SHARD {
            s.push_str(&format!(",\"shard\":{}", self.shard));
        }
        if self.epoch != NO_U64 {
            s.push_str(&format!(",\"epoch\":{}", self.epoch));
        }
        if self.stamp != NO_U64 {
            s.push_str(&format!(",\"stamp\":{}", self.stamp));
        }
        if self.retries != 0 {
            s.push_str(&format!(",\"retries\":{}", self.retries));
        }
        if self.err {
            s.push_str(",\"err\":true");
        }
        s.push('}');
        s
    }
}

/// Default operation sampling period for [`Span::op_root`]: record one in
/// this many operation span trees. Chosen so the whole span layer stays
/// within the 5% overhead gate (`flightrec_overhead` bench) while a busy
/// thread still lands hundreds of trees per second in the recorder.
pub const DEFAULT_SPAN_SAMPLE: u32 = 64;

/// Deepest span nesting kept per thread (vfs wrapper → core op →
/// walk/lock → journal append is 4; recovery and checker trees are
/// shallower; the slack absorbs future layers).
const MAX_DEPTH: usize = 12;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SAMPLE: AtomicU32 = AtomicU32::new(DEFAULT_SPAN_SAMPLE);

fn clock() -> &'static ClockSource {
    static CLOCK: OnceLock<ClockSource> = OnceLock::new();
    CLOCK.get_or_init(ClockSource::monotonic)
}

pub(crate) fn now() -> u64 {
    clock().now()
}

/// Set the operation sampling period: record one in `n` op roots.
/// `0` disables span recording entirely (the kill switch the
/// `flightrec_overhead` bench strips with); `1` records every op.
pub fn set_sampling(n: u32) {
    SAMPLE.store(n, Ordering::Relaxed);
}

/// The current sampling period (see [`set_sampling`]).
pub fn sampling() -> u32 {
    SAMPLE.load(Ordering::Relaxed)
}

/// One thread's open-span stack, readable by other threads (the
/// in-flight rendering) under a seqlock: only the owning thread
/// writes, and it brackets every write with an odd/even `seq` bump.
struct ActiveSlot {
    seq: AtomicU64,
    depth: AtomicUsize,
    slot: u32,
    frames: [UnsafeCell<SpanRecord>; MAX_DEPTH],
}

// Safety: `frames` is only written by the owning thread, between an
// odd and an even `seq`; concurrent readers validate `seq` around
// their copy and discard torn reads.
unsafe impl Sync for ActiveSlot {}

impl ActiveSlot {
    fn new(slot: u32) -> Self {
        ActiveSlot {
            seq: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            slot,
            frames: std::array::from_fn(|_| UnsafeCell::new(SpanRecord::empty())),
        }
    }

    /// Owner-thread push. Returns the depth the frame landed at.
    fn push(&self, rec: SpanRecord) -> usize {
        let d = self.depth.load(Ordering::Relaxed);
        if d >= MAX_DEPTH {
            return d; // overflow: deeper spans go unrendered, not UB
        }
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        unsafe { *self.frames[d].get() = rec };
        self.depth.store(d + 1, Ordering::Relaxed);
        self.seq.store(s + 2, Ordering::Release);
        d
    }

    /// Owner-thread pop back down to `depth`.
    fn pop_to(&self, depth: usize) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        self.depth.store(depth, Ordering::Relaxed);
        self.seq.store(s + 2, Ordering::Release);
    }

    /// Id of the innermost open span (0 when none) — owner thread.
    fn top_id(&self) -> u64 {
        let d = self.depth.load(Ordering::Relaxed);
        if d == 0 {
            0
        } else {
            unsafe { (*self.frames[d - 1].get()).id }
        }
    }

    /// Seqlock read from any thread: a consistent copy of the open
    /// frames, or `None` if the owner kept writing during the copy.
    fn read(&self) -> Option<Vec<SpanRecord>> {
        for _ in 0..8 {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let d = self.depth.load(Ordering::Relaxed).min(MAX_DEPTH);
            let copy: Vec<SpanRecord> = (0..d).map(|i| unsafe { *self.frames[i].get() }).collect();
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 {
                return Some(copy);
            }
        }
        None
    }
}

fn registry() -> &'static Mutex<Vec<Weak<ActiveSlot>>> {
    static REG: OnceLock<Mutex<Vec<Weak<ActiveSlot>>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static ACTIVE: RefCell<Option<Arc<ActiveSlot>>> = const { RefCell::new(None) };
    static TICK: Cell<u32> = const { Cell::new(0) };
}

fn with_active<T>(f: impl FnOnce(&ActiveSlot) -> T) -> T {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        if a.is_none() {
            let slot = Arc::new(ActiveSlot::new(crate::shard::thread_slot() as u32));
            let mut reg = registry().lock().unwrap();
            reg.retain(|w| w.strong_count() > 0); // prune dead threads
            reg.push(Arc::downgrade(&slot));
            *a = Some(slot);
        }
        f(a.as_ref().expect("just installed"))
    })
}

/// The sampling countdown: `true` one call in `sampling()`.
fn sampled() -> bool {
    let period = SAMPLE.load(Ordering::Relaxed);
    match period {
        0 => false,
        1 => true,
        _ => TICK.with(|t| {
            let v = t.get();
            if v == 0 {
                t.set(period - 1);
                true
            } else {
                t.set(v - 1);
                false
            }
        }),
    }
}

/// RAII span guard. `None` inside means inert: every method is a
/// branch on a local, and nothing was (or will be) recorded.
pub struct Span(Option<Inner>);

struct Inner {
    rec: SpanRecord,
    depth: usize,
}

impl Span {
    fn begin(kind: SpanKind, label: &'static str, parent: u64) -> Span {
        let mut rec = SpanRecord::empty();
        rec.id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        rec.parent = parent;
        rec.kind = kind;
        rec.label = label;
        rec.start = now();
        let depth = with_active(|a| {
            rec.slot = a.slot;
            a.push(rec)
        });
        Span(Some(Inner { rec, depth }))
    }

    /// An always-recorded root span (rare control points: journal
    /// sync, recovery, triggers). Joins an open parent if the thread
    /// has one.
    pub fn root(kind: SpanKind, label: &'static str) -> Span {
        if sampling() == 0 {
            return Span(None);
        }
        let parent = with_active(|a| a.top_id());
        Self::begin(kind, label, parent)
    }

    /// A sampled operation root: records one call in
    /// [`sampling()`](sampling), unless an enclosing span is already
    /// open on this thread — then it always joins as its child, so
    /// one sampling decision covers a whole nested op tree.
    pub fn op_root(kind: SpanKind, label: &'static str) -> Span {
        if sampling() == 0 {
            return Span(None);
        }
        let parent = with_active(|a| a.top_id());
        if parent == 0 && !sampled() {
            return Span(None);
        }
        Self::begin(kind, label, parent)
    }

    /// A child span: records exactly when an enclosing span is open
    /// on this thread, otherwise inert.
    pub fn child(kind: SpanKind, label: &'static str) -> Span {
        let parent = with_active(|a| a.top_id());
        if parent == 0 {
            return Span(None);
        }
        Self::begin(kind, label, parent)
    }

    /// A child of an explicit parent id — for work handed to another
    /// thread (parallel epoch-slice writers, recovery scan threads).
    /// Inert when `parent` is 0 (i.e. the parent itself was inert).
    pub fn child_of(parent: u64, kind: SpanKind, label: &'static str) -> Span {
        if parent == 0 {
            return Span(None);
        }
        Self::begin(kind, label, parent)
    }

    /// This span's id (0 when inert) — the handle for
    /// [`Span::child_of`].
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| i.rec.id)
    }

    /// Whether this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Attribute a journal shard.
    pub fn set_shard(&mut self, shard: u32) {
        if let Some(i) = &mut self.0 {
            i.rec.shard = shard;
        }
    }

    /// Attribute a journal epoch.
    pub fn set_epoch(&mut self, epoch: u64) {
        if let Some(i) = &mut self.0 {
            i.rec.epoch = epoch;
        }
    }

    /// Attribute a trace stamp.
    pub fn set_stamp(&mut self, stamp: u64) {
        if let Some(i) = &mut self.0 {
            i.rec.stamp = stamp;
        }
    }

    /// Count one retry inside the phase.
    pub fn retry(&mut self) {
        if let Some(i) = &mut self.0 {
            i.rec.retries += 1;
        }
    }

    /// Mark the phase as having ended in an error.
    pub fn fail(&mut self) {
        if let Some(i) = &mut self.0 {
            i.rec.err = true;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(mut i) = self.0.take() {
            i.rec.end = now().max(i.rec.start + 1);
            with_active(|a| a.pop_to(i.depth));
            crate::flightrec::record(&i.rec);
        }
    }
}

/// A consistent copy of every thread's currently-open spans,
/// innermost last per thread.
pub fn active_spans() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    let slots: Vec<Arc<ActiveSlot>> = {
        let reg = registry().lock().unwrap();
        reg.iter().filter_map(Weak::upgrade).collect()
    };
    for s in slots {
        if let Some(frames) = s.read() {
            out.extend(frames);
        }
    }
    out
}

/// JSON array of every currently-open span across all threads — the live
/// in-flight-operations view, exposed alongside
/// [`Registry::render_prometheus`](crate::Registry::render_prometheus).
pub fn render_spans_json() -> String {
    let spans = active_spans();
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&s.to_json());
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_under_roots_and_sample_together() {
        set_sampling(1);
        let root = Span::root(SpanKind::Op, "test_nest_root");
        assert!(root.is_recording());
        let child = Span::child(SpanKind::Lock, "test_nest_child");
        assert!(child.is_recording());
        assert_ne!(child.id(), root.id());
        // The live view sees both, child linked to root.
        let active = active_spans();
        let c = active
            .iter()
            .find(|s| s.label == "test_nest_child")
            .expect("child visible in-flight");
        assert_eq!(c.parent, root.id());
        drop(child);
        drop(root);
        set_sampling(DEFAULT_SPAN_SAMPLE);
    }

    #[test]
    fn orphan_children_are_inert_and_sampling_zero_disables() {
        set_sampling(1);
        let c = Span::child(SpanKind::Lock, "test_orphan");
        assert!(!c.is_recording());
        drop(c);
        set_sampling(0);
        let r = Span::root(SpanKind::Op, "test_killed");
        assert!(!r.is_recording());
        drop(r);
        set_sampling(DEFAULT_SPAN_SAMPLE);
    }

    #[test]
    fn explicit_parent_links_across_threads() {
        set_sampling(1);
        let root = Span::root(SpanKind::Replay, "test_xthread_root");
        let pid = root.id();
        let rec = std::thread::spawn(move || {
            let mut s = Span::child_of(pid, SpanKind::Replay, "test_xthread_child");
            assert!(s.is_recording());
            s.set_shard(3);
            s.id()
        })
        .join()
        .unwrap();
        assert_ne!(rec, 0);
        drop(root);
        set_sampling(DEFAULT_SPAN_SAMPLE);
    }

    #[test]
    fn record_json_has_kind_and_label() {
        let mut r = SpanRecord::empty();
        r.id = 7;
        r.kind = SpanKind::FlushBarrier;
        r.label = "flush";
        r.shard = 2;
        r.err = true;
        let j = r.to_json();
        assert!(j.contains("\"kind\":\"flush_barrier\""));
        assert!(j.contains("\"label\":\"flush\""));
        assert!(j.contains("\"shard\":2"));
        assert!(j.contains("\"err\":true"));
    }
}
