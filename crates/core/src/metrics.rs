//! AtomFS-side metric definitions: per-operation latency, lock-coupling
//! contention, and walk depth.
//!
//! [`FsMetrics`] is the bundle of handles an instrumented [`AtomFs`]
//! records into. It is built once against an `atomfs_obs::Registry`
//! (setup path, takes the registry lock) and then shared via `Arc`; the
//! record path is the registry-free lock-free path of the `obs`
//! primitives.
//!
//! # Cost discipline
//!
//! The walk loop is the hottest code in the system, and on virtualized
//! hosts a single TSC read costs ~20ns — two exact clock reads per op
//! would alone exceed the 5% overhead gate. Instrumentation therefore
//! follows four rules, validated by the `metrics_overhead` bench:
//!
//! * **Operations are sampled** 1-in-[`DEFAULT_OP_SAMPLE`] per thread
//!   ([`FsMetrics::register_sampled`] tunes it; 1 = observe everything,
//!   which tests use for determinism). An *observed* op pays two clock
//!   reads and a histogram record; an unobserved op pays one thread-local
//!   countdown. Fast-path lock counting and walk depth ride the same
//!   per-op flag, so `atomfs_op_ns`, `atomfs_lock_acquired_total` and
//!   `atomfs_walk_depth` are 1/N estimates of the true totals.
//! * **Contention is counted on every acquisition, unsampled.** A
//!   blocked acquisition already costs a context switch, so the slow path
//!   always records its wait time and increments
//!   `atomfs_lock_contended_total` — rare events are precisely the ones
//!   sampling would lose. Error counts are exact for the same reason.
//!   The count is exact up to one race: an acquisition first *probes*
//!   the lock word (`is_locked`, a load) and then locks, and the lock can
//!   change hands in the few nanoseconds between. A release there counts
//!   a contended acquisition that did not wait; a take there leaves a
//!   wait uncounted.
//! * **No clock read on the uncontended lock path.** Only when the probe
//!   saw the lock held does the slow path read the clock around the
//!   blocking acquire. The probe is not a `try_lock`: the workspace's
//!   `parking_lot` stand-in releases a lock held by another thread when
//!   its `try_lock` fails (the root `clippy.toml` forbids the call).
//! * **Hold times are sampled** 1-in-[`HOLD_SAMPLE`] of the observed
//!   ops' acquisitions, so the common case pays no clock read at unlock
//!   either.
//!
//! [`AtomFs`]: crate::fs::AtomFs

use std::cell::Cell;
use std::sync::Arc;

use atomfs_obs::{ClockSource, Counter, Histogram, Registry};
use atomfs_trace::{Inum, ROOT_INUM};
use atomfs_vfs::FileType;

/// Sampling period for lock hold-time measurements.
pub const HOLD_SAMPLE: u32 = 16;

/// Default operation-sampling period: 1-in-128 operations are observed.
///
/// Chosen empirically on a virtualized host (where a TSC read costs
/// ~20ns): the fixed per-op cost of instrumentation is ~1.5% and each
/// observed op adds on the order of a microsecond — not the clock reads
/// themselves so much as the cache-cold metric memory an observed op
/// touches (histogram shard buckets, counter cells), cold precisely
/// *because* observation is rare. 1-in-128 keeps total overhead near
/// 2–3% — inside the 5% `metrics_overhead` gate with margin for host
/// noise — while a 200k-op run still collects ~1.5k latency samples.
/// Exact per-op latency, when wanted, belongs to the vfs-layer
/// `MeteredFs` wrapper, not to a faster engine sampling rate.
pub const DEFAULT_OP_SAMPLE: u32 = 128;

/// The ten POSIX-like operations, used as the `op` label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum OpKind {
    /// `mknod`
    Mknod,
    /// `mkdir`
    Mkdir,
    /// `unlink`
    Unlink,
    /// `rmdir`
    Rmdir,
    /// `rename`
    Rename,
    /// `stat`
    Stat,
    /// `readdir`
    Readdir,
    /// `read`
    Read,
    /// `write`
    Write,
    /// `truncate`
    Truncate,
}

impl OpKind {
    /// All operations, in label order.
    pub const ALL: [OpKind; 10] = [
        OpKind::Mknod,
        OpKind::Mkdir,
        OpKind::Unlink,
        OpKind::Rmdir,
        OpKind::Rename,
        OpKind::Stat,
        OpKind::Readdir,
        OpKind::Read,
        OpKind::Write,
        OpKind::Truncate,
    ];

    /// The `op` label value.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Mknod => "mknod",
            OpKind::Mkdir => "mkdir",
            OpKind::Unlink => "unlink",
            OpKind::Rmdir => "rmdir",
            OpKind::Rename => "rename",
            OpKind::Stat => "stat",
            OpKind::Readdir => "readdir",
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Truncate => "truncate",
        }
    }
}

/// Inode-lock classes for contention attribution: the root serializes
/// every traversal, directories serialize their subtree, files only
/// their own data path — three very different contention profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum LockClass {
    /// The root inode's lock (every walk's first acquisition).
    Root,
    /// Any non-root directory inode.
    Dir,
    /// A regular file inode.
    File,
}

impl LockClass {
    /// All classes, in label order.
    pub const ALL: [LockClass; 3] = [LockClass::Root, LockClass::Dir, LockClass::File];

    /// The `class` label value.
    pub fn label(self) -> &'static str {
        match self {
            LockClass::Root => "root",
            LockClass::Dir => "dir",
            LockClass::File => "file",
        }
    }

    /// Classify a locked inode. Only callable with the lock held (the
    /// file type is read under it), which is exactly when the metrics
    /// paths need it.
    #[inline]
    pub fn of(ino: Inum, ftype: FileType) -> Self {
        if ino == ROOT_INUM {
            LockClass::Root
        } else if ftype.is_dir() {
            LockClass::Dir
        } else {
            LockClass::File
        }
    }
}

/// The metric handles an instrumented [`AtomFs`](crate::fs::AtomFs)
/// records into.
pub struct FsMetrics {
    clock: ClockSource,
    op_sample: u32,
    op_ns: [Arc<Histogram>; 10],
    op_errors: [Arc<Counter>; 10],
    lock_acquired: [Arc<Counter>; 3],
    lock_contended: [Arc<Counter>; 3],
    lock_wait_ns: [Arc<Histogram>; 3],
    lock_hold_ns: [Arc<Histogram>; 3],
    walk_depth: Arc<Histogram>,
    opt_attempts: Arc<Counter>,
    opt_hits: Arc<Counter>,
    opt_retries: Arc<Counter>,
    opt_fallbacks: Arc<Counter>,
}

thread_local! {
    static HOLD_TICK: Cell<u32> = const { Cell::new(0) };
    /// Countdown to the next observed op on this thread.
    static OP_TICK: Cell<u32> = const { Cell::new(0) };
    /// Whether the op currently executing on this thread is observed.
    /// Defaults to true so metric paths reached outside an operation
    /// (direct unit-test calls) behave unsampled.
    static OP_OBSERVED: Cell<bool> = const { Cell::new(true) };
}

impl FsMetrics {
    /// Register the AtomFS metric family in `registry` and return the
    /// handle bundle, sampling operations at the default period
    /// ([`DEFAULT_OP_SAMPLE`]). Idempotent per registry: re-registering
    /// fetches the same underlying primitives.
    pub fn register(registry: &Registry, clock: ClockSource) -> Arc<FsMetrics> {
        Self::register_sampled(registry, clock, DEFAULT_OP_SAMPLE)
    }

    /// [`register`](Self::register) with an explicit operation-sampling
    /// period: 1-in-`op_sample` operations are observed (timed, lock- and
    /// walk-counted). `op_sample <= 1` observes every operation — exact,
    /// deterministic with a virtual clock, and what tests use; the cost
    /// discipline (module docs) then no longer holds.
    pub fn register_sampled(
        registry: &Registry,
        clock: ClockSource,
        op_sample: u32,
    ) -> Arc<FsMetrics> {
        let op_ns = OpKind::ALL.map(|op| {
            registry.histogram(
                "atomfs_op_ns",
                &[("op", op.label())],
                "Sampled wall-clock operation latency in nanoseconds (1-in-op_sample ops).",
            )
        });
        let op_errors = OpKind::ALL.map(|op| {
            registry.counter(
                "atomfs_op_errors_total",
                &[("op", op.label())],
                "Operations that returned an error.",
            )
        });
        let lock_acquired = LockClass::ALL.map(|c| {
            registry.counter(
                "atomfs_lock_acquired_total",
                &[("class", c.label())],
                "Inode lock acquisitions by lock class (sampled: observed ops only).",
            )
        });
        let lock_contended = LockClass::ALL.map(|c| {
            registry.counter(
                "atomfs_lock_contended_total",
                &[("class", c.label())],
                "Inode lock acquisitions that had to block (exact, never sampled).",
            )
        });
        let lock_wait_ns = LockClass::ALL.map(|c| {
            registry.histogram(
                "atomfs_lock_wait_ns",
                &[("class", c.label())],
                "Blocking time of contended inode-lock acquisitions.",
            )
        });
        let lock_hold_ns = LockClass::ALL.map(|c| {
            registry.histogram(
                "atomfs_lock_hold_ns",
                &[("class", c.label())],
                "Sampled inode-lock hold times (1-in-16 acquisitions).",
            )
        });
        let walk_depth = registry.histogram(
            "atomfs_walk_depth",
            &[],
            "Lock-coupling steps per path traversal (sampled: observed ops only).",
        );
        let opt_attempts = registry.counter(
            "atomfs_opt_attempts_total",
            &[],
            "Operations that entered the optimistic fast path (sampled: observed ops only).",
        );
        let opt_hits = registry.counter(
            "atomfs_opt_hits_total",
            &[],
            "Operations the optimistic fast path completed (sampled: observed ops only).",
        );
        let opt_retries = registry.counter(
            "atomfs_opt_retries_total",
            &[],
            "Optimistic walk attempts abandoned by a failed seqlock validation (exact).",
        );
        let opt_fallbacks = registry.counter(
            "atomfs_opt_fallbacks_total",
            &[],
            "Operations that exhausted their optimistic attempts and fell back to lock coupling (exact).",
        );
        Arc::new(FsMetrics {
            clock,
            op_sample,
            op_ns,
            op_errors,
            lock_acquired,
            lock_contended,
            lock_wait_ns,
            lock_hold_ns,
            walk_depth,
            opt_attempts,
            opt_hits,
            opt_retries,
            opt_fallbacks,
        })
    }

    /// Start-time sentinel for operations the sampler skipped.
    pub const UNTIMED: u64 = u64::MAX;

    /// Current time in clock ticks (nanoseconds on the monotonic clock).
    #[inline]
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Begin an operation: decide (per-thread countdown) whether this op
    /// is observed, and return its start time — [`Self::UNTIMED`] when the
    /// sampler skipped it. The decision is published thread-locally so
    /// the lock/walk paths under this op consult one flag instead of
    /// re-deriving it.
    #[inline]
    pub fn op_begin(&self) -> u64 {
        let observed = OP_TICK.with(|t| {
            let n = t.get();
            if n == 0 {
                t.set(self.op_sample.saturating_sub(1));
                true
            } else {
                t.set(n - 1);
                false
            }
        });
        OP_OBSERVED.with(|o| o.set(observed));
        if observed {
            self.now()
        } else {
            Self::UNTIMED
        }
    }

    /// Record a finished operation. Latency is recorded only when
    /// [`Self::op_begin`] observed the op; errors are always counted
    /// (exact — error paths are not hot).
    #[inline]
    pub fn op_done(&self, op: OpKind, start: u64, err: bool) {
        if start != Self::UNTIMED {
            self.op_ns[op as usize].record(self.now().saturating_sub(start));
        }
        if err {
            self.op_errors[op as usize].inc();
        }
    }

    /// Whether the op currently executing on this thread is observed.
    #[inline]
    fn observed() -> bool {
        OP_OBSERVED.with(|o| o.get())
    }

    /// Record an uncontended (fast-path) lock acquisition. Counted only
    /// under an observed op: the fast path is the hot path.
    #[inline]
    pub fn lock_fast(&self, class: LockClass) {
        if Self::observed() {
            self.lock_acquired[class as usize].inc();
        }
    }

    /// Record a contended acquisition and the time spent blocked. The
    /// wait and the contended count are unsampled (a blocked acquisition
    /// already paid for a context switch; rare events are what sampling
    /// would lose; module docs for the probe's race); the acquired count
    /// stays sampled so it remains a consistent 1/N estimate.
    #[inline]
    pub fn lock_slow(&self, class: LockClass, wait_ns: u64) {
        if Self::observed() {
            self.lock_acquired[class as usize].inc();
        }
        self.lock_contended[class as usize].inc();
        self.lock_wait_ns[class as usize].record(wait_ns);
    }

    /// Record a sampled hold time.
    #[inline]
    pub fn lock_held(&self, class: LockClass, hold_ns: u64) {
        self.lock_hold_ns[class as usize].record(hold_ns);
    }

    /// Record the coupling depth of one completed walk (observed ops
    /// only).
    #[inline]
    pub fn walk_depth(&self, steps: u64) {
        if Self::observed() {
            self.walk_depth.record(steps);
        }
    }

    /// Record that an operation entered the optimistic fast path
    /// (observed ops only — attempts and hits ride the same sampling
    /// flag, so their ratio is an unbiased fast-path hit rate).
    #[inline]
    pub fn opt_attempt(&self) {
        if Self::observed() {
            self.opt_attempts.inc();
        }
    }

    /// Record that the optimistic fast path completed an operation
    /// (observed ops only; pairs with [`Self::opt_attempt`]).
    #[inline]
    pub fn opt_hit(&self) {
        if Self::observed() {
            self.opt_hits.inc();
        }
    }

    /// Record a failed seqlock validation (exact: retries are the rare,
    /// interesting events — exactly what sampling would lose).
    #[inline]
    pub fn opt_retry(&self) {
        self.opt_retries.inc();
    }

    /// Record an optimistic-path give-up (exact; the op then runs the
    /// pessimistic lock-coupled walk).
    #[inline]
    pub fn opt_fallback(&self) {
        self.opt_fallbacks.inc();
    }

    /// Whether this acquisition should have its hold time measured:
    /// 1-in-[`HOLD_SAMPLE`] of observed-op acquisitions per thread.
    #[inline]
    pub fn sample_hold(&self) -> bool {
        Self::observed()
            && HOLD_TICK.with(|t| {
                let v = t.get();
                t.set(v.wrapping_add(1));
                v % HOLD_SAMPLE == 0
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_class_of_classifies() {
        assert_eq!(LockClass::of(ROOT_INUM, FileType::Dir), LockClass::Root);
        assert_eq!(LockClass::of(42, FileType::Dir), LockClass::Dir);
        assert_eq!(LockClass::of(42, FileType::File), LockClass::File);
    }

    #[test]
    fn op_kind_labels_are_unique() {
        let mut labels: Vec<_> = OpKind::ALL.iter().map(|o| o.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), OpKind::ALL.len());
    }

    #[test]
    fn register_is_idempotent_and_records() {
        let reg = Registry::new();
        let m1 = FsMetrics::register(&reg, ClockSource::monotonic());
        let m2 = FsMetrics::register(&reg, ClockSource::monotonic());
        m1.op_done(OpKind::Stat, m1.now(), false);
        m2.op_done(OpKind::Stat, m2.now(), true);
        let snap = reg.snapshot();
        assert_eq!(snap.hist_merged("atomfs_op_ns").count, 2);
        assert_eq!(snap.counter("atomfs_op_errors_total"), 1);
    }

    #[test]
    fn op_sampling_observes_one_in_n() {
        let reg = Registry::new();
        let m = FsMetrics::register_sampled(&reg, ClockSource::monotonic(), 4);
        let timed = (0..16)
            .filter(|_| {
                let start = m.op_begin();
                let observed = start != FsMetrics::UNTIMED;
                m.op_done(OpKind::Stat, start, false);
                observed
            })
            .count();
        assert_eq!(timed, 4);
        assert_eq!(reg.snapshot().hist_merged("atomfs_op_ns").count, 4);
    }

    #[test]
    fn sample_of_one_observes_everything() {
        let reg = Registry::new();
        let m = FsMetrics::register_sampled(&reg, ClockSource::monotonic(), 1);
        for _ in 0..10 {
            let start = m.op_begin();
            assert_ne!(start, FsMetrics::UNTIMED);
            m.lock_fast(LockClass::Dir);
            m.walk_depth(2);
            m.op_done(OpKind::Mkdir, start, false);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.hist_merged("atomfs_op_ns").count, 10);
        assert_eq!(snap.counter("atomfs_lock_acquired_total"), 10);
        assert_eq!(snap.hist_merged("atomfs_walk_depth").count, 10);
    }

    #[test]
    fn unobserved_ops_skip_lock_and_walk_counting_but_not_errors() {
        let reg = Registry::new();
        // Huge period: after the first op, everything is unobserved.
        let m = FsMetrics::register_sampled(&reg, ClockSource::monotonic(), 1 << 20);
        let first = m.op_begin();
        m.op_done(OpKind::Stat, first, false);
        for _ in 0..8 {
            let start = m.op_begin();
            assert_eq!(start, FsMetrics::UNTIMED);
            m.lock_fast(LockClass::Root);
            m.walk_depth(1);
            assert!(!m.sample_hold());
            m.op_done(OpKind::Stat, start, true);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.hist_merged("atomfs_op_ns").count, 1);
        assert_eq!(snap.counter("atomfs_lock_acquired_total"), 0);
        assert_eq!(snap.hist_merged("atomfs_walk_depth").count, 0);
        // Exact even when unobserved: errors and (elsewhere) contention.
        assert_eq!(snap.counter("atomfs_op_errors_total"), 8);
    }

    #[test]
    fn hold_sampling_hits_once_per_period() {
        let reg = Registry::new();
        let m = FsMetrics::register(&reg, ClockSource::monotonic());
        let hits = (0..HOLD_SAMPLE * 4).filter(|_| m.sample_hold()).count();
        assert_eq!(hits, 4);
    }
}
