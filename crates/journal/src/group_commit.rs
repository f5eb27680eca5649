//! Epoch group commit over the sharded journal.
//!
//! [`ShardedJournalSink`] is the journal's trace sink: it turns every
//! [`Event::Mutate`] into log state, spread over `N` independent append
//! streams (`N` may be 1). Writers *stage* stamped micro-ops into
//! per-shard in-memory buffers (one brief shard-buffer lock plus one
//! atomic stamp each — no device I/O on the mutation path); `sync()`
//! runs the **group commit**: it atomically cuts epoch `E` across all
//! shards, writes each shard's `E`-batch as one frame, seals `E` on
//! every shard, and issues a single flush barrier. An epoch is durable
//! only when *every* shard sealed it.
//!
//! # Stamps, epochs, and why nothing acked is ever lost
//!
//! Each staged micro-op carries a stamp from one global counter, taken
//! inside the emitter's critical section — so stamp order is a legal
//! total order of the execution's mutations, contiguous from 0 per
//! mount generation (the same argument as `atomfs_trace::ShardedSink`).
//! The epoch cut is an `RwLock` barrier: staging holds it shared,
//! the cut takes it exclusively while swapping *all* shard buffers and
//! advancing the epoch. Every stamp therefore lands in exactly one
//! epoch and epochs are **stamp-prefix-closed**: all stamps of epoch
//! `E` precede all stamps of epoch `E+1`. Recovery merges the shard
//! streams by stamp and truncates at the first gap, so what replays is
//! a stamp-prefix of history — which, by prefix-closedness, includes
//! every sealed (acked) epoch in full.
//!
//! # Renames: the only cross-shard transaction
//!
//! A rename mutates two directories that may hash to different shards.
//! Its micro-ops are staged as a **RenameIntent** (in the *source*
//! parent's shard, keyed by a fresh transaction id) and sealed by a
//! **RenameSeal** (in the *destination* parent's shard) when the rename
//! passes its linearization point. An open transaction holds the
//! transaction gate, which `sync()` drains before cutting — so intent
//! and seal always land in the *same epoch* on their two shards.
//! Recovery replays an intent's ops only if its seal is present with
//! the same epoch; a seal-less intent is discarded, and the stamp gap
//! it leaves truncates everything after it (prefix-exactness).
//!
//! # Quarantine and partial degradation
//!
//! A shard whose appends or flushes defeat the retry policy is
//! **quarantined**: its staging buffer is discarded, its inode range
//! refuses new mutations (via [`TraceSink::admit_mutation`], which the
//! emitter consults *before* mutating), and the commit that caught the
//! failure writes a `Quarantine` frame to every surviving shard. That
//! frame records the dead-shard mask and the half-open stamp windows
//! that died in the discarded buffer — the explicit permission recovery
//! needs to merge *around* those stamps instead of truncating all later
//! history on the healthy shards. Rename seals stranded in a dead
//! shard's buffer are redirected to a survivor (recovery pairs intents
//! against seals found on *any* shard, so placement is free).
//!
//! Syncs racing a quarantine follow the fsync-after-EIO discipline: an
//! errseq-style loss counter is sampled at entry and re-checked before
//! any `Ok`, so no caller is told "durable" across an event that may
//! have discarded its stamps. The whole mount flips to sticky degraded
//! mode only when *every* shard is dead.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use atomfs_obs::dump::{self, TriggerCause};
use atomfs_obs::{Span, SpanKind};
use atomfs_trace::{Event, Inum, MicroOp, Tid, TraceSink};
use parking_lot::{ArcMutexGuard, Condvar, Mutex, RawMutex, RwLock};

use crate::device::{BlockDevice, DiskError};
use crate::health::{Health, HealthCounters, RecoverySummary};
use crate::shard::{shard_of, ShardConfig, ShardGauges, ShardReport, ShardWriter};
use crate::wire::{coalesce_windows, FrameKind};

/// Stripes of the thread-state map: per-mutate bookkeeping locks one of
/// these instead of one global map mutex.
const TID_STRIPES: usize = 16;

/// In-memory staging buffer of one shard for the open epoch.
#[derive(Default)]
struct ShardBuf {
    /// Stamped micro-ops of ordinary (single-shard) operations.
    plain: Vec<(u64, MicroOp)>,
    /// Open/sealed rename transactions staged here (source side):
    /// `(txn id, stamped ops)`.
    intents: Vec<(u64, Vec<(u64, MicroOp)>)>,
    /// Rename transactions sealed here (destination side).
    seals: Vec<u64>,
}

impl ShardBuf {
    fn is_empty(&self) -> bool {
        self.plain.is_empty() && self.intents.is_empty() && self.seals.is_empty()
    }
}

/// Upper bound on the leader's batching window (see
/// [`ShardedJournalSink::batching_window`]). Sized to a realistic flush
/// barrier: holding the cut open longer than one barrier costs more
/// latency than the barrier it would save.
const BATCH_WINDOW_CAP: std::time::Duration = std::time::Duration::from_micros(200);

/// One shard: its staging buffer, its region writer, its device (may be
/// shared with other shards or private to this one), and its gauges.
struct ShardState {
    buf: Mutex<ShardBuf>,
    writer: Mutex<ShardWriter>,
    dev: Arc<dyn BlockDevice>,
    gauges: Arc<ShardGauges>,
    counters: Arc<HealthCounters>,
    /// Why this shard was quarantined (`None` while healthy).
    cause: Mutex<Option<DiskError>>,
}

/// An open rename transaction of one thread.
struct OpenTxn {
    id: u64,
    /// Shard holding the intent (the source parent's shard).
    src: usize,
    /// Shard that will hold the seal (the destination parent's shard,
    /// learned when the rename's `Ins` is staged; `src` until then).
    dst: Option<usize>,
    /// The source shard died mid-transaction: the intent can never
    /// become durable, so remaining ops and the seal are dropped too
    /// (a seal without its intent would just be an orphan at recovery).
    dropped: bool,
}

/// Per-operation routing state of one thread, inserted at `OpBegin` and
/// removed at `OpEnd`.
#[derive(Default)]
struct TidState {
    is_rename: bool,
    /// Shard chosen by the emitter's `shard_hint` (the operation's
    /// primary inode), routing every micro-op of the operation together.
    hint: Option<usize>,
    txn: Option<OpenTxn>,
}

/// Blocks the epoch cut while rename transactions are open (and new
/// transactions while a cut is draining), so an intent/seal pair can
/// never straddle an epoch boundary.
#[derive(Default)]
struct TxnGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    open: usize,
    draining: bool,
}

impl TxnGate {
    /// Open a transaction (waits out an in-progress cut).
    fn enter(&self) {
        let mut st = self.state.lock();
        while st.draining {
            self.cv.wait(&mut st);
        }
        st.open += 1;
    }

    /// Close a transaction.
    fn exit(&self) {
        let mut st = self.state.lock();
        st.open -= 1;
        if st.open == 0 {
            self.cv.notify_all();
        }
    }

    /// Stop new transactions and wait until all open ones sealed.
    fn drain(&self) {
        let mut st = self.state.lock();
        st.draining = true;
        while st.open > 0 {
            self.cv.wait(&mut st);
        }
    }

    /// Allow transactions again after the cut.
    fn release(&self) {
        let mut st = self.state.lock();
        st.draining = false;
        self.cv.notify_all();
    }
}

/// The sharded, group-committing journal sink. See the module docs.
pub struct ShardedJournalSink {
    cfg: ShardConfig,
    gen: u32,
    shards: Vec<ShardState>,
    /// Global mutation stamp, contiguous from 0 for this generation.
    stamp: AtomicU64,
    /// Rename transaction ids (0 is reserved for "no transaction").
    txn_ids: AtomicU64,
    /// The epoch-cut barrier: staging holds it shared, the cut exclusive.
    cut: RwLock<()>,
    txns: TxnGate,
    /// Epoch currently being staged (the next commit's epoch).
    open_epoch: AtomicU64,
    /// Highest epoch durably sealed on *all* shards.
    sealed_epoch: AtomicU64,
    /// Stamp high-water mark made durable by the last flushed commit:
    /// every stamp below it is on stable storage. Captured under the cut
    /// (staging quiesced, so issued == staged) — lets a syncer whose
    /// writes a concurrent commit already covered return without its own
    /// device round-trip. This absorption is what makes the commit a
    /// *group* commit.
    sealed_stamp: AtomicU64,
    /// Held by the sync leader for its whole commit. An `Arc` so the
    /// election can take it with `try_lock_arc`, whose guard exists only
    /// on success.
    commit_lock: Arc<Mutex<()>>,
    /// Group-commit rendezvous: bumped (under its lock) after every
    /// leader commit completes — success or failure — then broadcast.
    /// Followers whose stamps an in-flight commit cannot cover park here
    /// instead of queueing to run their own redundant commit.
    commit_gen: Mutex<u64>,
    commit_cv: Condvar,
    /// Rendezvous gauges: syncs that led a commit, syncs that parked
    /// behind one, and syncs a concurrent commit covered entirely (the
    /// absorption ratio is the group in group commit).
    gc_leads: AtomicU64,
    gc_parks: AtomicU64,
    gc_absorbed: AtomicU64,
    health: Mutex<Health>,
    /// Fast-path mirror of `health.is_degraded()`.
    degraded: AtomicBool,
    /// errseq-style loss counter: bumped once per commit that discarded
    /// staged stamps (a quarantine event). `sync` samples it at entry
    /// and refuses to ack across a change.
    loss_seq: AtomicU64,
    /// Cause of the most recent loss event.
    loss_cause: Mutex<Option<DiskError>>,
    /// Cumulative lost-stamp windows, half-open `[lo, hi)`, sorted and
    /// coalesced — the same list the `Quarantine` frames persist.
    lost_windows: Mutex<Vec<(u64, u64)>>,
    /// Shards quarantined over the mount's lifetime.
    quarantines: AtomicU64,
    /// Mount-level counters (flush retries/faults; per-shard appends
    /// charge the shard's own counters).
    counters: Arc<HealthCounters>,
    dropped: AtomicU64,
    recovery: Mutex<Option<RecoverySummary>>,
    tids: Vec<Mutex<HashMap<u32, TidState>>>,
}

impl ShardedJournalSink {
    /// A fresh sharded log on `device`, generation 1.
    pub fn new(device: Arc<dyn BlockDevice>, cfg: ShardConfig) -> Self {
        Self::with_gen(device, cfg, 1)
    }

    /// A sharded log writing generation `gen` (used by recovery to start
    /// the checkpoint generation; it must exceed every generation
    /// previously written to this disk).
    pub fn with_gen(device: Arc<dyn BlockDevice>, cfg: ShardConfig, gen: u32) -> Self {
        let n = cfg.shard_count();
        Self::with_devices_gen((0..n).map(|_| Arc::clone(&device)).collect(), cfg, gen)
    }

    /// A fresh sharded log with one device per shard — the fault-domain
    /// isolation layout: each shard's appends and flushes go through its
    /// own device (typically a fault-injection wrapper over one shared
    /// platter), so one shard's device dying quarantines only that shard.
    /// The shards still share the platter's address space per `cfg`'s
    /// region layout, which is what lets recovery scan a single disk.
    ///
    /// # Panics
    ///
    /// When `devices.len() != cfg.shard_count()`.
    pub fn with_devices(devices: Vec<Arc<dyn BlockDevice>>, cfg: ShardConfig) -> Self {
        Self::with_devices_gen(devices, cfg, 1)
    }

    fn with_devices_gen(devices: Vec<Arc<dyn BlockDevice>>, cfg: ShardConfig, gen: u32) -> Self {
        assert_eq!(
            devices.len(),
            cfg.shard_count(),
            "one device per shard (clone the Arc to share one)"
        );
        let shards = devices
            .into_iter()
            .enumerate()
            .map(|(i, dev)| {
                let writer = ShardWriter::new(Arc::clone(&dev), i, gen, &cfg);
                let counters = writer.counters();
                ShardState {
                    buf: Mutex::new(ShardBuf::default()),
                    writer: Mutex::new(writer),
                    dev,
                    gauges: Arc::new(ShardGauges::default()),
                    counters,
                    cause: Mutex::new(None),
                }
            })
            .collect();
        ShardedJournalSink {
            cfg,
            gen,
            shards,
            stamp: AtomicU64::new(0),
            txn_ids: AtomicU64::new(1),
            cut: RwLock::new(()),
            txns: TxnGate::default(),
            open_epoch: AtomicU64::new(1),
            sealed_epoch: AtomicU64::new(0),
            sealed_stamp: AtomicU64::new(0),
            commit_lock: Arc::new(Mutex::new(())),
            commit_gen: Mutex::new(0),
            commit_cv: Condvar::new(),
            gc_leads: AtomicU64::new(0),
            gc_parks: AtomicU64::new(0),
            gc_absorbed: AtomicU64::new(0),
            health: Mutex::new(Health::Healthy),
            degraded: AtomicBool::new(false),
            loss_seq: AtomicU64::new(0),
            loss_cause: Mutex::new(None),
            lost_windows: Mutex::new(Vec::new()),
            quarantines: AtomicU64::new(0),
            counters: Arc::new(HealthCounters::default()),
            dropped: AtomicU64::new(0),
            recovery: Mutex::new(None),
            tids: (0..TID_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configuration this sink runs under.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// Generation this sink appends under.
    pub fn gen(&self) -> u32 {
        self.gen
    }

    /// The shard [`shard_of`] routes inode `ino` to under this config.
    pub fn shard_of_ino(&self, ino: Inum) -> usize {
        shard_of(ino, self.shards.len())
    }

    /// Stamps issued so far (== micro-ops accepted for logging).
    pub fn stamps_issued(&self) -> u64 {
        self.stamp.load(Ordering::Relaxed)
    }

    /// Epoch currently being staged.
    pub fn open_epoch(&self) -> u64 {
        self.open_epoch.load(Ordering::Relaxed)
    }

    /// Highest epoch durable on all shards (0 before the first commit).
    pub fn sealed_epoch(&self) -> u64 {
        self.sealed_epoch.load(Ordering::Relaxed)
    }

    /// Rendezvous gauges: `(leads, parks, absorbed)` — syncs that ran a
    /// commit, syncs that parked behind an in-flight one, and syncs that
    /// returned because a concurrent commit already covered their stamps.
    pub fn group_commit_stats(&self) -> (u64, u64, u64) {
        (
            self.gc_leads.load(Ordering::Relaxed),
            self.gc_parks.load(Ordering::Relaxed),
            self.gc_absorbed.load(Ordering::Relaxed),
        )
    }

    /// Current mount health.
    pub fn health(&self) -> Health {
        *self.health.lock()
    }

    /// Lock-free degraded check for per-operation fast paths.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Events dropped while degraded.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Mount-level counters (flush path; shard appends are per-shard).
    pub fn counters(&self) -> Arc<HealthCounters> {
        Arc::clone(&self.counters)
    }

    /// Total bytes appended across all shard regions.
    pub fn log_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.gauges.log_bytes.load(Ordering::Relaxed))
            .sum()
    }

    /// Fault/retry/progress gauges of shard `i`.
    pub fn shard_report(&self, i: usize) -> ShardReport {
        let s = &self.shards[i];
        let sealed = s.gauges.sealed_epoch.load(Ordering::Relaxed);
        // Last epoch that *could* have been sealed is open_epoch - 1.
        let assignable = self.open_epoch().saturating_sub(1);
        ShardReport {
            shard: i,
            log_bytes: s.gauges.log_bytes.load(Ordering::Relaxed),
            sealed_epoch: sealed,
            epoch_lag: assignable.saturating_sub(sealed),
            faults: s.counters.device_faults(),
            retries: s.counters.retries(),
            dead: s.gauges.dead.load(Ordering::Relaxed),
        }
    }

    /// Reports for every shard.
    pub fn shard_reports(&self) -> Vec<ShardReport> {
        (0..self.shards.len())
            .map(|i| self.shard_report(i))
            .collect()
    }

    /// Metrics handle: shard `i`'s live gauges.
    pub fn shard_gauges(&self, i: usize) -> Arc<ShardGauges> {
        Arc::clone(&self.shards[i].gauges)
    }

    /// Metrics handle: shard `i`'s fault/retry counters.
    pub fn shard_counters(&self, i: usize) -> Arc<HealthCounters> {
        Arc::clone(&self.shards[i].counters)
    }

    /// Device faults summed over the mount: every shard plus the flush path.
    pub fn total_faults(&self) -> u64 {
        self.counters.device_faults()
            + self
                .shards
                .iter()
                .map(|s| s.counters.device_faults())
                .sum::<u64>()
    }

    /// Retries summed over the mount.
    pub fn total_retries(&self) -> u64 {
        self.counters.retries()
            + self
                .shards
                .iter()
                .map(|s| s.counters.retries())
                .sum::<u64>()
    }

    /// Health plus the fault/retry counters behind it (summed over
    /// shards) and, for a mount produced by recovery, the scrub's
    /// skipped-record breakdown.
    pub fn health_report(&self) -> crate::health::HealthReport {
        crate::health::HealthReport {
            health: self.health(),
            device_faults: self.total_faults(),
            retries: self.total_retries(),
            degraded_flips: self.counters.degraded_flips(),
            dropped_events: self.dropped.load(Ordering::Relaxed),
            recovery: *self.recovery.lock(),
        }
    }

    /// Record how this mount generation was produced (set by recovery).
    pub fn set_recovery(&self, summary: RecoverySummary) {
        *self.recovery.lock() = Some(summary);
    }

    fn degrade(&self, cause: DiskError, failed_at_seq: u64) {
        let flipped = {
            let mut health = self.health.lock();
            if health.is_degraded() {
                false
            } else {
                *health = Health::Degraded {
                    cause,
                    failed_at_seq,
                };
                self.degraded.store(true, Ordering::Relaxed);
                self.counters.degraded_flips.fetch_add(1, Ordering::Relaxed);
                true
            }
        };
        if flipped {
            // Black-box capture strictly after the health lock is
            // released: the dump's metrics snapshot runs registered
            // callbacks, and this sink's own bridges read health state.
            let mut sp = Span::root(SpanKind::Trigger, "degraded_flip");
            sp.fail();
            drop(sp);
            dump::trigger(
                TriggerCause::DegradedFlip {
                    detail: format!("{cause:?} at seq {failed_at_seq}"),
                },
                Some(self.health_report().to_json()),
            );
        }
    }

    /// Quarantine shard `i`: sticky-dead, remembered cause, and — when
    /// it was the last survivor — whole-mount degradation.
    fn quarantine_shard(&self, i: usize, cause: DiskError, at: u64) {
        let s = &self.shards[i];
        if !s.gauges.dead.swap(true, Ordering::Relaxed) {
            *s.cause.lock() = Some(cause);
            self.quarantines.fetch_add(1, Ordering::Relaxed);
            // Trigger span first (so it lands in the rings the dump
            // freezes), then the capture itself. No locks are held here
            // beyond the caller's commit lock, which no metrics callback
            // takes.
            let mut sp = Span::root(SpanKind::Trigger, "shard_quarantine");
            sp.set_shard(i as u32);
            sp.fail();
            drop(sp);
            dump::trigger(
                TriggerCause::ShardQuarantine {
                    shard: i as u32,
                    detail: format!("{cause:?} at seq {at}"),
                },
                Some(self.health_report().to_json()),
            );
        }
        if self
            .shards
            .iter()
            .all(|s| s.gauges.dead.load(Ordering::Relaxed))
        {
            self.degrade(cause, at);
        }
    }

    fn shard_dead(&self, i: usize) -> bool {
        self.shards[i].gauges.dead.load(Ordering::Relaxed)
    }

    fn first_live_shard(&self) -> Option<usize> {
        (0..self.shards.len()).find(|&i| !self.shard_dead(i))
    }

    /// Bitmask of quarantined shards (shard ids fit in a `u64`).
    pub fn dead_mask(&self) -> u64 {
        (0..self.shards.len())
            .filter(|&i| self.shard_dead(i))
            .fold(0u64, |m, i| m | (1u64 << i))
    }

    /// Shards currently quarantined.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&i| self.shard_dead(i))
            .collect()
    }

    /// Why shard `i` was quarantined (`None` while healthy).
    pub fn shard_quarantine_cause(&self, i: usize) -> Option<DiskError> {
        *self.shards[i].cause.lock()
    }

    /// Quarantine events over the mount's lifetime.
    pub fn quarantine_count(&self) -> u64 {
        self.quarantines.load(Ordering::Relaxed)
    }

    /// Commits that discarded staged stamps (the errseq the sync path
    /// refuses to ack across).
    pub fn loss_events(&self) -> u64 {
        self.loss_seq.load(Ordering::Relaxed)
    }

    /// The cumulative lost-stamp windows, as persisted in `Quarantine`
    /// frames: sorted, coalesced, half-open `[lo, hi)`.
    pub fn lost_stamp_windows(&self) -> Vec<(u64, u64)> {
        self.lost_windows.lock().clone()
    }

    /// Record a loss event: set the cause, then publish the bump (the
    /// Release pairs with `sync`'s Acquire re-check).
    fn note_loss(&self, cause: DiskError) {
        *self.loss_cause.lock() = Some(cause);
        self.loss_seq.fetch_add(1, Ordering::Release);
    }

    /// Fold `new_lost` stamps into the cumulative window list and return
    /// the full list (what the next `Quarantine` frame carries — writing
    /// the cumulative list keeps any single surviving shard sufficient
    /// for recovery, and recovery unions whatever it finds anyway).
    fn absorb_windows(&self, new_lost: &mut Vec<u64>) -> Vec<(u64, u64)> {
        let mut all = self.lost_windows.lock();
        all.extend(new_lost.drain(..).map(|s| (s, s + 1)));
        coalesce_windows(&mut all);
        all.clone()
    }

    /// Spill a discarded staging buffer: every stamp it held becomes a
    /// lost window; seals stranded in it are collected for redirection
    /// to a surviving shard.
    fn spill_buf(b: &ShardBuf, lost: &mut Vec<u64>, redirects: &mut Vec<u64>) {
        lost.extend(b.plain.iter().map(|(s, _)| *s));
        for (_, ops) in &b.intents {
            lost.extend(ops.iter().map(|(s, _)| *s));
        }
        redirects.extend(b.seals.iter().copied());
    }

    fn stripe(&self, tid: Tid) -> &Mutex<HashMap<u32, TidState>> {
        &self.tids[tid.0 as usize % TID_STRIPES]
    }

    /// Stage one plain (non-rename) micro-op into `shard`.
    fn stage_plain(&self, shard: usize, mop: MicroOp) {
        // Shared-held barrier: the stamp and the push land atomically
        // with respect to the epoch cut. The phase span (child of the
        // sampled op root, inert otherwise) reads the open epoch under
        // the same guard, so its (shard, epoch, stamp) triple is the
        // one the next cut will assign.
        let mut sp = Span::child(SpanKind::ShardAppend, "stage_plain");
        sp.set_shard(shard as u32);
        let _r = self.cut.read();
        if self.shard_dead(shard) {
            // Quarantined range — the op raced the admission gate.
            // Count it dropped and consume no stamp, so the global
            // stamp stream stays gap-free for everyone else.
            sp.fail();
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut buf = self.shards[shard].buf.lock();
        let stamp = self.stamp.fetch_add(1, Ordering::Relaxed);
        sp.set_stamp(stamp);
        sp.set_epoch(self.open_epoch.load(Ordering::Relaxed));
        buf.plain.push((stamp, mop));
    }

    /// Stage one micro-op of the open rename transaction `txn`.
    fn stage_intent(&self, txn: &mut OpenTxn, mop: MicroOp) {
        if txn.dropped || self.shard_dead(txn.src) {
            // Source shard quarantined mid-rename: the intent can
            // never become durable, so the whole transaction drops —
            // ops take no stamps (no gap) and the seal is suppressed.
            txn.dropped = true;
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // No cut guard needed: the transaction gate keeps the cut out
        // until this transaction seals.
        let mut sp = Span::child(SpanKind::ShardAppend, "stage_intent");
        sp.set_shard(txn.src as u32);
        let mut buf = self.shards[txn.src].buf.lock();
        let stamp = self.stamp.fetch_add(1, Ordering::Relaxed);
        sp.set_stamp(stamp);
        sp.set_epoch(self.open_epoch.load(Ordering::Relaxed));
        match buf.intents.iter_mut().find(|(id, _)| *id == txn.id) {
            Some((_, ops)) => ops.push((stamp, mop)),
            None => buf.intents.push((txn.id, vec![(stamp, mop)])),
        }
    }

    /// Seal the rename transaction in its destination shard.
    fn stage_seal(&self, txn: &OpenTxn) {
        if txn.dropped || self.shard_dead(txn.src) {
            // The intent never reached (or will never reach) disk: a
            // seal would only show up as an orphan at recovery.
            return;
        }
        let dst = txn.dst.unwrap_or(txn.src);
        let dst = if self.shard_dead(dst) {
            // Redirect to any survivor: recovery pairs intents
            // against seals found on *any* shard, so placement is
            // free — what matters is that the seal lands in the same
            // epoch as its intent, which the transaction gate holds
            // open until this push completes.
            match self.first_live_shard() {
                Some(i) => i,
                None => return,
            }
        } else {
            dst
        };
        self.shards[dst].buf.lock().seals.push(txn.id);
    }

    fn on_mutate(&self, tid: Tid, mop: MicroOp) {
        if self.degraded.load(Ordering::Relaxed) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut map = self.stripe(tid).lock();
        match map.get_mut(&tid.0) {
            Some(st) if st.is_rename => {
                if st.txn.is_none() {
                    self.txns.enter();
                    st.txn = Some(OpenTxn {
                        id: self.txn_ids.fetch_add(1, Ordering::Relaxed),
                        src: st.hint.unwrap_or_else(|| self.shard_of_ino(mop.target())),
                        dst: None,
                        dropped: false,
                    });
                }
                let txn = st.txn.as_mut().expect("just opened");
                if let MicroOp::Ins { parent, .. } = &mop {
                    // The rename's Ins names the destination parent: that
                    // shard gets the seal.
                    txn.dst = Some(shard_of(*parent, self.shards.len()));
                }
                self.stage_intent(txn, mop);
            }
            st => {
                let shard = st
                    .and_then(|s| s.hint)
                    .unwrap_or_else(|| self.shard_of_ino(mop.target()));
                drop(map);
                self.stage_plain(shard, mop);
            }
        }
    }

    /// Close the thread's rename transaction, if one is open (called at
    /// `Lp`, and defensively at `OpEnd`).
    fn close_txn(&self, st: &mut TidState) {
        if let Some(txn) = st.txn.take() {
            self.stage_seal(&txn);
            self.txns.exit();
        }
    }

    /// Durability barrier: group-commit the open epoch and flush. Errors
    /// when the mount is (or just became) degraded — nothing since the
    /// last `Ok` is guaranteed durable.
    pub fn sync(&self) -> Result<(), DiskError> {
        // Always-recorded root (syncs are rare and device-bound): this is
        // what guarantees a fault dump carries the commit that failed,
        // even at sparse op sampling.
        let mut sp = Span::root(SpanKind::Op, "journal_sync");
        let r = self.sync_inner();
        if r.is_err() {
            sp.fail();
        }
        r
    }

    fn sync_inner(&self) -> Result<(), DiskError> {
        if self.degraded.load(Ordering::Relaxed) {
            if let Health::Degraded { cause, .. } = *self.health.lock() {
                return Err(cause);
            }
        }
        // The group commit proper: the barrier is satisfied once a flushed
        // cut covers every stamp issued before this call. One syncer at a
        // time leads (runs the cut + device round-trip); the rest park at
        // the rendezvous — a leader mid-flight cannot cover a follower
        // that arrived after its cut, so queueing up to lead next would
        // just run one redundant commit per syncer. When the leader
        // finishes, woken followers either find themselves covered or the
        // fastest of them leads the next cut, which covers the rest.
        let loss0 = self.loss_seq.load(Ordering::Acquire);
        let target = self.stamp.load(Ordering::Acquire);
        let mut led = false;
        loop {
            if self.sealed_stamp.load(Ordering::Acquire) >= target {
                // errseq re-check: a quarantine event since entry means
                // some staged stamps were discarded, and this syncer
                // cannot tell whether its own were among them — so it
                // reports the loss rather than ack it away (the
                // fsync-after-EIO discipline). Later syncs, entered
                // after the event, ack live-shard data normally.
                if self.loss_seq.load(Ordering::Acquire) != loss0 {
                    return Err(self.loss_cause.lock().unwrap_or(DiskError::Gone));
                }
                if !led {
                    self.gc_absorbed.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(());
            }
            if self.degraded.load(Ordering::Relaxed) {
                if let Health::Degraded { cause, .. } = *self.health.lock() {
                    return Err(cause);
                }
            }
            match self.elect() {
                Some(guard) => {
                    led = true;
                    self.gc_leads.fetch_add(1, Ordering::Relaxed);
                    self.batching_window();
                    let result = self.commit_locked(false);
                    drop(guard);
                    self.wake_followers();
                    result?;
                }
                None => {
                    let mut gen = self.commit_gen.lock();
                    // Re-check under the rendezvous lock: the leader
                    // bumps the generation only after releasing the
                    // commit lock, so if it is still held a wake-up is
                    // guaranteed to come.
                    if self.commit_lock.is_locked()
                        && self.sealed_stamp.load(Ordering::Acquire) < target
                    {
                        self.gc_parks.fetch_add(1, Ordering::Relaxed);
                        self.commit_cv.wait(&mut gen);
                    }
                }
            }
        }
    }

    /// Try to become the sync leader: the commit lock's guard, or `None`
    /// (leaving the current leader's lock held) if a commit is running.
    fn elect(&self) -> Option<ArcMutexGuard<RawMutex, ()>> {
        self.commit_lock.try_lock_arc()
    }

    /// Wake every parked follower after a commit completed (successfully
    /// or not — they re-check coverage and health themselves).
    fn wake_followers(&self) {
        *self.commit_gen.lock() += 1;
        self.commit_cv.notify_all();
    }

    /// The group-commit batching window, run by a sync leader *before*
    /// its cut: give concurrently staging writers a chance to get their
    /// mutations into the epoch, so one device barrier covers them all
    /// (jbd2's transaction-batching idea). Yield-based and adaptive: each
    /// yield cedes the CPU to staging threads — on a single core this is
    /// what lets them run at all — and the window closes as soon as the
    /// global stamp stops moving (no writer mid-flight, so waiting longer
    /// buys nothing). An idle or single-threaded mount pays one yield.
    /// The wall-clock cap bounds the added latency when writers never go
    /// quiet (e.g. threads that stage continuously and rarely sync).
    fn batching_window(&self) {
        let deadline = std::time::Instant::now() + BATCH_WINDOW_CAP;
        let mut prev = self.stamp.load(Ordering::Relaxed);
        loop {
            std::thread::yield_now();
            let cur = self.stamp.load(Ordering::Relaxed);
            if cur == prev || std::time::Instant::now() >= deadline {
                return;
            }
            prev = cur;
        }
    }

    /// The group commit. `force` writes an `EpochSeal` frame to every
    /// shard even when nothing is staged — recovery uses it so every
    /// shard carries at least one frame of the checkpoint generation.
    pub fn commit(&self, force: bool) -> Result<(), DiskError> {
        let result = {
            let _c = self.commit_lock.lock();
            self.commit_locked(force)
        };
        self.wake_followers();
        result
    }

    /// Commit body; the caller holds `commit_lock`.
    fn commit_locked(&self, force: bool) -> Result<(), DiskError> {
        // Always-recorded commit span (one per group commit, not per op).
        // Children — the cut, per-shard slice writes, the flush barrier —
        // hang off it.
        let mut sp = Span::root(SpanKind::EpochCut, "group_commit");
        let r = self.commit_locked_inner(force, &mut sp);
        if r.is_err() {
            sp.fail();
        }
        r
    }

    fn commit_locked_inner(&self, force: bool, sp: &mut Span) -> Result<(), DiskError> {
        if let Health::Degraded { cause, .. } = *self.health.lock() {
            return Err(cause);
        }

        // Phase 1 — the cut. Drain open rename transactions (so no
        // intent/seal pair straddles the epoch), then atomically swap
        // every shard's buffer and advance the epoch. Dead shards'
        // buffers are taken too: anything staged into them (ops that
        // raced the quarantine) is discarded into recorded loss windows
        // below rather than silently forgotten.
        self.txns.drain();
        let cut = {
            let _w = self.cut.write();
            // Staging is quiesced: every issued stamp is in a buffer, so
            // this commit's flush makes all of them durable.
            let covered = self.stamp.load(Ordering::Relaxed);
            let empty = self.shards.iter().all(|s| s.buf.lock().is_empty());
            if empty && !force {
                (covered, None)
            } else {
                let epoch = self.open_epoch.fetch_add(1, Ordering::Relaxed);
                let taken: Vec<ShardBuf> = self
                    .shards
                    .iter()
                    .map(|s| std::mem::take(&mut *s.buf.lock()))
                    .collect();
                (covered, Some((epoch, taken)))
            }
        };
        self.txns.release();

        let (covered, staged) = cut;
        if let Some((epoch, _)) = &staged {
            sp.set_epoch(*epoch);
        }
        let Some((epoch, taken)) = staged else {
            // Nothing staged: sync degenerates to a flush barrier.
            let flush_failed = self.flush_pass();
            if let Some(&(_, cause, _)) = flush_failed.first() {
                for (i, c, at) in flush_failed {
                    self.quarantine_shard(i, c, at);
                }
                return Err(cause);
            }
            self.sealed_stamp.fetch_max(covered, Ordering::AcqRel);
            return Ok(());
        };

        // Phase 2 — write each live shard's slice of the epoch. Staging
        // of the next epoch proceeds concurrently; the buffers here are
        // frozen. Encoding and checksumming a slice is byte-throughput
        // work that is independent per shard, but the leader writes every
        // slice inline: a spawned writer costs more than the bytes of a
        // typical epoch. Every slice is attempted even after one fails:
        // each healthy shard keeps as much durable history as its device
        // allows.
        let mut new_lost: Vec<u64> = Vec::new();
        let mut redirect_seals: Vec<u64> = Vec::new();
        let mut failed: Vec<(usize, DiskError, u64)> = Vec::new();
        for (i, b) in taken.iter().enumerate() {
            if self.shard_dead(i) {
                Self::spill_buf(b, &mut new_lost, &mut redirect_seals);
                continue;
            }
            let mut ssp = Span::child(SpanKind::ShardAppend, "epoch_slice");
            ssp.set_shard(i as u32);
            ssp.set_epoch(epoch);
            if let Err((cause, at)) = self.write_epoch_slice(i, b, epoch) {
                ssp.fail();
                failed.push((i, cause, at));
            }
        }

        // Phase 3 — quarantine what failed, persist the losses to the
        // survivors, and flush. The loop re-runs when a survivor dies
        // while recording its peers' death (each iteration strictly
        // shrinks the live set, so it terminates).
        let mut first_err: Option<DiskError> = None;
        loop {
            for (i, cause, at) in std::mem::take(&mut failed) {
                if first_err.is_none() {
                    first_err = Some(cause);
                }
                self.quarantine_shard(i, cause, at);
                // The failed shard's slice may be partially (or even
                // fully but unflushed) on disk; recording all its stamps
                // as lost is safe — windows only permit skipping stamps
                // recovery cannot find, they never suppress found ones.
                Self::spill_buf(&taken[i], &mut new_lost, &mut redirect_seals);
            }
            let live: Vec<usize> = (0..self.shards.len())
                .filter(|&i| !self.shard_dead(i))
                .collect();
            if live.is_empty() {
                let cause = first_err.unwrap_or(DiskError::Gone);
                self.degrade(cause, 0);
                self.note_loss(cause);
                return Err(cause);
            }
            if first_err.is_some() || !new_lost.is_empty() || !redirect_seals.is_empty() {
                // Seal redirects first (recovery pairs intents against
                // seals found on *any* shard), then the Quarantine frame
                // carrying the dead-shard mask and the cumulative lost
                // windows — written to every survivor so any one of them
                // suffices at recovery. The frame goes out even when the
                // dead shard's buffer was empty (it died on a seal write,
                // nothing lost): the mask itself must be durable, or
                // recovery would neither surface the quarantine nor stop
                // the dead shard's stale seal dragging `sealed_epoch`
                // back.
                let windows = self.absorb_windows(&mut new_lost);
                let mask = self.dead_mask();
                for &i in &live {
                    let s = &self.shards[i];
                    let mut w = s.writer.lock();
                    let at = w.next_seq();
                    let r = (|| {
                        for txn in &redirect_seals {
                            w.append_frame(FrameKind::RenameSeal, epoch, *txn, &[])?;
                        }
                        w.append_quarantine(epoch, mask, &windows)
                    })();
                    s.gauges.log_bytes.store(w.position(), Ordering::Relaxed);
                    drop(w);
                    if let Err(cause) = r {
                        failed.push((i, cause, at));
                    }
                }
                if !failed.is_empty() {
                    continue;
                }
                redirect_seals.clear();
            }
            failed = self.flush_pass();
            if failed.is_empty() {
                // The loss event must be visible *before* the coverage
                // mark: a concurrent syncer that sees the new
                // `sealed_stamp` must also see the bumped loss counter,
                // or it could ack stamps this commit just discarded.
                if let Some(cause) = first_err {
                    self.note_loss(cause);
                }
                // The epoch is durable on every survivor. `covered`
                // includes the lost stamps — they are accounted for by
                // the (also durable) windows, so later syncs of
                // live-shard data need not re-barrier for them.
                self.sealed_epoch.store(epoch, Ordering::Relaxed);
                self.sealed_stamp.fetch_max(covered, Ordering::AcqRel);
                for &i in &live {
                    self.shards[i].gauges.seal(epoch);
                }
                break;
            }
        }
        match first_err {
            Some(cause) => Err(cause),
            None => Ok(()),
        }
    }

    /// Write one shard's frozen slice of epoch `epoch`: its batch frame,
    /// rename intents/seals, and the epoch seal. Returns the failing
    /// cause plus the sequence number it failed at; the *caller*
    /// quarantines the shard once every slice has been attempted.
    fn write_epoch_slice(
        &self,
        i: usize,
        b: &ShardBuf,
        epoch: u64,
    ) -> Result<(), (DiskError, u64)> {
        let s = &self.shards[i];
        let mut w = s.writer.lock();
        let at = w.next_seq();
        let r = (|| {
            if !b.plain.is_empty() {
                w.append_frame(FrameKind::Batch, epoch, 0, &b.plain)?;
            }
            for (txn, ops) in &b.intents {
                w.append_frame(FrameKind::RenameIntent, epoch, *txn, ops)?;
            }
            for txn in &b.seals {
                w.append_frame(FrameKind::RenameSeal, epoch, *txn, &[])?;
            }
            w.append_frame(FrameKind::EpochSeal, epoch, 0, &[])
        })();
        s.gauges.log_bytes.store(w.position(), Ordering::Relaxed);
        drop(w);
        r.map_err(|cause| (cause, at))
    }

    /// Flush every distinct device backing a live shard (deduplicated by
    /// device identity, so a single-device mount issues one barrier).
    /// Returns the shards whose device refused, with the cause — the
    /// caller decides between quarantine and whole-mount degradation.
    fn flush_pass(&self) -> Vec<(usize, DiskError, u64)> {
        // Child of the commit span (flushes only run under it).
        let mut sp = Span::child(SpanKind::FlushBarrier, "flush_pass");
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for i in 0..self.shards.len() {
            if self.shard_dead(i) {
                continue;
            }
            let p = Arc::as_ptr(&self.shards[i].dev) as *const u8;
            match groups
                .iter_mut()
                .find(|(rep, _)| Arc::as_ptr(&self.shards[*rep].dev) as *const u8 == p)
            {
                Some((_, group)) => group.push(i),
                None => groups.push((i, vec![i])),
            }
        }
        let mut failed = Vec::new();
        for (rep, group) in groups {
            let dev = &self.shards[rep].dev;
            if let Err(cause) = self
                .cfg
                .policy
                .reseeded(rep as u64)
                .run(&self.counters, || dev.flush())
            {
                for i in group {
                    let at = self.shards[i].writer.lock().next_seq();
                    failed.push((i, cause, at));
                }
            }
        }
        if let Some(&(i, _, _)) = failed.first() {
            sp.set_shard(i as u32);
            sp.fail();
        }
        failed
    }
}

impl TraceSink for ShardedJournalSink {
    fn emit(&self, event: Event) {
        // Mutations carry the full old/new payload; taking them by value
        // moves that payload straight into the staging buffer instead of
        // cloning it (the hot path — every write stages two snapshots).
        match event {
            Event::Mutate { tid, mop } => self.on_mutate(tid, mop),
            other => self.emit_ref(&other),
        }
    }

    fn emit_ref(&self, event: &Event) {
        match event {
            Event::OpBegin { tid, op } => {
                self.stripe(*tid).lock().insert(
                    tid.0,
                    TidState {
                        is_rename: op.is_rename(),
                        ..TidState::default()
                    },
                );
            }
            Event::Mutate { tid, mop } => self.on_mutate(*tid, mop.clone()),
            Event::Lp { tid } => {
                let mut map = self.stripe(*tid).lock();
                if let Some(st) = map.get_mut(&tid.0) {
                    self.close_txn(st);
                }
            }
            Event::OpEnd { tid, .. } => {
                let mut map = self.stripe(*tid).lock();
                if let Some(mut st) = map.remove(&tid.0) {
                    // A rename always seals at its Lp; this is the
                    // failsafe that keeps the gate balanced regardless.
                    self.close_txn(&mut st);
                }
            }
            _ => {}
        }
    }

    fn shard_hint(&self, tid: Tid, primary: Inum) {
        let shard = self.shard_of_ino(primary);
        self.stripe(tid).lock().entry(tid.0).or_default().hint = Some(shard);
    }

    /// Admission: a mutation may proceed only if its durability domain
    /// is intact — the mount is not degraded and the shard its primary
    /// inode routes to is not quarantined. Refusing here (before the
    /// emitter takes any observable step) is what turns a quarantined
    /// shard into a *read-only inode range* instead of dropped writes.
    fn admit_mutation(&self, primary: Inum) -> bool {
        !self.degraded.load(Ordering::Relaxed) && !self.shard_dead(self.shard_of_ino(primary))
    }

    /// Claims carry nothing to log: the decision is just `valid()`, and
    /// the chain is never copied.
    fn claim(&self, _tid: Tid, _chain: &[Inum], _locked: bool, valid: &dyn Fn() -> bool) -> bool {
        valid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Disk;
    use crate::recovery::recover_sharded;
    use crate::wire::RedoOp;
    use atomfs_trace::{OpDesc, OpRet};
    use atomfs_vfs::FileType;

    fn cfg() -> ShardConfig {
        ShardConfig::default()
    }

    fn create(ino: u64) -> MicroOp {
        MicroOp::Create {
            ino,
            ftype: FileType::File,
        }
    }

    fn ins(parent: u64, name: &str, child: u64) -> MicroOp {
        MicroOp::Ins {
            parent,
            name: name.into(),
            child,
        }
    }

    /// Emit a full plain-op envelope around `mops` for thread `tid`.
    fn emit_op(sink: &ShardedJournalSink, tid: Tid, mops: &[MicroOp]) {
        sink.emit(Event::OpBegin {
            tid,
            op: OpDesc::Mknod { path: vec![] },
        });
        for m in mops {
            sink.emit(Event::Mutate {
                tid,
                mop: m.clone(),
            });
        }
        sink.emit(Event::Lp { tid });
        sink.emit(Event::OpEnd {
            tid,
            ret: OpRet::Ok,
        });
    }

    #[test]
    fn stage_and_commit_lands_ops_in_stamp_order() {
        let disk = Arc::new(Disk::new());
        let sink = ShardedJournalSink::new(Arc::clone(&disk) as Arc<dyn BlockDevice>, cfg());
        for i in 0..10u64 {
            emit_op(&sink, Tid(1), &[create(100 + i)]);
        }
        assert_eq!(sink.stamps_issued(), 10);
        assert_eq!(sink.sealed_epoch(), 0);
        sink.sync().unwrap();
        assert_eq!(sink.sealed_epoch(), 1);
        let r = recover_sharded(&disk, sink.config());
        assert_eq!(r.ops.len(), 10);
        for (i, (stamp, op)) in r.ops.iter().enumerate() {
            assert_eq!(*stamp, i as u64);
            assert_eq!(*op, RedoOp::Ns(create(100 + i as u64)));
        }
    }

    /// A follower's failed election must leave the leader's commit lock
    /// held: a guard built for a failed `try_lock` would release it on
    /// drop and let two commits run at once.
    #[test]
    fn failed_election_leaves_the_leaders_commit_lock_held() {
        let sink = ShardedJournalSink::new(Arc::new(Disk::new()) as Arc<dyn BlockDevice>, cfg());
        let leader = sink.commit_lock.lock();
        assert!(sink.elect().is_none());
        assert!(sink.commit_lock.is_locked());
        drop(leader);
        assert!(sink.elect().is_some());
        assert!(!sink.commit_lock.is_locked());
    }

    #[test]
    fn empty_sync_is_a_flush_barrier_not_an_epoch() {
        let disk = Arc::new(Disk::new());
        let sink = ShardedJournalSink::new(Arc::clone(&disk) as Arc<dyn BlockDevice>, cfg());
        sink.sync().unwrap();
        sink.sync().unwrap();
        assert_eq!(sink.sealed_epoch(), 0, "no epoch consumed");
        assert_eq!(sink.log_bytes(), 0, "no frames written");
    }

    #[test]
    fn forced_commit_seals_every_shard_even_when_empty() {
        let disk = Arc::new(Disk::new());
        let sink = ShardedJournalSink::new(Arc::clone(&disk) as Arc<dyn BlockDevice>, cfg());
        sink.commit(true).unwrap();
        assert_eq!(sink.sealed_epoch(), 1);
        for i in 0..sink.shard_count() {
            let rep = sink.shard_report(i);
            assert!(rep.log_bytes > 0, "shard {i} got its EpochSeal frame");
            assert_eq!(rep.sealed_epoch, 1);
            assert_eq!(rep.epoch_lag, 0);
        }
    }

    #[test]
    fn rename_emits_intent_and_seal_with_same_epoch_and_txn() {
        let disk = Arc::new(Disk::new());
        let sink = ShardedJournalSink::new(Arc::clone(&disk) as Arc<dyn BlockDevice>, cfg());
        // Preamble: both parents and the child exist.
        emit_op(&sink, Tid(1), &[create(2), ins(1, "a", 2)]);
        emit_op(&sink, Tid(1), &[create(3), ins(1, "b", 3)]);
        emit_op(&sink, Tid(1), &[create(9), ins(2, "f", 9)]);
        // The rename proper: del from src parent 2, ins into dst parent 3.
        sink.emit(Event::OpBegin {
            tid: Tid(1),
            op: OpDesc::Rename {
                src: vec!["a".into(), "f".into()],
                dst: vec!["b".into(), "g".into()],
            },
        });
        sink.shard_hint(Tid(1), 2);
        sink.emit(Event::Mutate {
            tid: Tid(1),
            mop: MicroOp::Del {
                parent: 2,
                name: "f".into(),
                child: 9,
            },
        });
        sink.emit(Event::Mutate {
            tid: Tid(1),
            mop: ins(3, "g", 9),
        });
        sink.emit(Event::Lp { tid: Tid(1) });
        sink.emit(Event::OpEnd {
            tid: Tid(1),
            ret: OpRet::Ok,
        });
        sink.sync().unwrap();
        let r = recover_sharded(&disk, sink.config());
        assert_eq!(r.unsealed_txns(), Vec::<u64>::new());
        // All 8 mutates replay, in stamp order, rename included.
        assert_eq!(r.ops.len(), 8);
        assert_eq!(
            r.ops[6].1,
            RedoOp::Ns(MicroOp::Del {
                parent: 2,
                name: "f".into(),
                child: 9,
            })
        );
        assert_eq!(r.ops[7].1, RedoOp::Ns(ins(3, "g", 9)));
    }

    #[test]
    fn concurrent_staging_survives_concurrent_syncs() {
        let disk = Arc::new(Disk::new());
        let sink = Arc::new(ShardedJournalSink::new(
            Arc::clone(&disk) as Arc<dyn BlockDevice>,
            cfg(),
        ));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let sink = Arc::clone(&sink);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let ino = 1000 + t as u64 * 1000 + i;
                        emit_op(&sink, Tid(t), &[create(ino)]);
                        if i % 16 == 0 {
                            sink.sync().unwrap();
                        }
                    }
                });
            }
        });
        sink.sync().unwrap();
        assert_eq!(sink.stamps_issued(), 800);
        let r = recover_sharded(&disk, sink.config());
        assert_eq!(r.ops.len(), 800, "every acked op replays");
        for (i, (stamp, _)) in r.ops.iter().enumerate() {
            assert_eq!(*stamp, i as u64, "merged stream is stamp-contiguous");
        }
    }

    #[test]
    fn dead_shard_degrades_whole_mount_stickily() {
        use crate::faults::{FaultPlan, FaultyDisk};
        let dev = Arc::new(FaultyDisk::new(
            Arc::new(Disk::new()),
            FaultPlan::none(0).with_permanent_failure_after(4),
        ));
        let sink = ShardedJournalSink::new(dev, cfg());
        let mut died = false;
        for i in 0..500u64 {
            emit_op(&sink, Tid(1), &[create(100 + i)]);
            if sink.sync().is_err() {
                died = true;
                break;
            }
        }
        assert!(died, "the device never died");
        assert!(sink.health().is_degraded());
        assert!(
            sink.shard_reports().iter().any(|r| r.dead) || sink.counters().device_faults() > 0,
            "either a shard died on append or the flush path was charged"
        );
        // Sticky: syncs keep failing with the original cause.
        assert!(sink.sync().is_err());
        // Mutates arriving while degraded are counted, not staged.
        let before = sink.stamps_issued();
        emit_op(&sink, Tid(1), &[create(9999)]);
        assert_eq!(sink.stamps_issued(), before);
        assert!(sink.dropped_events() >= 1);
    }

    #[test]
    fn one_dead_device_quarantines_its_shard_and_survivors_keep_committing() {
        use crate::faults::{FaultPlan, FaultyDisk};
        let disk = Arc::new(Disk::new());
        let dead_shard = 2usize;
        // Shard 2 writes through a device that is dead on arrival; its
        // siblings share the healthy platter.
        let devices: Vec<Arc<dyn BlockDevice>> = (0..4)
            .map(|i| {
                if i == dead_shard {
                    Arc::new(FaultyDisk::new(
                        Arc::clone(&disk),
                        FaultPlan::none(7).with_permanent_failure_after(0),
                    )) as Arc<dyn BlockDevice>
                } else {
                    Arc::clone(&disk) as Arc<dyn BlockDevice>
                }
            })
            .collect();
        let sink = ShardedJournalSink::with_devices(devices, cfg());
        let ino_for = |shard: usize| {
            (2u64..)
                .find(|&i| shard_of(i, 4) == shard)
                .expect("some ino")
        };
        // One op per shard: staging order fixes stamp s on shard s's op.
        for s in 0..4 {
            emit_op(&sink, Tid(1), &[create(ino_for(s))]);
        }
        assert_eq!(sink.stamps_issued(), 4);
        // The committing sync reports the loss once...
        assert!(sink.sync().is_err(), "the loss must be reported");
        // ...but the mount survives: only the victim is quarantined.
        assert!(
            !sink.health().is_degraded(),
            "one dead shard must not degrade the mount"
        );
        assert_eq!(sink.quarantined_shards(), vec![dead_shard]);
        assert_eq!(sink.quarantine_count(), 1);
        assert_eq!(sink.loss_events(), 1);
        assert!(sink.shard_quarantine_cause(dead_shard).is_some());
        // The discarded buffer's stamp is recorded as a loss window.
        let windows = sink.lost_stamp_windows();
        assert_eq!(windows, vec![(dead_shard as u64, dead_shard as u64 + 1)]);
        // Admission gates exactly the dead range.
        assert!(!sink.admit_mutation(ino_for(dead_shard)));
        assert!(sink.admit_mutation(ino_for(0)));
        // Survivors keep accepting and acking new epochs.
        let next_live = (ino_for(0) + 1..)
            .find(|&i| shard_of(i, 4) != dead_shard)
            .expect("some ino");
        emit_op(&sink, Tid(1), &[create(next_live)]);
        sink.sync()
            .expect("post-quarantine syncs on survivors succeed");
        // Recovery surfaces the quarantine and replays around the window.
        let r = recover_sharded(&disk, sink.config());
        assert_eq!(r.quarantined_shards(), vec![dead_shard]);
        assert_eq!(r.lost_windows, windows);
        assert_eq!(r.truncated_at, None, "the recorded loss does not truncate");
        assert_eq!(r.lost_ops, 1);
        let stamps: Vec<u64> = r.ops.iter().map(|(s, _)| *s).collect();
        assert_eq!(stamps, vec![0, 1, 3, 4], "all surviving stamps replay");
    }

    #[test]
    fn unhinted_raw_mutates_route_by_target() {
        // Direct emission without OpBegin (no tid state at all) must not
        // panic and must still journal the op.
        let disk = Arc::new(Disk::new());
        let sink = ShardedJournalSink::new(Arc::clone(&disk) as Arc<dyn BlockDevice>, cfg());
        sink.emit(Event::Mutate {
            tid: Tid(42),
            mop: create(7),
        });
        sink.sync().unwrap();
        let r = recover_sharded(&disk, sink.config());
        assert_eq!(r.ops.len(), 1);
    }
}
