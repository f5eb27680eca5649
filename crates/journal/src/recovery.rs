//! Parallel recovery of the sharded journal.
//!
//! Each shard region is an independent append stream, so recovery scans
//! them **in parallel** (one thread per shard) and then resolves the
//! scans into one replayable history:
//!
//! 1. **Scan** ([`scan_shard`]): walk the shard's region from byte 0,
//!    admitting checksummed frames with contiguous sequence numbers and
//!    a single generation (the first frame fixes it). Past the valid
//!    prefix, a scrub classifies what was left behind ([`RecordClass`]),
//!    budgeted *per shard*.
//! 2. **Resolve** ([`resolve`]): the mount generation is the maximum
//!    over shards (a shard whose newest frames are older was simply not
//!    written since the last checkpoint — it contributes nothing).
//!    Rename intents are admitted only when their seal is present with
//!    the same transaction id and epoch ([`crlh::verify_pairing`]);
//!    then every shard's stamped ops are k-way merged and truncated at
//!    the first stamp gap ([`crlh::merge_stamped`]). A discarded
//!    unsealed intent leaves exactly such a gap, so nothing after a
//!    half-committed rename replays — prefix exactness at mutation
//!    granularity, mount-wide.
//!
//! 3. **Replay** ([`replay`]): namespace ops apply as traced; a redo
//!    `SetData` splices its new bytes in only once the file's length and
//!    the digest of the overwritten range match what the extent
//!    recorded ([`crate::wire::RedoOp`]).
//!
//! **Quarantine windows** relax the gap rule in exactly one, explicitly
//! licensed way: when a shard was quarantined at run time, the commit
//! that caught the failure wrote a `Quarantine` frame to every survivor
//! recording the dead-shard mask and the half-open stamp windows that
//! died in the discarded buffer. `resolve` unions those records from
//! the clean prefixes and merges *around* the recorded windows
//! ([`crlh::merge_stamped_with_windows`]) — healthy shards' later
//! history replays instead of being truncated behind a loss the journal
//! itself documented. Any gap **not** covered by a window truncates as
//! before, so corruption can never widen what recovery may skip.
//!
//! [`recover_sharded_sequential`] performs the identical computation on
//! one thread; the fault-storm suite pins the two to equal results on
//! every seed.

use atomfs_obs::dump::{self, TriggerCause};
use atomfs_obs::{Span, SpanKind};
use atomfs_trace::micro;
use atomfs_vfs::frame;
use crlh::state::{FsState, Node, StateError};

use crate::device::{Disk, SECTOR_SIZE};
use crate::shard::ShardConfig;
use crate::wire::{
    checksum, coalesce_windows, decode_frame, Frame, FrameKind, RedoOp, FRAME_HEADER, MAGIC,
};

/// Why the recovery scrub refused a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordClass {
    /// The record frame is intact but its tail reads as zeroes: a write
    /// that persisted only a prefix (torn by a crash or a faulty drive).
    Torn,
    /// The record frame is intact but the checksum disagrees: silent
    /// corruption of durable bytes (bit rot).
    ChecksumMismatch,
    /// A validly checksummed record from an older, overwritten log
    /// generation showing through past the current generation's end.
    StaleEpoch,
    /// A validly checksummed record of the current generation stranded
    /// past a corruption hole — unusable because the history it extends
    /// is incomplete.
    Orphaned,
    /// Bytes that are not a record frame at all; the scrub cannot size
    /// them and must stop.
    Garbage,
}

/// One record the recovery scrub skipped, with where and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkippedRecord {
    /// Byte offset of the record frame, relative to its shard's region
    /// base.
    pub offset: u64,
    /// Why it was skipped.
    pub class: RecordClass,
    /// Frame length in bytes (0 when the frame could not be sized).
    pub len: usize,
    /// Which shard's scrub reported it.
    pub shard: u32,
}

/// Per-class totals of everything a scrub classified — including
/// records past the itemization cap. The itemized [`SkippedRecord`]
/// list is bounded evidence; these counters are the complete census, so
/// a noisy region cannot silently undercount its damage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkipTotals {
    /// Everything the scrub refused.
    pub total: u64,
    /// Frame intact, tail zeroed (torn write).
    pub torn: u64,
    /// Frame intact, checksum mismatch (bit rot).
    pub checksum_mismatch: u64,
    /// Valid record of an older, overwritten generation.
    pub stale_epoch: u64,
    /// Valid current-generation record stranded past a hole.
    pub orphaned: u64,
    /// Unframeable bytes (the scan stops there).
    pub garbage: u64,
}

impl SkipTotals {
    /// Count one classified record.
    pub fn count(&mut self, class: RecordClass) {
        self.total += 1;
        match class {
            RecordClass::Torn => self.torn += 1,
            RecordClass::ChecksumMismatch => self.checksum_mismatch += 1,
            RecordClass::StaleEpoch => self.stale_epoch += 1,
            RecordClass::Orphaned => self.orphaned += 1,
            RecordClass::Garbage => self.garbage += 1,
        }
    }

    /// Fold another census in (summing per-shard totals).
    pub fn merge(&mut self, other: &SkipTotals) {
        self.total += other.total;
        self.torn += other.torn;
        self.checksum_mismatch += other.checksum_mismatch;
        self.stale_epoch += other.stale_epoch;
        self.orphaned += other.orphaned;
        self.garbage += other.garbage;
    }
}

/// Largest payload a recovery scan will trust; garbage that happens to
/// carry the magic bytes cannot make the scanner allocate unboundedly.
const MAX_PAYLOAD: usize = 1 << 26;

/// Default bound on how many records a scrub will itemize past the
/// valid prefix (a bounded report, not a full forensic pass). The limit
/// is *per shard*, so one noisy shard cannot evict another shard's skip
/// evidence. Override via `ShardConfig::max_skipped`.
pub const DEFAULT_MAX_SKIPPED: usize = 64;

/// Result of scanning one shard's region.
#[derive(Debug)]
pub struct ShardScan {
    /// Shard index.
    pub shard: usize,
    /// Generation of the shard's valid frames (0 when it has none).
    pub gen: u32,
    /// The valid frame prefix, in append (sequence) order. [`resolve`]
    /// moves the ops of the frames it admits into
    /// [`ShardedRecovered::ops`], leaving those frames' `ops` empty.
    pub frames: Vec<Frame>,
    /// Byte offset just past the last valid frame, relative to the
    /// region base.
    pub end_pos: u64,
    /// Frames past the valid prefix, classified (per-shard budget).
    /// Itemization is capped; `skip_totals` keeps counting past it.
    pub skipped: Vec<SkippedRecord>,
    /// Complete per-class census of this shard's scrub, cap-independent.
    pub skip_totals: SkipTotals,
}

fn ensure(disk: &Disk, base_lba: u64, bytes: &mut Vec<u8>, upto: usize) {
    while bytes.len() < upto {
        let lba = base_lba + (bytes.len() / SECTOR_SIZE) as u64;
        bytes.extend_from_slice(&disk.read(lba));
    }
}

/// Scan shard `shard`'s region of `disk`. Reads the raw platter (a
/// fresh power session — the old session's fault plan died with it).
pub fn scan_shard(disk: &Disk, shard: usize, cfg: &ShardConfig) -> ShardScan {
    let base_lba = cfg.region_base(shard);
    let region_bytes = cfg.region_bytes() as usize;
    let mut bytes: Vec<u8> = Vec::new();
    let mut frames: Vec<Frame> = Vec::new();
    let mut pos = 0usize;
    let mut gen: Option<u32> = None;
    loop {
        if pos + FRAME_HEADER > region_bytes {
            break; // a frame can't start this close to the region end
        }
        ensure(disk, base_lba, &mut bytes, pos + FRAME_HEADER);
        if bytes[pos..pos + 4] != MAGIC.to_le_bytes() {
            break;
        }
        let Some(total) = frame::peek_total(&bytes[pos..], FRAME_HEADER, MAX_PAYLOAD) else {
            break;
        };
        if pos + total > region_bytes {
            break; // claims to extend past the region: not ours
        }
        ensure(disk, base_lba, &mut bytes, pos + total);
        match decode_frame(&bytes[pos..pos + total]) {
            Some((frame, len))
                if len == total
                    && frame.shard as usize == shard
                    && frame.seq == frames.len() as u64
                    && gen.map(|g| g == frame.gen).unwrap_or(true) =>
            {
                // The first frame fixes the generation; a frame of an
                // older, overwritten generation ends the scan.
                gen = Some(frame.gen);
                frames.push(frame);
                pos += total;
            }
            _ => break,
        }
    }
    let (skipped, skip_totals) = scrub(
        disk,
        base_lba,
        region_bytes,
        &mut bytes,
        pos,
        gen,
        shard,
        cfg.max_skipped,
    );
    ShardScan {
        shard,
        gen: gen.unwrap_or(0),
        frames,
        end_pos: pos as u64,
        skipped,
        skip_totals,
    }
}

/// Classify the frames (if any) past the valid prefix at `pos`.
/// Itemization stops at the per-shard budget; classification runs to
/// the end of the debris so the returned totals are a complete census
/// (the walk is bounded by the log's own framing: it stops at zeroed
/// space or the first unsizeable bytes).
#[allow(clippy::too_many_arguments)]
fn scrub(
    disk: &Disk,
    base_lba: u64,
    region_bytes: usize,
    bytes: &mut Vec<u8>,
    mut pos: usize,
    gen: Option<u32>,
    shard: usize,
    max_skipped: usize,
) -> (Vec<SkippedRecord>, SkipTotals) {
    let mut skipped = Vec::new();
    let mut totals = SkipTotals::default();
    let mut note = |rec: SkippedRecord, skipped: &mut Vec<SkippedRecord>| {
        totals.count(rec.class);
        if skipped.len() < max_skipped {
            skipped.push(rec);
        }
    };
    while pos + FRAME_HEADER <= region_bytes {
        ensure(disk, base_lba, bytes, pos + FRAME_HEADER);
        let header = &bytes[pos..pos + FRAME_HEADER];
        if header.iter().all(|&b| b == 0) {
            break; // never-written space: the clean end of the shard
        }
        let total = frame::peek_total(header, FRAME_HEADER, MAX_PAYLOAD)
            .filter(|&t| header[..4] == MAGIC.to_le_bytes() && pos + t <= region_bytes);
        let Some(total) = total else {
            // Not a sizeable frame of this region: the scrub cannot
            // step past it.
            note(
                SkippedRecord {
                    offset: pos as u64,
                    class: RecordClass::Garbage,
                    len: 0,
                    shard: shard as u32,
                },
                &mut skipped,
            );
            break;
        };
        ensure(disk, base_lba, bytes, pos + total);
        let raw = &bytes[pos..pos + total];
        let class = match decode_frame(raw) {
            Some((frame, _)) if gen.map(|g| g != frame.gen).unwrap_or(false) => {
                RecordClass::StaleEpoch
            }
            // Valid frame of this generation, but the history between
            // the prefix and here has a hole (or it claims a foreign
            // shard / broken sequence).
            Some(_) => RecordClass::Orphaned,
            None => {
                // A torn write persists a prefix of the frame; the rest
                // reads as whatever was there before — zeroes, in the
                // append-only region past the tail. A frame whose last
                // bytes are zero therefore tore; a frame that is fully
                // populated but fails its checksum was flipped.
                if raw[total - frame::TRAILER_LEN..].iter().all(|&b| b == 0) {
                    RecordClass::Torn
                } else {
                    RecordClass::ChecksumMismatch
                }
            }
        };
        note(
            SkippedRecord {
                offset: pos as u64,
                class,
                len: total,
                shard: shard as u32,
            },
            &mut skipped,
        );
        pos += total;
    }
    (skipped, totals)
}

/// The resolved result of recovering a sharded log.
#[derive(Debug)]
pub struct ShardedRecovered {
    /// The mount generation (max over shards; 1 for a blank disk).
    pub gen: u32,
    /// The admitted history: stamp-contiguous from 0, in stamp order.
    pub ops: Vec<(u64, RedoOp)>,
    /// First missing stamp when the merge hit a gap.
    pub truncated_at: Option<u64>,
    /// Ops present on disk but behind the gap (not replayed).
    pub dropped_ops: usize,
    /// Rename intent/seal matching outcome (unsealed intents are the
    /// discarded two-phase renames).
    pub pairing: crlh::PairingReport,
    /// Highest epoch sealed on *every* current-generation shard (shards
    /// the quarantine mask names are excluded — a dead shard stops
    /// sealing without holding back the survivors' high-water mark).
    pub sealed_epoch: u64,
    /// Union of the dead-shard bitmasks from `Quarantine` frames in the
    /// clean prefixes (0 when the run saw no quarantine).
    pub quarantined_mask: u64,
    /// Union of the recorded lost-stamp windows, sorted, coalesced,
    /// half-open `[lo, hi)`.
    pub lost_windows: Vec<(u64, u64)>,
    /// Stamps the merge skipped under the windows' license: mutations
    /// known lost with a quarantined shard.
    pub lost_ops: usize,
    /// Per-shard scans, index = shard.
    pub scans: Vec<ShardScan>,
}

impl ShardedRecovered {
    /// Transactions whose intent never found its seal.
    pub fn unsealed_txns(&self) -> Vec<u64> {
        self.pairing.unsealed.iter().map(|t| t.txn).collect()
    }

    /// Total valid log bytes across shards.
    pub fn log_bytes(&self) -> u64 {
        self.scans.iter().map(|s| s.end_pos).sum()
    }

    /// Every shard's skipped records, flattened (itemization is capped
    /// per shard; [`ShardedRecovered::skip_totals`] is the full census).
    pub fn skipped(&self) -> Vec<SkippedRecord> {
        self.scans.iter().flat_map(|s| s.skipped.clone()).collect()
    }

    /// Complete per-class scrub census summed over shards — counts every
    /// classified record even past the per-shard itemization cap.
    pub fn skip_totals(&self) -> SkipTotals {
        let mut totals = SkipTotals::default();
        for scan in &self.scans {
            totals.merge(&scan.skip_totals);
        }
        totals
    }

    /// Replay the admitted history into an abstract state ([`replay`]).
    pub fn replay(&self) -> Result<FsState, StateError> {
        replay(&self.ops)
    }

    /// Tolerant replay for histories with quarantine losses
    /// ([`replay_tolerant`]). Returns the state and the skip count.
    pub fn replay_tolerant(&self) -> (FsState, usize) {
        replay_tolerant(&self.ops)
    }

    /// Shards named dead by the recovered quarantine records.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        (0..self.scans.len())
            .filter(|&i| self.quarantined_mask & (1u64 << i) != 0)
            .collect()
    }
}

/// Scan every shard **in parallel** (one thread each) and resolve.
pub fn recover_sharded(disk: &Disk, cfg: &ShardConfig) -> ShardedRecovered {
    // Always-recorded replay tree: the root covers the whole recovery,
    // one child per scan thread (linked by explicit id — the scanners
    // run off-thread).
    let sp = Span::root(SpanKind::Replay, "recover_sharded");
    let root_id = sp.id();
    let n = cfg.shard_count();
    let mut scans: Vec<Option<ShardScan>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        for (i, slot) in scans.iter_mut().enumerate() {
            s.spawn(move || {
                let mut ssp = Span::child_of(root_id, SpanKind::Replay, "scan_shard");
                ssp.set_shard(i as u32);
                *slot = Some(scan_shard(disk, i, cfg));
            });
        }
    });
    resolve(scans.into_iter().map(|s| s.expect("scan joined")).collect())
}

/// The same recovery on one thread — the equivalence oracle for the
/// parallel path.
pub fn recover_sharded_sequential(disk: &Disk, cfg: &ShardConfig) -> ShardedRecovered {
    let scans = (0..cfg.shard_count())
        .map(|i| scan_shard(disk, i, cfg))
        .collect();
    resolve(scans)
}

/// Combine per-shard scans into one replayable history. Deterministic:
/// the parallel and sequential scanners feed it identical inputs.
pub fn resolve(mut scans: Vec<ShardScan>) -> ShardedRecovered {
    let gen = scans.iter().map(|s| s.gen).max().unwrap_or(0).max(1);
    // Shards whose frames are all from an older generation were not
    // written since the checkpoint that started `gen`: the checkpoint
    // subsumed their content.
    let current = |s: &&ShardScan| s.gen == gen;

    // Pair rename intents with seals across all current shards.
    let mut intents = Vec::new();
    let mut seals = Vec::new();
    for scan in scans.iter().filter(current) {
        for f in &scan.frames {
            match f.kind {
                FrameKind::RenameIntent => intents.push(crlh::TxnRecord {
                    txn: f.txn,
                    epoch: f.epoch,
                }),
                FrameKind::RenameSeal => seals.push(crlh::TxnRecord {
                    txn: f.txn,
                    epoch: f.epoch,
                }),
                _ => {}
            }
        }
    }
    let pairing = crlh::verify_pairing(&intents, &seals);
    let sealed: std::collections::HashSet<u64> = pairing.sealed.iter().copied().collect();

    // Union the quarantine records in the clean prefixes: the dead-shard
    // mask and the lost-stamp windows. Each frame carries the cumulative
    // list as of its write, so the union over frames (and shards) is the
    // complete loss record; coalescing keeps the window list canonical.
    let mut quarantined_mask = 0u64;
    let mut windows: Vec<(u64, u64)> = Vec::new();
    for scan in scans.iter().filter(current) {
        for f in &scan.frames {
            if f.kind == FrameKind::Quarantine {
                quarantined_mask |= f.txn;
                windows.extend(f.windows.iter().copied());
            }
        }
    }
    coalesce_windows(&mut windows);

    // Per-shard stamped streams: batches plus sealed intents. Seal-less
    // intents are excluded — their ops are discarded — but they still
    // truncate the history at their first stamp, which the merge alone
    // only notices when something was stamped after them; record their
    // stamps so the tail case reports its truncation too (unless every
    // one of them is covered by a lost window, in which case the loss is
    // already licensed and accounted).
    let mut discarded_stamps: Vec<u64> = Vec::new();
    let streams: Vec<Vec<(u64, RedoOp)>> = scans
        .iter_mut()
        .filter(|s| s.gen == gen)
        .map(|scan| {
            let mut ops = Vec::new();
            for f in &mut scan.frames {
                match f.kind {
                    FrameKind::Batch => ops.append(&mut f.ops),
                    FrameKind::RenameIntent if sealed.contains(&f.txn) => ops.append(&mut f.ops),
                    FrameKind::RenameIntent => {
                        discarded_stamps.extend(f.ops.iter().map(|(s, _)| *s))
                    }
                    _ => {}
                }
            }
            ops
        })
        .collect();
    let mut merged = crlh::merge_stamped_with_windows(streams, &windows);
    let in_window = |s: u64| windows.iter().any(|&(lo, hi)| s >= lo && s < hi);
    if merged.truncated_at.is_none() && discarded_stamps.iter().any(|&s| !in_window(s)) {
        // The admitted prefix cannot extend past the discarded intent's
        // first uncovered stamp; `next_stamp` is the first stamp the
        // merge never saw, which is where that intent's gap begins.
        merged.truncated_at = Some(merged.next_stamp);
    }
    merged.dropped += discarded_stamps.len();

    // The mount's durable epoch high-water mark: the highest epoch every
    // current *non-quarantined* shard has sealed (a dead shard stopped
    // sealing at its quarantine and must not drag the mark back; if every
    // current shard is masked, fall back to all of them).
    let seal_max = |scan: &ShardScan| {
        scan.frames
            .iter()
            .filter(|f| f.kind == FrameKind::EpochSeal)
            .map(|f| f.epoch)
            .max()
            .unwrap_or(0)
    };
    let masked = |s: &&ShardScan| quarantined_mask & (1u64 << s.shard) != 0;
    let sealed_epoch = scans
        .iter()
        .filter(current)
        .filter(|s| !masked(s))
        .map(seal_max)
        .min()
        .or_else(|| scans.iter().filter(current).map(seal_max).min())
        .unwrap_or(0);

    let recovered = ShardedRecovered {
        gen,
        ops: merged.ops,
        truncated_at: merged.truncated_at,
        dropped_ops: merged.dropped,
        pairing,
        sealed_epoch,
        quarantined_mask,
        lost_windows: windows,
        lost_ops: merged.lost,
        scans,
    };
    if recovered.lost_ops > 0 {
        // Loss was licensed by durable windows, but it is still loss:
        // capture a black box so the post-mortem carries the replay
        // spans and the window arithmetic that admitted it.
        let mut sp = Span::root(SpanKind::Trigger, "recovery_loss");
        sp.fail();
        drop(sp);
        dump::trigger(
            TriggerCause::RecoveryLoss {
                lost_ops: recovered.lost_ops as u64,
                detail: format!(
                    "gen {} mask {:#x} windows {:?}",
                    recovered.gen, recovered.quarantined_mask, recovered.lost_windows
                ),
            },
            None,
        );
    }
    recovered
}

/// Apply one recovered op. A namespace op goes through
/// [`FsState::apply_micro`]. A redo `SetData` first checks the replay
/// precondition `apply_micro` checks with the old bytes themselves: the
/// file is `old_len` bytes long and holds, at `off`, what the extent
/// overwrote, here by the range's digest. Only then does it splice `new`
/// in. A failing apply leaves the state untouched.
fn apply_redo(state: &mut FsState, op: &RedoOp) -> Result<(), StateError> {
    match op {
        RedoOp::Ns(mop) => state.apply_micro(mop),
        RedoOp::SetData {
            ino,
            off,
            old_len,
            new_len,
            overwritten,
            old_digest,
            new,
        } => match state.map.get_mut(ino) {
            Some(Node::File(f)) => {
                // An empty range sits anywhere, even past the end.
                let range = match *overwritten as usize {
                    0 => Some(&[][..]),
                    n => f.get(*off as usize..*off as usize + n),
                };
                let base = f.len() == *old_len as usize
                    && range.is_some_and(|r| checksum(r) == *old_digest);
                if base && micro::splice(f, *off, new, *new_len) {
                    return Ok(());
                }
                Err(StateError(format!(
                    "setdata on {ino}: current contents differ from recorded old"
                )))
            }
            _ => Err(StateError(format!("setdata on non-file {ino}"))),
        },
    }
}

/// Replay an admitted history into an abstract file system state.
/// Because the merge admits only a stamp-prefix of a legal total order,
/// this cannot fail for histories a conforming journal wrote.
pub fn replay(ops: &[(u64, RedoOp)]) -> Result<FsState, StateError> {
    let mut state = FsState::new();
    for (_, op) in ops {
        apply_redo(&mut state, op)?;
    }
    Ok(state)
}

/// Replay a history that may step over quarantine-lost stamps: ops the
/// state rejects are skipped and counted instead of failing the replay.
/// With window-covered losses in the prefix, an admitted op can
/// reference state that died with a dead shard (an `Ins` whose `Create`
/// sat in a lost window, a `SetData` whose base write did); this is the
/// fsck-style answer — apply what is consistent, report the rest.
/// Deterministic: same history, same skips.
pub fn replay_tolerant(ops: &[(u64, RedoOp)]) -> (FsState, usize) {
    let mut state = FsState::new();
    let mut skipped = 0usize;
    for (_, op) in ops {
        if apply_redo(&mut state, op).is_err() {
            skipped += 1;
        }
    }
    (state, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BlockDevice;
    use crate::shard::{ShardConfig, ShardWriter};
    use atomfs_trace::{MicroOp, ROOT_INUM};
    use atomfs_vfs::FileType;
    use std::sync::Arc;

    fn op(stamp: u64) -> (u64, MicroOp) {
        (
            stamp,
            MicroOp::Create {
                ino: 100 + stamp,
                ftype: FileType::File,
            },
        )
    }

    fn writers(disk: &Arc<Disk>, cfg: &ShardConfig, gen: u32) -> Vec<ShardWriter> {
        (0..cfg.shard_count())
            .map(|i| ShardWriter::new(Arc::clone(disk) as Arc<dyn BlockDevice>, i, gen, cfg))
            .collect()
    }

    #[test]
    fn empty_disk_recovers_empty_at_gen_one() {
        let disk = Disk::new();
        let cfg = ShardConfig::default();
        let r = recover_sharded(&disk, &cfg);
        assert_eq!(r.gen, 1);
        assert!(r.ops.is_empty());
        assert_eq!(r.truncated_at, None);
        assert!(r.pairing.is_clean());
        assert_eq!(r.scans.len(), 4);
    }

    #[test]
    fn parallel_and_sequential_recovery_agree() {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig::default();
        let mut ws = writers(&disk, &cfg, 1);
        // Spray ops across shards round-robin by stamp.
        for s in 0..40u64 {
            let shard = (s % 4) as usize;
            ws[shard]
                .append_frame(FrameKind::Batch, 1, 0, &[op(s)])
                .unwrap();
        }
        Disk::flush(&disk);
        let p = recover_sharded(&disk, &cfg);
        let q = recover_sharded_sequential(&disk, &cfg);
        assert_eq!(p.ops, q.ops);
        assert_eq!(p.gen, q.gen);
        assert_eq!(p.truncated_at, q.truncated_at);
        assert_eq!(p.ops.len(), 40);
    }

    #[test]
    fn stamp_gap_truncates_across_shards() {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig::default();
        let mut ws = writers(&disk, &cfg, 1);
        ws[0]
            .append_frame(FrameKind::Batch, 1, 0, &[op(0), op(1)])
            .unwrap();
        // Stamp 2 never made it to shard 1; stamps 3..5 did land on shard 2.
        ws[2]
            .append_frame(FrameKind::Batch, 1, 0, &[op(3), op(4), op(5)])
            .unwrap();
        Disk::flush(&disk);
        let r = recover_sharded(&disk, &cfg);
        assert_eq!(r.ops.len(), 2, "only the contiguous prefix replays");
        assert_eq!(r.truncated_at, Some(2));
        assert_eq!(r.dropped_ops, 3);
    }

    #[test]
    fn unsealed_intent_is_discarded_and_truncates() {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig::default();
        let mut ws = writers(&disk, &cfg, 1);
        ws[0]
            .append_frame(FrameKind::Batch, 1, 0, &[op(0)])
            .unwrap();
        // A rename intent (stamps 1,2) whose seal never became durable,
        // then a later plain op (stamp 3).
        ws[1]
            .append_frame(FrameKind::RenameIntent, 1, 7, &[op(1), op(2)])
            .unwrap();
        ws[0]
            .append_frame(FrameKind::Batch, 1, 0, &[op(3)])
            .unwrap();
        Disk::flush(&disk);
        let r = recover_sharded(&disk, &cfg);
        assert_eq!(r.unsealed_txns(), vec![7]);
        assert_eq!(r.ops.len(), 1, "history stops before the broken rename");
        assert_eq!(r.truncated_at, Some(1));
    }

    #[test]
    fn sealed_intent_replays_with_seal_in_another_shard() {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig::default();
        let mut ws = writers(&disk, &cfg, 1);
        ws[1]
            .append_frame(FrameKind::RenameIntent, 1, 7, &[op(0), op(1)])
            .unwrap();
        ws[3]
            .append_frame(FrameKind::RenameSeal, 1, 7, &[])
            .unwrap();
        Disk::flush(&disk);
        let r = recover_sharded(&disk, &cfg);
        assert!(r.pairing.is_clean());
        assert_eq!(r.pairing.sealed, vec![7]);
        assert_eq!(r.ops.len(), 2);
    }

    #[test]
    fn epoch_mismatched_seal_does_not_admit_the_intent() {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig::default();
        let mut ws = writers(&disk, &cfg, 1);
        ws[1]
            .append_frame(FrameKind::RenameIntent, 1, 7, &[op(0)])
            .unwrap();
        ws[3]
            .append_frame(FrameKind::RenameSeal, 2, 7, &[])
            .unwrap();
        Disk::flush(&disk);
        let r = recover_sharded(&disk, &cfg);
        assert!(r.ops.is_empty());
        assert_eq!(r.pairing.epoch_mismatches.len(), 1);
    }

    #[test]
    fn older_generation_shards_contribute_nothing() {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig::default();
        {
            let mut ws = writers(&disk, &cfg, 1);
            ws[3]
                .append_frame(FrameKind::Batch, 1, 0, &[op(0)])
                .unwrap();
        }
        {
            // Generation 2 checkpoint wrote shards 0..3 but never 3.
            let mut ws = writers(&disk, &cfg, 2);
            ws[0]
                .append_frame(FrameKind::Batch, 1, 0, &[op(0)])
                .unwrap();
            ws[1].append_frame(FrameKind::EpochSeal, 1, 0, &[]).unwrap();
            ws[2].append_frame(FrameKind::EpochSeal, 1, 0, &[]).unwrap();
        }
        Disk::flush(&disk);
        let r = recover_sharded(&disk, &cfg);
        assert_eq!(r.gen, 2);
        assert_eq!(r.ops.len(), 1, "gen-1 shard 3 is ignored");
        assert_eq!(r.scans[3].gen, 1);
    }

    #[test]
    fn torn_tail_is_classified_per_shard() {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig::default();
        let mut ws = writers(&disk, &cfg, 1);
        ws[2]
            .append_frame(FrameKind::Batch, 1, 0, &[op(0)])
            .unwrap();
        let end = ws[2].position() as usize;
        Disk::flush(&disk);
        // Zero the trailing checksum of shard 2's only frame.
        let base = cfg.region_base(2);
        for byte in end - 8..end {
            let lba = base + (byte / SECTOR_SIZE) as u64;
            let cur = Disk::read(&disk, lba)[byte % SECTOR_SIZE];
            disk.corrupt_durable(lba, byte % SECTOR_SIZE, cur);
        }
        let r = recover_sharded(&disk, &cfg);
        assert!(r.ops.is_empty());
        let skipped = r.skipped();
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].class, RecordClass::Torn);
        assert_eq!(skipped[0].shard, 2, "attributed to the right shard");
        assert_eq!(skipped[0].offset, 0, "offset is region-relative");
    }

    #[test]
    fn per_shard_census_counts_past_the_itemization_cap() {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig {
            max_skipped: 4,
            ..ShardConfig::default()
        };
        let mut ws = writers(&disk, &cfg, 1);
        for s in 0..10u64 {
            ws[1]
                .append_frame(FrameKind::Batch, 1, 0, &[op(s)])
                .unwrap();
        }
        Disk::flush(&disk);
        // Flip a payload bit in shard 1's first frame: the whole stream
        // behind it scrubs — one checksum mismatch, nine orphans.
        let byte = cfg.region_base(1) as usize * SECTOR_SIZE + FRAME_HEADER + 3;
        disk.corrupt_durable((byte / SECTOR_SIZE) as u64, byte % SECTOR_SIZE, 0x01);
        let r = recover_sharded(&disk, &cfg);
        assert!(r.ops.is_empty());
        let skipped = r.skipped();
        assert_eq!(skipped.len(), 4, "itemization honors the budget");
        assert_eq!(
            (skipped[0].offset, skipped[0].class),
            (0, RecordClass::ChecksumMismatch)
        );
        // The next frame is intact but stranded past the hole.
        assert_eq!(skipped[1].class, RecordClass::Orphaned);
        assert_eq!(skipped[1].offset, skipped[0].len as u64);
        let totals = r.skip_totals();
        assert_eq!(totals.total, 10, "the census counts past the cap");
        assert_eq!(totals.checksum_mismatch, 1);
        assert_eq!(totals.orphaned, 9);
    }

    #[test]
    fn non_frame_bytes_past_the_prefix_are_garbage() {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig::with_shards(1);
        let mut ws = writers(&disk, &cfg, 1);
        ws[0]
            .append_frame(FrameKind::Batch, 1, 0, &[op(0)])
            .unwrap();
        ws[0]
            .append_frame(FrameKind::Batch, 1, 0, &[op(1)])
            .unwrap();
        let end = ws[0].position() as usize;
        Disk::flush(&disk);
        // Stamp junk (not MAGIC) right past the valid prefix.
        disk.corrupt_durable((end / SECTOR_SIZE) as u64, end % SECTOR_SIZE, 0xDE);
        let r = recover_sharded(&disk, &cfg);
        assert_eq!(r.ops.len(), 2, "valid prefix is untouched");
        let skipped = r.skipped();
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].class, RecordClass::Garbage);
        assert_eq!(skipped[0].offset, end as u64);
        assert_eq!(skipped[0].len, 0, "unsizeable: the scrub stops there");
    }

    #[test]
    fn quarantine_windows_let_survivors_replay_past_the_loss() {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig::default();
        let mut ws = writers(&disk, &cfg, 1);
        // Shard 1 died holding stamps 2..4; the survivors hold the rest
        // plus the Quarantine frame recording the loss.
        ws[0]
            .append_frame(FrameKind::Batch, 1, 0, &[op(0), op(1)])
            .unwrap();
        ws[2]
            .append_frame(FrameKind::Batch, 1, 0, &[op(4), op(5)])
            .unwrap();
        ws[0].append_quarantine(1, 1 << 1, &[(2, 4)]).unwrap();
        Disk::flush(&disk);
        let r = recover_sharded(&disk, &cfg);
        let stamps: Vec<u64> = r.ops.iter().map(|(s, _)| *s).collect();
        assert_eq!(
            stamps,
            vec![0, 1, 4, 5],
            "merge steps over the recorded loss"
        );
        assert_eq!(r.truncated_at, None);
        assert_eq!(r.lost_ops, 2);
        assert_eq!(r.quarantined_shards(), vec![1]);
        assert_eq!(r.lost_windows, vec![(2, 4)]);
        // Parallel and sequential recovery agree on the degraded log too.
        let q = recover_sharded_sequential(&disk, &cfg);
        assert_eq!(r.ops, q.ops);
        assert_eq!(r.quarantined_mask, q.quarantined_mask);
    }

    #[test]
    fn unrecorded_gap_still_truncates_despite_a_quarantine() {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig::default();
        let mut ws = writers(&disk, &cfg, 1);
        // The quarantine licenses skipping stamp 1 only; stamp 2 is
        // missing without a record, so everything after it truncates.
        ws[0]
            .append_frame(FrameKind::Batch, 1, 0, &[op(0)])
            .unwrap();
        ws[2]
            .append_frame(FrameKind::Batch, 1, 0, &[op(3)])
            .unwrap();
        ws[0].append_quarantine(1, 1 << 1, &[(1, 2)]).unwrap();
        Disk::flush(&disk);
        let r = recover_sharded(&disk, &cfg);
        assert_eq!(r.ops.len(), 1);
        assert_eq!(r.truncated_at, Some(2), "the uncovered stamp truncates");
        assert_eq!(r.lost_ops, 1);
    }

    #[test]
    fn quarantined_shard_does_not_drag_the_sealed_epoch_back() {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig::default();
        let mut ws = writers(&disk, &cfg, 1);
        // Shard 1 sealed only epoch 1 before dying; shards 0 and 2 went
        // on to seal epoch 3 and recorded the quarantine.
        ws[1].append_frame(FrameKind::EpochSeal, 1, 0, &[]).unwrap();
        for i in [0usize, 2] {
            ws[i].append_frame(FrameKind::EpochSeal, 3, 0, &[]).unwrap();
            ws[i].append_quarantine(3, 1 << 1, &[]).unwrap();
        }
        Disk::flush(&disk);
        let r = recover_sharded(&disk, &cfg);
        assert_eq!(r.sealed_epoch, 3, "the dead shard is excluded from the min");
        assert_eq!(r.quarantined_shards(), vec![1]);
    }

    #[test]
    fn foreign_shard_frame_stops_the_scan() {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig::default();
        // A frame stamped shard=1 sitting in shard 0's region (e.g. a
        // firmware misdirected write): the scan must not admit it.
        let frame = crate::wire::encode_frame_parts(1, 1, FrameKind::Batch, 1, 0, 0, &[op(0)]);
        let mut sector = [0u8; SECTOR_SIZE];
        sector[..frame.len()].copy_from_slice(&frame);
        Disk::write(&disk, cfg.region_base(0), &sector);
        Disk::flush(&disk);
        let r = recover_sharded(&disk, &cfg);
        assert!(r.ops.is_empty());
        let skipped = r.skipped();
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].class, RecordClass::Orphaned);
    }

    fn ns(stamp: u64, op: MicroOp) -> (u64, RedoOp) {
        (stamp, RedoOp::Ns(op))
    }

    /// `mkdir /d` as stamps 0 and 1.
    fn mkdir_d() -> Vec<(u64, RedoOp)> {
        vec![
            ns(
                0,
                MicroOp::Create {
                    ino: 2,
                    ftype: FileType::Dir,
                },
            ),
            ns(
                1,
                MicroOp::Ins {
                    parent: ROOT_INUM,
                    name: "d".into(),
                    child: 2,
                },
            ),
        ]
    }

    #[test]
    fn replay_builds_state_from_merged_prefix() {
        let state = replay(&mkdir_d()).unwrap();
        let (trail, err) = state.resolve(&["d".to_string()]);
        assert!(err.is_none());
        assert_eq!(trail.last(), Some(&2));
    }

    #[test]
    fn tolerant_replay_skips_ops_orphaned_by_a_loss() {
        // The Create of dir 5 sat in a lost window; the Ins that links
        // it survives on a healthy shard. Strict replay fails; tolerant
        // replay applies the rest and counts the skip.
        let mut ops = mkdir_d();
        ops.push(ns(
            3,
            MicroOp::Ins {
                parent: 5,
                name: "x".into(),
                child: 6,
            },
        ));
        assert!(replay(&ops).is_err());
        let (state, skipped) = replay_tolerant(&ops);
        assert_eq!(skipped, 1);
        let (trail, err) = state.resolve(&["d".to_string()]);
        assert!(err.is_none());
        assert_eq!(trail.last(), Some(&2));
    }

    #[test]
    fn redo_set_data_checks_length_and_digest_of_the_overwritten_range() {
        let write = |len: usize, off: u64, data: &[u8], base: &[u8]| {
            let base = base.to_vec();
            RedoOp::from(&MicroOp::write_extent(7, len as u64, off, data, |r| {
                base[r.start as usize..r.end as usize].to_vec()
            }))
        };
        let mut state = FsState::new();
        state
            .apply_micro(&MicroOp::Create {
                ino: 7,
                ftype: FileType::File,
            })
            .unwrap();
        apply_redo(&mut state, &write(0, 0, b"first", b"")).unwrap();
        apply_redo(&mut state, &write(5, 1, b"ILS", b"first")).unwrap();
        // A hole past the end, zero-filled.
        apply_redo(&mut state, &write(5, 7, b"!", b"fILSt")).unwrap();
        let file = b"fILSt\0\0!".to_vec();
        assert_eq!(state.node(7).and_then(Node::as_file), Some(&file));
        // Same length, other bytes in the range; other length; a
        // directory target.
        let before = state.clone();
        assert!(apply_redo(&mut state, &write(8, 1, b"x", b"f?LSt\0\0!")).is_err());
        assert!(apply_redo(&mut state, &write(9, 1, b"x", b"fILSt\0\0!?")).is_err());
        assert!(apply_redo(&mut state, &write(0, 0, b"x", b"")).is_err());
        assert_eq!(state, before, "a refused redo leaves the state untouched");
        let shrink =
            MicroOp::resize_extent(7, 8, 2, |r| file[r.start as usize..r.end as usize].to_vec());
        apply_redo(&mut state, &RedoOp::from(&shrink)).unwrap();
        assert_eq!(state.node(7).and_then(Node::as_file), Some(&b"fI".to_vec()));
        let on_dir = RedoOp::SetData {
            ino: ROOT_INUM,
            off: 0,
            old_len: 0,
            new_len: 1,
            overwritten: 0,
            old_digest: checksum(b""),
            new: b"x".to_vec(),
        };
        assert!(apply_redo(&mut state, &on_dir).is_err());
    }
}
