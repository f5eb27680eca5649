//! Shards of the sharded journal: configuration, inode→shard mapping,
//! and the per-shard region writer.
//!
//! The sharded journal splits the log into `N` independent append
//! streams. Each shard owns a contiguous region of the device
//! (`region_sectors` sectors starting at `shard * region_sectors`), its
//! own frame sequence space, its own fault/retry counters, and its own
//! scrub budget at recovery. Which shard an operation's micro-ops land
//! in is decided by [`shard_of`] over the operation's *primary* inode
//! (delivered by the emitter through `TraceSink::shard_hint`), so all
//! micro-ops of one operation stay together in one stream — renames are
//! the only cross-shard case and get a two-phase intent/seal record
//! (see `group_commit`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use atomfs_trace::{Inum, MicroOp};
use atomfs_vfs::frame::Out;
use atomfs_vfs::Checksum;

use crate::device::{BlockDevice, DiskError, Sector, SECTOR_SIZE};
use crate::health::{HealthCounters, RetryPolicy};
use crate::recovery::DEFAULT_MAX_SKIPPED;
use crate::wire::{self, FrameKind, Header, Payload};

/// Hard ceiling on shard count (the on-disk layout stores the shard
/// index in a `u16`, but 64 regions is already far past useful
/// parallelism for this device model).
pub const MAX_SHARDS: usize = 64;

/// Sizing and policy knobs for a sharded journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of independent append streams (clamped to 1..=[`MAX_SHARDS`]).
    pub shards: usize,
    /// Sectors per shard region. Shard `i`'s log occupies LBAs
    /// `[i * region_sectors, (i + 1) * region_sectors)`.
    pub region_sectors: u64,
    /// Per-shard bound on recovery scrub itemization — each shard gets
    /// its own budget, so one noisy shard cannot evict another shard's
    /// skip evidence.
    pub max_skipped: usize,
    /// Retry policy every shard's sector operations run under.
    pub policy: RetryPolicy,
}

impl Default for ShardConfig {
    /// Four shards of 16 MiB.
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            region_sectors: 1 << 15,
            max_skipped: DEFAULT_MAX_SKIPPED,
            policy: RetryPolicy::default(),
        }
    }
}

impl ShardConfig {
    /// A config with `shards` streams and defaults elsewhere.
    pub fn with_shards(shards: usize) -> Self {
        ShardConfig {
            shards,
            ..ShardConfig::default()
        }
    }

    /// Shard count clamped to the legal range.
    pub fn shard_count(&self) -> usize {
        self.shards.clamp(1, MAX_SHARDS)
    }

    /// First LBA of shard `i`'s region.
    pub fn region_base(&self, shard: usize) -> u64 {
        shard as u64 * self.region_sectors
    }

    /// Bytes a shard region can hold.
    pub fn region_bytes(&self) -> u64 {
        self.region_sectors * SECTOR_SIZE as u64
    }
}

/// Map an inode to a shard: a multiplicative (Fibonacci) hash over the
/// inode number, taking the *high* bits so consecutive inode ranges
/// spread across shards instead of clustering. Deterministic and stable
/// across mounts — recovery does not depend on it (replay order comes
/// from stamps), but stable placement keeps a shard's history
/// self-contained.
pub fn shard_of(ino: Inum, shards: usize) -> usize {
    let shards = shards.clamp(1, MAX_SHARDS);
    let h = ino.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % shards
}

/// One shard's live write state: an append cursor into its region.
///
/// Frames are packed back-to-back into a byte stream laid over the
/// region's sectors; appends rewrite the tail sector as it fills (write
/// amplification traded for simplicity) under the retry policy, and
/// position/sequence do not advance on failure. A frame is streamed
/// into sectors as it is encoded (`SectorStream`), so an append holds
/// one sector of it, never the whole frame. Each writer charges its own
/// *per-shard* counter set.
pub struct ShardWriter {
    disk: Arc<dyn BlockDevice>,
    shard: u16,
    gen: u32,
    base_lba: u64,
    region_bytes: u64,
    /// Next free byte offset within the region's byte stream.
    pos: u64,
    /// Next frame sequence number.
    seq: u64,
    /// In-memory image of the sector `pos` points into (this writer is
    /// its region's only appender, so the cache is authoritative):
    /// appends never read the device back.
    tail: Sector,
    policy: RetryPolicy,
    counters: Arc<HealthCounters>,
}

impl ShardWriter {
    /// A fresh writer at byte 0 of shard `shard`'s region, generation `gen`.
    pub fn new(disk: Arc<dyn BlockDevice>, shard: usize, gen: u32, cfg: &ShardConfig) -> Self {
        ShardWriter {
            disk,
            shard: shard as u16,
            gen,
            base_lba: cfg.region_base(shard),
            region_bytes: cfg.region_bytes(),
            pos: 0,
            seq: 0,
            tail: [0u8; SECTOR_SIZE],
            // Each shard backs off on its own jitter schedule (when the
            // policy is seeded) so a correlated fault burst does not
            // exhaust every shard's budget in lockstep.
            policy: cfg.policy.reseeded(shard as u64),
            counters: Arc::new(HealthCounters::default()),
        }
    }

    /// Bytes appended to this shard so far.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Sequence number the next frame will carry.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// This shard's fault/retry counters.
    pub fn counters(&self) -> Arc<HealthCounters> {
        Arc::clone(&self.counters)
    }

    /// Append one frame (volatile until the device is flushed). On error
    /// the position and sequence number do not advance, so the owner can
    /// degrade without the log state drifting. A full region surfaces as
    /// [`DiskError::Gone`]: the shard is permanently out of space.
    pub fn append_frame(
        &mut self,
        kind: FrameKind,
        epoch: u64,
        txn: u64,
        ops: &[(u64, MicroOp)],
    ) -> Result<(), DiskError> {
        self.append(kind, epoch, txn, Payload::Ops(ops))
    }

    /// Append a [`FrameKind::Quarantine`] frame announcing that the
    /// shards in `mask` are dead and the stamps in `windows` were lost
    /// with them. Same durability/no-drift discipline as
    /// [`ShardWriter::append_frame`].
    pub fn append_quarantine(
        &mut self,
        epoch: u64,
        mask: u64,
        windows: &[(u64, u64)],
    ) -> Result<(), DiskError> {
        self.append(
            FrameKind::Quarantine,
            epoch,
            mask,
            Payload::Windows(windows),
        )
    }

    fn append(
        &mut self,
        kind: FrameKind,
        epoch: u64,
        txn: u64,
        payload: Payload<'_>,
    ) -> Result<(), DiskError> {
        let len = payload.frame_len() as u64;
        if self.pos + len > self.region_bytes {
            return Err(DiskError::Gone);
        }
        let header = Header {
            gen: self.gen,
            shard: self.shard,
            kind,
            epoch,
            seq: self.seq,
            txn,
        };
        let mut out = SectorStream::new(self);
        wire::write_body(&header, &payload, &mut out);
        let tail = out.seal()?;
        self.pos += len;
        self.seq += 1;
        self.tail = tail;
        Ok(())
    }
}

/// A frame on its way into a shard's sectors: bytes are copied into a
/// working image of the current sector, summed when the sector is
/// complete (a field of a sector or more is summed from its source), and
/// the sector is written (under the retry policy) as soon as it is full;
/// [`SectorStream::seal`] appends the checksum trailer and writes the
/// last, partial sector. It works on a copy of the writer's tail image:
/// on error nothing advances (position, sequence, or cache), so a
/// retried append re-runs from identical state.
struct SectorStream<'w> {
    w: &'w ShardWriter,
    sector: Sector,
    /// Next byte within `sector`.
    off: usize,
    /// Start of the frame's bytes in `sector` not yet summed.
    unsummed: usize,
    lba: u64,
    /// The frame checksum, until the trailer starts.
    sum: Option<Checksum>,
    /// The first sector write that failed; later bytes are dropped.
    failed: Option<DiskError>,
}

impl<'w> SectorStream<'w> {
    fn new(w: &'w ShardWriter) -> Self {
        let off = w.pos as usize % SECTOR_SIZE;
        SectorStream {
            w,
            // A fresh sector starts zeroed: bytes past the stream tail
            // are zeros, which can never decode as a frame.
            sector: if off == 0 { [0u8; SECTOR_SIZE] } else { w.tail },
            off,
            unsummed: off,
            lba: w.base_lba + w.pos / SECTOR_SIZE as u64,
            sum: Some(wire::checksum_stream()),
            failed: None,
        }
    }

    /// Write the working sector to the device, each write individually
    /// riding out transient errors.
    fn write_sector(&mut self) {
        let (disk, sector, lba) = (&*self.w.disk, &self.sector, self.lba);
        if let Err(e) = self
            .w
            .policy
            .run(&self.w.counters, || disk.write(lba, sector))
        {
            self.failed = Some(e);
        }
    }

    /// Sum the trailer-covered bytes, write the trailer and the last
    /// sector. Returns the new tail image.
    fn seal(mut self) -> Result<Sector, DiskError> {
        let mut sum = self.sum.take().expect("sealed once");
        sum.update(&self.sector[self.unsummed..self.off]);
        self.put(&sum.finish().to_le_bytes());
        if self.off > 0 && self.failed.is_none() {
            self.write_sector();
        }
        match self.failed {
            Some(e) => Err(e),
            None => Ok(self.sector),
        }
    }

    /// [`Out::put`] of bytes that fill the working sector. A field
    /// of a sector or more (a write's new bytes) is summed straight from
    /// its source in one piece, after the frame bytes before it.
    #[inline(never)]
    fn put_across(&mut self, mut bytes: &[u8]) {
        let presummed = bytes.len() >= SECTOR_SIZE;
        if let (true, Some(sum)) = (presummed, &mut self.sum) {
            sum.update(&self.sector[self.unsummed..self.off]);
            sum.update(bytes);
        }
        while !bytes.is_empty() && self.failed.is_none() {
            let n = (SECTOR_SIZE - self.off).min(bytes.len());
            self.sector[self.off..self.off + n].copy_from_slice(&bytes[..n]);
            self.off += n;
            bytes = &bytes[n..];
            if self.off == SECTOR_SIZE {
                if let (false, Some(sum)) = (presummed, &mut self.sum) {
                    sum.update(&self.sector[self.unsummed..]);
                }
                self.write_sector();
                self.sector = [0u8; SECTOR_SIZE];
                (self.off, self.unsummed) = (0, 0);
                self.lba += 1;
            }
        }
        if presummed {
            self.unsummed = self.off;
        }
    }
}

impl Out for SectorStream<'_> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        // Most fields land inside the working sector: a fixed-size copy.
        let end = self.off + bytes.len();
        if end < SECTOR_SIZE {
            self.sector[self.off..end].copy_from_slice(bytes);
            self.off = end;
        } else {
            self.put_across(bytes);
        }
    }
}

/// Live health/progress gauges of one shard, for reports and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Bytes appended to this shard's region.
    pub log_bytes: u64,
    /// Highest epoch this shard has durably sealed (0 before the first).
    pub sealed_epoch: u64,
    /// How far the mount's open epoch has run ahead of this shard's
    /// sealed epoch.
    pub epoch_lag: u64,
    /// Device faults charged to this shard.
    pub faults: u64,
    /// Retries charged to this shard.
    pub retries: u64,
    /// Whether this shard's device region has failed permanently. The
    /// shard is *quarantined*: its inode range turns read-only while the
    /// surviving shards keep accepting writes (the whole mount degrades
    /// only when every shard is dead).
    pub dead: bool,
}

/// The always-on (atomic) half of a shard's state, shared with metrics
/// callbacks.
#[derive(Debug, Default)]
pub struct ShardGauges {
    /// Bytes appended (mirrors the writer position; readable without
    /// taking the writer lock).
    pub log_bytes: AtomicU64,
    /// Highest epoch durably sealed on this shard.
    pub sealed_epoch: AtomicU64,
    /// Set when this shard's region dies permanently.
    pub dead: AtomicBool,
}

impl ShardGauges {
    /// Record a successful seal of `epoch` (monotonic).
    pub fn seal(&self, epoch: u64) {
        self.sealed_epoch.fetch_max(epoch, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Disk;
    use crate::wire::decode_frame;
    use atomfs_vfs::FileType;

    fn op(i: u64) -> (u64, MicroOp) {
        (
            i,
            MicroOp::Create {
                ino: 100 + i,
                ftype: FileType::File,
            },
        )
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for ino in 0..1000u64 {
            let s = shard_of(ino, 4);
            assert!(s < 4);
            assert_eq!(s, shard_of(ino, 4), "mapping must be deterministic");
        }
        assert_eq!(shard_of(7, 1), 0, "one shard takes everything");
        // Degenerate configs clamp instead of dividing by zero.
        assert_eq!(shard_of(7, 0), 0);
    }

    #[test]
    fn shard_of_spreads_consecutive_inodes() {
        // The first handful of allocated inodes (2..10) must not all
        // collapse onto one shard, or small trees get zero parallelism.
        let shards: std::collections::HashSet<usize> = (2..10u64).map(|i| shard_of(i, 4)).collect();
        assert!(
            shards.len() >= 3,
            "consecutive inodes clustered onto {shards:?}"
        );
    }

    #[test]
    fn writer_appends_into_its_own_region() {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig::default();
        let mut w = ShardWriter::new(Arc::clone(&disk) as Arc<dyn BlockDevice>, 2, 1, &cfg);
        w.append_frame(FrameKind::Batch, 5, 0, &[op(0), op(1)])
            .unwrap();
        disk.flush();
        // The frame lives at the region base, not at LBA 0.
        let sector = disk.read(cfg.region_base(2));
        let (frame, _) = decode_frame(&sector).expect("frame at region base");
        assert_eq!(frame.shard, 2);
        assert_eq!(frame.epoch, 5);
        assert_eq!(frame.ops.len(), 2);
        assert!(disk.read(0).iter().all(|&b| b == 0), "LBA 0 untouched");
    }

    #[test]
    fn writer_state_does_not_drift_on_failure() {
        use crate::faults::{FaultPlan, FaultyDisk};
        let dev = Arc::new(FaultyDisk::new(
            Arc::new(Disk::new()),
            FaultPlan::none(0).with_permanent_failure_after(1),
        ));
        let cfg = ShardConfig::default();
        let mut w = ShardWriter::new(dev, 0, 1, &cfg);
        w.append_frame(FrameKind::Batch, 1, 0, &[op(0)]).unwrap();
        let before = (w.position(), w.next_seq());
        assert_eq!(
            w.append_frame(FrameKind::Batch, 1, 0, &[op(1)]),
            Err(DiskError::Gone)
        );
        assert_eq!((w.position(), w.next_seq()), before);
    }

    #[test]
    fn full_region_reports_gone() {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig {
            region_sectors: 1,
            ..ShardConfig::default()
        };
        let mut w = ShardWriter::new(disk, 0, 1, &cfg);
        // Frames are ~60 bytes; a 512-byte region fills quickly.
        let mut filled = false;
        for i in 0..20 {
            match w.append_frame(FrameKind::Batch, 1, 0, &[op(i)]) {
                Ok(()) => {}
                Err(e) => {
                    assert_eq!(e, DiskError::Gone);
                    filled = true;
                    break;
                }
            }
        }
        assert!(filled, "a one-sector region never filled");
    }
}
