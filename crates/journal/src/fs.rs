//! The journaled file system: AtomFS over an operation log.
//!
//! [`JournaledFs`] wires an instrumented [`AtomFs`] to a
//! [`ShardedJournalSink`] through its trace sink: every inode-granularity
//! mutation the file system performs is staged for the log in the global
//! mutation order (the same order the CRL-H shadow state replays, so the
//! log always replays cleanly). `sync()` is the durability barrier — it
//! group-commits the open epoch across every shard.
//!
//! The write path is fallible: when the device defeats the journal's
//! retry policy on every shard the mount flips to read-only **degraded
//! mode** — reads keep serving from the in-memory AtomFS, mutations
//! return [`FsError::ReadOnly`] *before* touching AtomFS (so the trace
//! the CRL-H checker sees stays exactly the trace of the mutations that
//! happened), and `sync()` reports the failure so callers never treat
//! non-durable data as acked. [`JournaledFs::health`] exposes the state.
//!
//! [`JournaledFs::recover_sharded`] implements the crash path: scan the
//! log, replay the surviving prefix into an abstract state, and
//! *materialize* that state through a fresh instrumented AtomFS — whose
//! mutations, logged under a higher generation, become the new
//! generation's checkpoint. Recovery therefore doubles as log compaction.

use std::sync::Arc;

use atomfs::AtomFs;
use atomfs_trace::{Event, FanoutSink, MicroOp, TraceSink};
use atomfs_vfs::fs::FileSystemExt;
use atomfs_vfs::{FileSystem, FsError, FsResult, Metadata};

use crate::device::{BlockDevice, Disk};
use crate::group_commit::ShardedJournalSink;
use crate::health::{Health, HealthReport, RecoverySummary};
use crate::recovery::{SkipTotals, SkippedRecord};
use crate::shard::ShardConfig;

/// Statistics from a recovery.
#[derive(Debug, Clone)]
pub struct RecoveryStats {
    /// Log generation recovered from.
    pub epoch: u64,
    /// Mutations replayed.
    pub ops_replayed: usize,
    /// Bytes of valid log scanned.
    pub log_bytes: u64,
    /// Live inodes in the recovered tree (including the root).
    pub inodes: usize,
    /// Records past the replayed prefix that the recovery scrub refused,
    /// itemized with offset and classification (empty for a clean log).
    /// Itemization is capped by the scrub budget; `skip_totals` counts
    /// past the cap.
    pub skipped: Vec<SkippedRecord>,
    /// Complete per-class census of everything the scrub refused —
    /// cap-independent, so a heavily damaged region cannot undercount.
    pub skip_totals: SkipTotals,
    /// Stamps skipped under the license of recovered quarantine windows:
    /// mutations known lost with a dead shard (always 0 for a run that
    /// saw no quarantine).
    pub lost_ops: usize,
    /// Admitted ops the tolerant replay had to skip because a lost
    /// window orphaned them (e.g. a link whose target's creation died
    /// with the dead shard). Always 0 when `lost_ops` is 0 — a clean log
    /// replays strictly.
    pub unreplayable_ops: usize,
}

impl RecoveryStats {
    /// The `Copy` digest of these stats that [`HealthReport`] carries.
    /// Built from the cap-independent census, so the digest stays honest
    /// even when the itemized list overflowed its budget.
    pub fn summary(&self) -> RecoverySummary {
        RecoverySummary::from_totals(self.epoch, self.ops_replayed as u64, &self.skip_totals)
    }
}

/// AtomFS with an operation log under it.
pub struct JournaledFs {
    fs: Arc<AtomFs>,
    pub(crate) sink: Arc<ShardedJournalSink>,
}

impl JournaledFs {
    /// Format `device` with a fresh sharded (generation-1) log laid out
    /// per `cfg` and mount an empty file system over it. Writers stage
    /// into per-shard buffers; [`FileSystem::sync`] group-commits an
    /// epoch across every shard.
    pub fn create_sharded(device: Arc<dyn BlockDevice>, cfg: ShardConfig) -> Self {
        Self::with_sharded(ShardedJournalSink::new(device, cfg), None)
    }

    /// [`JournaledFs::create_sharded`] plus an extra trace sink observing
    /// the same event stream (checker observation of sharded mounts).
    pub fn create_sharded_observed(
        device: Arc<dyn BlockDevice>,
        cfg: ShardConfig,
        observer: Arc<dyn TraceSink>,
    ) -> Self {
        Self::with_sharded(ShardedJournalSink::new(device, cfg), Some(observer))
    }

    /// [`JournaledFs::create_sharded`] with one device per shard —
    /// distinct fault domains, so a failure confined to one device
    /// quarantines only that shard's inode range instead of degrading
    /// the whole mount. `devices.len()` must equal `cfg`'s shard count.
    pub fn create_sharded_with_devices(
        devices: Vec<Arc<dyn BlockDevice>>,
        cfg: ShardConfig,
    ) -> Self {
        Self::with_sharded(ShardedJournalSink::with_devices(devices, cfg), None)
    }

    /// [`JournaledFs::create_sharded_with_devices`] plus an extra trace
    /// sink observing the same event stream.
    pub fn create_sharded_observed_with_devices(
        devices: Vec<Arc<dyn BlockDevice>>,
        cfg: ShardConfig,
        observer: Arc<dyn TraceSink>,
    ) -> Self {
        Self::with_sharded(
            ShardedJournalSink::with_devices(devices, cfg),
            Some(observer),
        )
    }

    fn with_sharded(sink: ShardedJournalSink, observer: Option<Arc<dyn TraceSink>>) -> Self {
        let sink = Arc::new(sink);
        let journal = Arc::clone(&sink) as Arc<dyn TraceSink>;
        let tap: Arc<dyn TraceSink> = match observer {
            None => journal,
            Some(observer) => Arc::new(FanoutSink(vec![journal, observer])),
        };
        JournaledFs {
            fs: Arc::new(AtomFs::traced(tap)),
            sink,
        }
    }

    /// Recover after a crash: scan every shard region (in parallel),
    /// pair rename intents with their seals, replay the surviving
    /// global-stamp prefix, and mount a file system with that content,
    /// checkpointing it into a new log generation (committed before this
    /// returns). The checkpoint commit is *forced*, so every shard
    /// carries at least an `EpochSeal` frame of the new generation —
    /// which is how the next recovery detects that older-generation
    /// frames are stale.
    ///
    /// Fails with [`FsError::InvalidArgument`] only if the surviving
    /// prefix does not replay — which the stamp order makes impossible
    /// for logs this crate wrote, so it indicates a foreign or tampered
    /// disk.
    pub fn recover_sharded(disk: Arc<Disk>, cfg: ShardConfig) -> FsResult<(Self, RecoveryStats)> {
        let device = Arc::clone(&disk) as Arc<dyn BlockDevice>;
        Self::recover_sharded_with(disk, device, cfg)
    }

    /// [`JournaledFs::recover_sharded`] writing the new generation's
    /// checkpoint through `device` (which may be fault-injected). The
    /// *scan* always reads the raw platter: recovery models a fresh
    /// power session, so the previous session's fault plan is gone while
    /// the corruption it left behind is exactly what the scrub reports.
    ///
    /// If the device defeats the checkpoint, the mount comes up already
    /// degraded — readable, refusing mutations, acking nothing — rather
    /// than failing the recovery.
    pub fn recover_sharded_with(
        disk: Arc<Disk>,
        device: Arc<dyn BlockDevice>,
        cfg: ShardConfig,
    ) -> FsResult<(Self, RecoveryStats)> {
        let recovered = crate::recovery::recover_sharded(&disk, &cfg);
        // A log with recovered quarantine windows is *expected* to have
        // holes the strict replay rejects (ops orphaned by the recorded
        // loss): replay tolerantly, counting the skips. A log without
        // windows keeps the strict contract — any replay failure there
        // still indicates a foreign or tampered disk.
        let (state, unreplayable_ops) = if recovered.lost_windows.is_empty() {
            (recovered.replay().map_err(|_| FsError::InvalidArgument)?, 0)
        } else {
            recovered.replay_tolerant()
        };
        let stats = RecoveryStats {
            epoch: recovered.gen as u64,
            ops_replayed: recovered.ops.len() - unreplayable_ops,
            log_bytes: recovered.log_bytes(),
            inodes: state.map.len(),
            skipped: recovered.skipped(),
            skip_totals: recovered.skip_totals(),
            lost_ops: recovered.lost_ops,
            unreplayable_ops,
        };
        let sink = ShardedJournalSink::with_gen(device, cfg, recovered.gen + 1);
        sink.set_recovery(stats.summary());
        let journaled = Self::with_sharded(sink, None);
        materialize(&*journaled.fs, &state)?;
        // Forced checkpoint barrier: every shard gets a frame of the new
        // generation. On failure the sink has already degraded: the
        // mount is served from memory and acks nothing.
        let _ = journaled.sink.commit(true);
        Ok((journaled, stats))
    }

    /// The live file system.
    pub fn fs(&self) -> &Arc<AtomFs> {
        &self.fs
    }

    /// The journal sink under the mount (for health inspection and
    /// per-shard reports). Always `Some`.
    pub fn sharded_sink(&self) -> Option<&Arc<ShardedJournalSink>> {
        Some(&self.sink)
    }

    /// Current storage health of the mount.
    pub fn health(&self) -> Health {
        self.sink.health()
    }

    /// Health plus fault/retry counters.
    pub fn health_report(&self) -> HealthReport {
        self.sink.health_report()
    }

    /// Bytes in the current log generation, summed over shards.
    pub fn log_bytes(&self) -> u64 {
        self.sink.log_bytes()
    }

    /// Refuse mutations on a degraded mount *before* they reach AtomFS,
    /// so the in-memory tree (and the trace the checker replays) only
    /// ever contains mutations the journal accepted for logging.
    fn guard_writable(&self) -> FsResult<()> {
        if self.sink.is_degraded() {
            return Err(FsError::ReadOnly);
        }
        Ok(())
    }
}

impl FileSystem for JournaledFs {
    fn name(&self) -> &'static str {
        "atomfs-journaled"
    }
    fn mknod(&self, path: &str) -> FsResult<()> {
        self.guard_writable()?;
        self.fs.mknod(path)
    }
    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.guard_writable()?;
        self.fs.mkdir(path)
    }
    fn unlink(&self, path: &str) -> FsResult<()> {
        self.guard_writable()?;
        self.fs.unlink(path)
    }
    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.guard_writable()?;
        self.fs.rmdir(path)
    }
    fn rename(&self, src: &str, dst: &str) -> FsResult<()> {
        self.guard_writable()?;
        self.fs.rename(src, dst)
    }
    fn stat(&self, path: &str) -> FsResult<Metadata> {
        self.fs.stat(path)
    }
    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        self.fs.readdir(path)
    }
    fn read(&self, path: &str, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.fs.read(path, offset, buf)
    }
    fn write(&self, path: &str, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.guard_writable()?;
        self.fs.write(path, offset, data)
    }
    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        self.guard_writable()?;
        self.fs.truncate(path, size)
    }
    /// The durability barrier: everything before this call survives a
    /// crash; everything after may be lost (but never torn — recovery
    /// yields a prefix). Exhausted retries surface as [`FsError::Io`]
    /// and flip the mount to degraded mode.
    fn sync(&self) -> FsResult<()> {
        self.sink.sync().map_err(FsError::from)
    }
}

/// Rebuild a live file system from an abstract state: create every
/// directory and file and write every file's contents, parents before
/// children. Iterative (an explicit worklist), so a pathologically deep
/// recovered tree cannot overflow the stack.
pub fn materialize(fs: &dyn FileSystem, state: &crlh::FsState) -> FsResult<()> {
    let mut work: Vec<(atomfs_trace::Inum, String)> = Vec::new();
    match state.node(state.root) {
        Some(crlh::Node::Dir(_)) => work.push((state.root, "/".to_string())),
        _ => return Err(FsError::NotDir),
    }
    while let Some((id, path)) = work.pop() {
        let entries = match state.node(id) {
            Some(crlh::Node::Dir(entries)) => entries,
            _ => return Err(FsError::NotDir),
        };
        for (name, child) in entries {
            let child_path = atomfs_vfs::path::join(&path, name);
            match state.node(*child) {
                Some(crlh::Node::Dir(_)) => {
                    // mkdir now, descend later: every directory exists
                    // before anything is created inside it.
                    fs.mkdir(&child_path)?;
                    work.push((*child, child_path));
                }
                Some(crlh::Node::File(data)) => {
                    fs.write_file(&child_path, data)?;
                }
                None => return Err(FsError::InvalidArgument),
            }
        }
    }
    Ok(())
}

/// Extract just the mutation stream from a recorded trace (used by the
/// crash-consistency tests).
pub fn mutations_of(events: &[Event]) -> Vec<MicroOp> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Mutate { mop, .. } => Some(mop.clone()),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SECTOR_SIZE;
    use crate::faults::{FaultPlan, FaultyDisk};

    /// Every mount-level behaviour is pinned at one stream and at the
    /// default fan-out.
    const SHARD_COUNTS: [usize; 2] = [1, 4];

    fn fresh(shards: usize) -> (Arc<Disk>, ShardConfig, JournaledFs) {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig::with_shards(shards);
        let jfs = JournaledFs::create_sharded(Arc::clone(&disk) as Arc<dyn BlockDevice>, cfg);
        (disk, cfg, jfs)
    }

    #[test]
    fn create_sync_recover_roundtrip_and_generations_increase() {
        for shards in SHARD_COUNTS {
            let (disk, cfg, jfs) = fresh(shards);
            jfs.mkdir("/docs").unwrap();
            jfs.mknod("/docs/a").unwrap();
            jfs.write("/docs/a", 0, b"durable").unwrap();
            jfs.rename("/docs/a", "/a").unwrap();
            jfs.sync().unwrap();
            assert!(jfs.sink.sealed_epoch() >= 1, "sync seals an epoch");
            drop(jfs);
            // Clean power cut after sync: everything survives.
            disk.crash(|_| false);
            let (r, stats) = JournaledFs::recover_sharded(Arc::clone(&disk), cfg).unwrap();
            assert_eq!(r.read_to_vec("/a").unwrap(), b"durable");
            assert_eq!(r.stat("/docs/a"), Err(FsError::NotFound));
            assert_eq!(stats.epoch, 1);
            assert!(stats.ops_replayed >= 4);
            assert!(stats.inodes >= 3);
            assert!(stats.skipped.is_empty());
            // Second-generation mount keeps working and re-recovers.
            r.mkdir("/gen2").unwrap();
            r.sync().unwrap();
            drop(r);
            disk.crash(|_| false);
            let (r2, s2) = JournaledFs::recover_sharded(disk, cfg).unwrap();
            assert_eq!(s2.epoch, 2, "checkpoint bumped the generation");
            assert!(r2.stat("/a").is_ok());
            assert!(r2.stat("/gen2").is_ok());
        }
    }

    #[test]
    fn unsynced_tail_is_lost_cleanly() {
        for shards in SHARD_COUNTS {
            let (disk, cfg, jfs) = fresh(shards);
            jfs.mkdir("/kept").unwrap();
            jfs.sync().unwrap();
            jfs.mkdir("/lost").unwrap();
            drop(jfs);
            disk.crash(|_| false);
            let (r, _) = JournaledFs::recover_sharded(disk, cfg).unwrap();
            assert!(r.stat("/kept").is_ok());
            assert_eq!(r.stat("/lost"), Err(FsError::NotFound));
        }
    }

    #[test]
    fn recovery_checkpoint_compacts_the_log() {
        for shards in SHARD_COUNTS {
            let (disk, cfg, jfs) = fresh(shards);
            jfs.mknod("/f").unwrap();
            // Lots of history on one file...
            for i in 0..200 {
                jfs.write("/f", 0, &[i as u8; 64]).unwrap();
            }
            jfs.sync().unwrap();
            let history_bytes = jfs.log_bytes();
            drop(jfs);
            let (r, _) = JournaledFs::recover_sharded(Arc::clone(&disk), cfg).unwrap();
            // ...compacts to a checkpoint holding only the final state.
            assert!(
                r.log_bytes() < history_bytes / 4,
                "checkpoint {} should be much smaller than history {}",
                r.log_bytes(),
                history_bytes
            );
            let mut buf = [0u8; 64];
            r.read("/f", 0, &mut buf).unwrap();
            assert_eq!(buf, [199u8; 64]);
        }
    }

    #[test]
    fn materialize_roundtrips_arbitrary_state() {
        use atomfs_trace::MicroOp;
        use atomfs_vfs::FileType;
        let mut state = crlh::FsState::new();
        for (i, (name, ftype)) in [("d", FileType::Dir), ("f", FileType::File)]
            .iter()
            .enumerate()
        {
            let ino = 10 + i as u64;
            state
                .apply_micro(&MicroOp::Create { ino, ftype: *ftype })
                .unwrap();
            state
                .apply_micro(&MicroOp::Ins {
                    parent: atomfs_trace::ROOT_INUM,
                    name: (*name).into(),
                    child: ino,
                })
                .unwrap();
        }
        state
            .apply_micro(&MicroOp::SetData {
                ino: 11,
                old: vec![],
                new: b"payload".to_vec(),
            })
            .unwrap();
        let fs = AtomFs::new();
        materialize(&fs, &state).unwrap();
        assert!(fs.stat("/d").unwrap().ftype.is_dir());
        assert_eq!(fs.read_to_vec("/f").unwrap(), b"payload");
    }

    /// Fresh-disk recovery mounts an empty file system.
    #[test]
    fn recover_empty_disk() {
        for shards in SHARD_COUNTS {
            let disk = Arc::new(Disk::new());
            let (r, stats) =
                JournaledFs::recover_sharded(disk, ShardConfig::with_shards(shards)).unwrap();
            assert_eq!(stats.ops_replayed, 0);
            assert!(r.readdir("/").unwrap().is_empty());
            r.mkdir("/works").unwrap();
        }
    }

    #[test]
    fn dead_device_degrades_the_mount_instead_of_panicking() {
        for shards in SHARD_COUNTS {
            let disk = Arc::new(Disk::new());
            let dev = Arc::new(FaultyDisk::new(
                Arc::clone(&disk),
                FaultPlan::none(0).with_permanent_failure_after(6),
            ));
            let jfs = JournaledFs::create_sharded(dev, ShardConfig::with_shards(shards));
            assert_eq!(jfs.health_report().degraded_flips, 0);
            // Mutate and commit until the device dies under the journal.
            let mut hit_degraded = false;
            for i in 0..200 {
                match jfs.mknod(&format!("/f{i}")).and_then(|_| jfs.sync()) {
                    Ok(()) => {}
                    Err(FsError::ReadOnly) | Err(FsError::Io) => {
                        hit_degraded = true;
                        break;
                    }
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
            assert!(hit_degraded, "the mount never degraded");
            assert!(jfs.health().is_degraded());
            // Reads still serve from memory; /f0 was created pre-failure.
            assert!(jfs.stat("/f0").is_ok());
            assert!(jfs.readdir("/").is_ok());
            // Every mutating op is refused.
            assert_eq!(jfs.mkdir("/d"), Err(FsError::ReadOnly));
            assert_eq!(jfs.write("/f0", 0, b"x"), Err(FsError::ReadOnly));
            assert_eq!(jfs.truncate("/f0", 0), Err(FsError::ReadOnly));
            assert_eq!(jfs.unlink("/f0"), Err(FsError::ReadOnly));
            assert_eq!(jfs.rename("/f0", "/f1"), Err(FsError::ReadOnly));
            // And sync refuses to ack anything, with the EIO mapping.
            assert_eq!(jfs.sync(), Err(FsError::Io));
            let report = jfs.health_report();
            assert!(report.health.is_degraded());
            assert_eq!(report.dropped_events, 0, "gating beat the sink to it");
            // Several shards and several syncs failed, but the
            // healthy→degraded transition is counted once.
            assert_eq!(report.degraded_flips, 1);
        }
    }

    #[test]
    fn recovery_onto_a_dead_device_comes_up_degraded_but_readable() {
        for shards in SHARD_COUNTS {
            let (disk, cfg, jfs) = fresh(shards);
            jfs.mkdir("/survives").unwrap();
            jfs.sync().unwrap();
            drop(jfs);
            disk.crash(|_| false);
            // The replacement controller is dead on arrival.
            let dev = Arc::new(FaultyDisk::new(
                Arc::clone(&disk),
                FaultPlan::none(0).with_permanent_failure_after(0),
            ));
            let (r, stats) = JournaledFs::recover_sharded_with(disk, dev, cfg).unwrap();
            assert!(stats.ops_replayed >= 1);
            assert!(r.health().is_degraded(), "checkpoint failure must degrade");
            assert!(r.stat("/survives").is_ok(), "reads still serve from memory");
            assert_eq!(r.mkdir("/new"), Err(FsError::ReadOnly));
            assert_eq!(r.sync(), Err(FsError::Io));
        }
    }

    #[test]
    fn health_report_carries_recovery_breakdown() {
        for shards in SHARD_COUNTS {
            let (disk, cfg, jfs) = fresh(shards);
            // A fresh mount was not produced by recovery.
            assert_eq!(jfs.health_report().recovery, None);
            for i in 0..5 {
                jfs.mknod(&format!("/f{i}")).unwrap();
            }
            jfs.sync().unwrap();
            let victim = jfs
                .sink
                .shard_reports()
                .into_iter()
                .find(|r| r.log_bytes > 0)
                .expect("the sync wrote somewhere");
            drop(jfs);
            disk.crash(|_| false);
            // Bit-rot the last few bytes of one shard's stream: the scrub
            // classifies its final frame as corrupt and recovery proceeds
            // with the prefix.
            let byte = cfg.region_base(victim.shard) as usize * SECTOR_SIZE
                + victim.log_bytes as usize
                - 10;
            disk.corrupt_durable((byte / SECTOR_SIZE) as u64, byte % SECTOR_SIZE, 0x40);
            let (r, stats) = JournaledFs::recover_sharded(Arc::clone(&disk), cfg).unwrap();
            assert!(!stats.skipped.is_empty(), "corruption was not detected");
            let report = r.health_report();
            let summary = report.recovery.expect("recovered mount carries summary");
            assert_eq!(summary, stats.summary(), "report and stats agree");
            assert_eq!(summary.epoch, stats.epoch);
            assert_eq!(summary.ops_replayed, stats.ops_replayed as u64);
            assert_eq!(summary.skipped_total, stats.skipped.len() as u64);
            // The per-class counts partition the total.
            assert_eq!(
                summary.torn
                    + summary.checksum_mismatch
                    + summary.stale_epoch
                    + summary.orphaned
                    + summary.garbage,
                summary.skipped_total
            );
            assert!(summary.checksum_mismatch >= 1, "bit rot shows in its class");
        }
    }

    #[test]
    fn sharded_mount_spreads_load_and_reports_per_shard() {
        let (_disk, _cfg, jfs) = fresh(4);
        for i in 0..32 {
            jfs.mkdir(&format!("/d{i}")).unwrap();
            jfs.mknod(&format!("/d{i}/f")).unwrap();
        }
        jfs.sync().unwrap();
        let reports = jfs.sink.shard_reports();
        assert_eq!(reports.len(), 4);
        let busy = reports.iter().filter(|r| r.log_bytes > 0).count();
        assert!(busy >= 2, "files under distinct parents hit >1 shard");
        assert_eq!(jfs.log_bytes(), reports.iter().map(|r| r.log_bytes).sum());
    }

    #[test]
    fn transient_faults_stay_healthy_and_durable() {
        for shards in SHARD_COUNTS {
            let disk = Arc::new(Disk::new());
            let dev = Arc::new(FaultyDisk::new(
                Arc::clone(&disk),
                FaultPlan::none(5).with_transient(6_000, 6_000, 6_000),
            ));
            let cfg = ShardConfig::with_shards(shards);
            let jfs = JournaledFs::create_sharded(dev, cfg);
            for i in 0..40 {
                jfs.mknod(&format!("/f{i}")).unwrap();
                if i % 4 == 3 {
                    jfs.sync().unwrap();
                }
            }
            assert_eq!(jfs.health(), Health::Healthy);
            assert!(
                jfs.health_report().retries > 0,
                "a ~9% fault rate should have forced retries"
            );
            drop(jfs);
            disk.crash(|_| false);
            let (r, _) = JournaledFs::recover_sharded(disk, cfg).unwrap();
            for i in 0..40 {
                assert!(r.stat(&format!("/f{i}")).is_ok(), "/f{i} was acked");
            }
        }
    }

    #[test]
    fn one_block_overwrites_log_about_one_byte_per_user_byte() {
        const BLOCK: usize = 4096;
        for shards in SHARD_COUNTS {
            let (_disk, _cfg, jfs) = fresh(shards);
            for i in 0..16 {
                jfs.mknod(&format!("/f{i}")).unwrap();
                jfs.write(&format!("/f{i}"), 0, &[0xA5; BLOCK]).unwrap();
            }
            jfs.sync().unwrap();
            let before = jfs.log_bytes();
            let mut user = 0u64;
            for round in 0..4u8 {
                for i in 0..16 {
                    jfs.write(&format!("/f{i}"), 0, &[round; BLOCK]).unwrap();
                    user += BLOCK as u64;
                }
                jfs.sync().unwrap();
            }
            let ratio = (jfs.log_bytes() - before) as f64 / user as f64;
            assert!(
                ratio <= 1.15,
                "{shards} shard(s): {ratio:.3} log bytes per user byte"
            );
        }
    }

    /// A correctly checksummed `Batch` on shard 0: create and link `/f`,
    /// then at stamp `write_at` a redo write whose recorded old contents
    /// are not what the file holds.
    fn log_write_over_wrong_base(disk: &Arc<Disk>, cfg: &ShardConfig, write_at: u64) {
        use crate::shard::ShardWriter;
        use crate::wire::FrameKind;
        use atomfs_trace::MicroOp;
        use atomfs_vfs::FileType;
        let device = Arc::clone(disk) as Arc<dyn BlockDevice>;
        let mut w = ShardWriter::new(device, 0, 1, cfg);
        let ops = [
            (
                0,
                MicroOp::Create {
                    ino: 5,
                    ftype: FileType::File,
                },
            ),
            (
                1,
                MicroOp::Ins {
                    parent: atomfs_trace::ROOT_INUM,
                    name: "f".into(),
                    child: 5,
                },
            ),
            (
                write_at,
                MicroOp::SetData {
                    ino: 5,
                    old: b"not what the file holds".to_vec(),
                    new: b"forged".to_vec(),
                },
            ),
        ];
        w.append_frame(FrameKind::Batch, 1, 0, &ops).unwrap();
        if write_at > 2 {
            // The stamps between died with shard 1, and the log says so.
            w.append_quarantine(1, 1 << 1, &[(2, write_at)]).unwrap();
        }
        Disk::flush(disk);
    }

    #[test]
    fn redo_write_over_a_mismatched_base_is_refused() {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig::default();
        log_write_over_wrong_base(&disk, &cfg, 2);
        assert!(crate::recovery::recover_sharded(&disk, &cfg)
            .replay()
            .is_err());
        assert!(matches!(
            JournaledFs::recover_sharded(disk, cfg),
            Err(FsError::InvalidArgument)
        ));
    }

    #[test]
    fn redo_write_over_a_mismatched_base_is_skipped_under_a_lost_window() {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig::default();
        log_write_over_wrong_base(&disk, &cfg, 3);
        let (r, stats) = JournaledFs::recover_sharded(disk, cfg).unwrap();
        assert_eq!(stats.lost_ops, 1);
        assert_eq!(
            stats.unreplayable_ops, 1,
            "the write is skipped and counted"
        );
        assert_eq!(stats.ops_replayed, 2);
        assert_eq!(
            r.read_to_vec("/f").unwrap(),
            b"",
            "its new bytes are not installed"
        );
    }
}
