//! The full stack over the journal: concurrent operations on AtomFS
//! with the CRL-H checker and the sharded, group-committed log both
//! attached to the same trace stream, followed by crashes and
//! recoveries.
//!
//! The composition argument: the checker certifies the in-memory
//! execution linearizable, the log captures the same micro-op order —
//! as per-shard stamped streams that recovery re-merges. These tests
//! pin the properties that make that sound: the merged stream is a
//! contiguous stamp prefix, every rename intent pairs with a seal,
//! parallel recovery equals sequential recovery, a degraded sharded
//! run still produces a checker-accepted trace, and the one-shard
//! layout is the degenerate case of the same protocol.

use std::sync::Arc;

use atomfs_journal::wire::FrameKind;
use atomfs_journal::{
    recover_sharded, recover_sharded_sequential, shard_of, BlockDevice, Disk, FaultPlan,
    FaultyDisk, JournaledFs, ShardConfig,
};
use atomfs_trace::{set_current_tid, Tid, TraceSink};
use atomfs_vfs::{FileSystem, FsError};
use atomfs_workloads::opmix::OpMix;
use crlh::{CheckerConfig, HelperMode, OnlineChecker, RelationCadence};

fn checker() -> Arc<OnlineChecker> {
    Arc::new(OnlineChecker::new(CheckerConfig {
        mode: HelperMode::Helpers,
        relation: RelationCadence::AtUnlock,
        invariants: true,
    }))
}

#[test]
fn concurrent_sharded_run_is_checker_accepted_and_recovers_exactly() {
    for seed in 0..3u64 {
        let cfg = ShardConfig::default();
        let disk = Arc::new(Disk::new());
        let checker = checker();
        let jfs = Arc::new(JournaledFs::create_sharded_observed(
            Arc::clone(&disk) as Arc<dyn BlockDevice>,
            cfg,
            Arc::clone(&checker) as Arc<dyn TraceSink>,
        ));
        let mix = OpMix::default();
        mix.setup(&*jfs);
        let mut handles = Vec::new();
        for t in 0..6u32 {
            let jfs = Arc::clone(&jfs);
            handles.push(std::thread::spawn(move || {
                set_current_tid(Tid(9300 + seed as u32 * 10 + t));
                mix.run(&*jfs, seed * 13 + u64::from(t), 60);
                // Concurrent group commits race concurrent staging.
                if t % 2 == 0 {
                    jfs.sync().expect("perfect disk never degrades");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        jfs.sync().unwrap();
        {
            let sink = jfs.sharded_sink().expect("sharded mount");
            assert!(sink.sealed_epoch() >= 1, "seed {seed}: no epoch sealed");
            assert_eq!(sink.dropped_events(), 0, "seed {seed}: events dropped");
        }
        let final_dirs: Vec<(String, Vec<String>)> = mix
            .dirs()
            .iter()
            .map(|d| {
                let mut names = jfs.readdir(d).unwrap();
                names.sort();
                (d.clone(), names)
            })
            .collect();
        drop(Arc::into_inner(jfs).expect("threads joined"));

        // The concurrent execution over the sharded sink linearizes.
        let report = Arc::into_inner(checker).expect("sole owner").finish();
        report.assert_ok();

        // Clean power cut after a full sync: the per-shard streams merge
        // back into one contiguous stamp prefix with nothing truncated,
        // every rename intent pairs with a seal, and parallel recovery
        // is indistinguishable from sequential.
        disk.crash(|_| false);
        let par = recover_sharded(&disk, &cfg);
        let seq = recover_sharded_sequential(&disk, &cfg);
        assert_eq!(par.ops, seq.ops, "seed {seed}: parallel != sequential");
        assert_eq!(par.truncated_at, None, "seed {seed}: clean log truncated");
        assert_eq!(par.dropped_ops, 0);
        assert!(
            par.pairing.is_clean(),
            "seed {seed}: rename pairing not clean: {:?}",
            par.pairing
        );
        for (i, (stamp, _)) in par.ops.iter().enumerate() {
            assert_eq!(*stamp, i as u64, "seed {seed}: stamp stream has a hole");
        }

        // And the recovered mount serves exactly the synced tree.
        let (recovered, stats) =
            JournaledFs::recover_sharded(Arc::clone(&disk), cfg).expect("recovery never fails");
        assert_eq!(stats.ops_replayed, par.ops.len());
        for (d, names) in &final_dirs {
            let mut rec = recovered.readdir(d).unwrap();
            rec.sort();
            assert_eq!(&rec, names, "seed {seed}: {d} differs after recovery");
        }
    }
}

/// A rename storm on the layout that stands in for a single-stream
/// journal, `ShardConfig::with_shards(1)`: the two-phase rename protocol
/// degenerates — intent and seal land in the same epoch of the *same*
/// stream — but nothing else changes: the trace is checker-accepted, a
/// crash loses exactly the unsynced tail, and the parallel scan (of one
/// region) equals the sequential reference.
#[test]
fn one_shard_rename_storm_pairs_every_intent_inside_the_one_stream() {
    let mix = OpMix {
        dirs: 2,
        names: 3,
        rename_weight: 20,
    };
    for seed in 0..3u64 {
        let cfg = ShardConfig::with_shards(1);
        let disk = Arc::new(Disk::new());
        let checker = checker();
        let jfs = Arc::new(JournaledFs::create_sharded_observed(
            Arc::clone(&disk) as Arc<dyn BlockDevice>,
            cfg,
            Arc::clone(&checker) as Arc<dyn TraceSink>,
        ));
        mix.setup(&*jfs);
        let mut handles = Vec::new();
        for t in 0..6u32 {
            let jfs = Arc::clone(&jfs);
            handles.push(std::thread::spawn(move || {
                set_current_tid(Tid(9600 + seed as u32 * 10 + t));
                // Mid-run syncs spread the renames over several epochs.
                for half in 0..2u64 {
                    mix.run(&*jfs, seed * 17 + u64::from(t) * 2 + half, 40);
                    if t % 2 == 0 {
                        jfs.sync().expect("perfect disk never degrades");
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        jfs.sync().unwrap();
        let acked = jfs.sharded_sink().expect("journal sink").stamps_issued();
        let synced_dirs: Vec<(String, Vec<String>)> = mix
            .dirs()
            .iter()
            .map(|d| {
                let mut names = jfs.readdir(d).unwrap();
                names.sort();
                (d.clone(), names)
            })
            .collect();
        // An unsynced tail the crash must drop.
        jfs.mknod("/m0/tail").unwrap();
        let _ = jfs.rename("/m0/tail", "/m1/tail");
        drop(Arc::into_inner(jfs).expect("threads joined"));

        let report = Arc::into_inner(checker).expect("sole owner").finish();
        report.assert_ok();

        disk.crash(|_| false);
        let par = recover_sharded(&disk, &cfg);
        let seq = recover_sharded_sequential(&disk, &cfg);
        assert_eq!(par.ops, seq.ops, "seed {seed}: parallel != sequential");
        assert_eq!(par.scans.len(), 1, "seed {seed}: one stream");
        // Prefix-exact: the admitted history is stamps 0..acked, whole.
        assert_eq!(par.truncated_at, None, "seed {seed}: clean log truncated");
        assert_eq!(
            par.ops.len() as u64,
            acked,
            "seed {seed}: not the synced prefix"
        );
        for (i, (stamp, _)) in par.ops.iter().enumerate() {
            assert_eq!(*stamp, i as u64, "seed {seed}: stamp stream has a hole");
        }

        // Every intent pairs with its seal inside the one stream: same
        // transaction id, same epoch, same (only) shard, seal after intent.
        assert!(
            par.pairing.is_clean(),
            "seed {seed}: rename pairing not clean: {:?}",
            par.pairing
        );
        let frames = &par.scans[0].frames;
        let mut intents = 0usize;
        for (at, f) in frames.iter().enumerate() {
            if f.kind != FrameKind::RenameIntent {
                continue;
            }
            intents += 1;
            let seal = frames[at..]
                .iter()
                .find(|s| s.kind == FrameKind::RenameSeal && s.txn == f.txn)
                .unwrap_or_else(|| {
                    panic!("seed {seed}: txn {} has no seal behind its intent", f.txn)
                });
            assert_eq!(
                seal.epoch, f.epoch,
                "seed {seed}: txn {} straddles epochs",
                f.txn
            );
            assert_eq!(
                (seal.shard, f.shard),
                (0, 0),
                "seed {seed}: one stream, shard 0"
            );
        }
        assert!(intents > 0, "seed {seed}: the storm renamed nothing");
        assert_eq!(
            par.pairing.sealed.len(),
            intents,
            "seed {seed}: a rename went unpaired"
        );

        let (recovered, stats) =
            JournaledFs::recover_sharded(Arc::clone(&disk), cfg).expect("recovery never fails");
        assert_eq!(stats.ops_replayed as u64, acked);
        for (d, names) in &synced_dirs {
            let mut rec = recovered.readdir(d).unwrap();
            rec.sort();
            assert_eq!(&rec, names, "seed {seed}: {d} differs after recovery");
        }
    }
}

/// One shard's device dies mid-run while the other shards keep their own
/// (healthy) devices. The mount must quarantine exactly the dead shard's
/// inode range — refusing its mutations with `ReadOnly`, reporting the
/// loss on one sync — while every other range keeps accepting and
/// committing, the CRL-H checker accepts the full degraded-run trace,
/// and recovery reproduces the runtime's quarantine verdict exactly.
#[test]
fn one_dead_device_quarantines_its_shard_while_the_mount_and_checker_stay_healthy() {
    for seed in 0..3u64 {
        let cfg = ShardConfig::default();
        let shards = cfg.shard_count();
        let root_shard = shard_of(atomfs_trace::ROOT_INUM, shards);
        // Never kill the root's shard: mknod/mkdir route by parent, so a
        // dead root shard would refuse every create and starve the test.
        let victim = (root_shard + 1 + seed as usize % (shards - 1)) % shards;
        let disk = Arc::new(Disk::new());
        let devices: Vec<Arc<dyn BlockDevice>> = (0..shards)
            .map(|s| {
                if s == victim {
                    Arc::new(FaultyDisk::new(
                        Arc::clone(&disk),
                        FaultPlan::none(seed).with_permanent_failure_after(3 + seed),
                    )) as Arc<dyn BlockDevice>
                } else {
                    Arc::clone(&disk) as Arc<dyn BlockDevice>
                }
            })
            .collect();
        let checker = checker();
        let jfs = JournaledFs::create_sharded_observed_with_devices(
            devices,
            cfg,
            Arc::clone(&checker) as Arc<dyn TraceSink>,
        );
        // Creates route by parent (root, live); each file's writes route
        // by its own inode, so ~1/shards of them land on the victim.
        let mut refused = 0usize;
        let mut accepted_after_refusal = 0usize;
        let mut loss_reported = false;
        for i in 0..300usize {
            let f = format!("/f{i}");
            let r = jfs
                .mknod(&f)
                .and_then(|()| jfs.write(&f, 0, &[i as u8; 16]).map(|_| ()));
            match r {
                Err(FsError::ReadOnly) => refused += 1,
                Err(e) => panic!("seed {seed}: unexpected error {e:?} at op {i}"),
                Ok(()) if refused > 0 => accepted_after_refusal += 1,
                Ok(()) => {}
            }
            if i % 5 == 4 && jfs.sync().is_err() {
                loss_reported = true;
            }
        }
        if jfs.sync().is_err() {
            loss_reported = true;
        }
        assert!(loss_reported, "seed {seed}: no sync ever reported the loss");
        assert!(refused > 0, "seed {seed}: the dead range never refused a write");
        assert!(
            accepted_after_refusal > 0,
            "seed {seed}: live ranges stopped accepting after the quarantine"
        );
        assert!(
            !jfs.health().is_degraded(),
            "seed {seed}: one dead shard degraded the whole mount"
        );
        let (quarantined, windows) = {
            let sink = jfs.sharded_sink().expect("sharded mount");
            assert_eq!(sink.quarantine_count(), 1, "seed {seed}: quarantine count");
            (sink.quarantined_shards(), sink.lost_stamp_windows())
        };
        assert_eq!(quarantined, vec![victim], "seed {seed}: wrong shard quarantined");
        // Survivors still commit durably after the loss was reported once.
        jfs.mkdir("/still-alive").unwrap();
        jfs.sync()
            .unwrap_or_else(|e| panic!("seed {seed}: post-quarantine sync failed: {e:?}"));
        drop(jfs);

        // The gated run linearizes: refusals happen before AtomFS mutates,
        // so the checker saw exactly the admitted history.
        let report = Arc::into_inner(checker).expect("sole owner").finish();
        report.assert_ok();

        // Clean power cut: recovery must reproduce the runtime verdict —
        // same quarantined shard, same lost-stamp windows — and replay
        // everything the survivors acknowledged.
        disk.crash(|_| false);
        let par = recover_sharded(&disk, &cfg);
        let seq = recover_sharded_sequential(&disk, &cfg);
        assert_eq!(par.ops, seq.ops, "seed {seed}: parallel != sequential");
        assert_eq!(
            par.quarantined_shards(),
            vec![victim],
            "seed {seed}: recovery quarantine verdict"
        );
        assert_eq!(
            par.lost_windows, windows,
            "seed {seed}: recovery windows != runtime windows"
        );
        let (recovered, stats) =
            JournaledFs::recover_sharded(Arc::clone(&disk), cfg).expect("recovery never fails");
        // Windows bound the loss; they need not be fully spent — a failed
        // slice can still be partially durable, and found stamps replay.
        let window_width: u64 = windows.iter().map(|&(lo, hi)| hi - lo).sum();
        assert_eq!(stats.lost_ops, par.lost_ops, "seed {seed}: loss accounting diverges");
        assert!(
            stats.lost_ops as u64 <= window_width,
            "seed {seed}: lost more ops ({}) than the quarantine windows license ({window_width})",
            stats.lost_ops
        );
        let mut root_names = recovered.readdir("/").unwrap();
        root_names.sort();
        assert!(
            root_names.iter().any(|n| n == "still-alive"),
            "seed {seed}: an acknowledged post-quarantine commit was lost"
        );
    }
}

#[test]
fn degraded_sharded_run_still_produces_a_checker_accepted_trace() {
    for seed in 0..3u64 {
        let disk = Arc::new(Disk::new());
        let dev = Arc::new(FaultyDisk::new(
            Arc::clone(&disk),
            FaultPlan::none(seed).with_permanent_failure_after(40 + seed * 11),
        ));
        let checker = checker();
        let jfs = JournaledFs::create_sharded_observed(
            dev,
            ShardConfig::default(),
            Arc::clone(&checker) as Arc<dyn TraceSink>,
        );
        // Unique paths per iteration: every loop round actually mutates
        // (and every fourth one syncs), so device traffic accumulates
        // until the fault budget is exhausted mid-run.
        let mut degraded = false;
        for i in 0..400usize {
            let f = format!("/f{i}");
            let r = jfs
                .mknod(&f)
                .and_then(|()| jfs.write(&f, 0, &[i as u8; 32]).map(|_| ()))
                .and_then(|()| match i % 3 {
                    0 => jfs.rename(&f, &format!("/g{i}")),
                    1 => jfs.unlink(&f),
                    _ => Ok(()),
                })
                .and_then(|()| if i % 4 == 0 { jfs.sync() } else { Ok(()) });
            if matches!(r, Err(FsError::ReadOnly) | Err(FsError::Io)) {
                degraded = true;
            }
        }
        assert!(degraded, "seed {seed}: the device never died");
        assert!(jfs.health().is_degraded());
        // Degraded-mode gating refuses mutations before AtomFS, so the
        // trace the checker saw is exactly the mutations that happened —
        // including any rename whose intent/seal never made it to disk.
        drop(jfs);
        let report = Arc::into_inner(checker).expect("sole owner").finish();
        report.assert_ok();
    }
}
