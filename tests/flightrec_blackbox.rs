//! The black-box acceptance path: a fault storm that quarantines one
//! journal shard must leave behind a flight-recorder dump whose spans
//! causally cover the failing operation — sampled op roots, the shard
//! appends they caused (each stamped and shard-attributed), the epoch
//! slice / flush that failed on the dead device under its group-commit
//! parent, and the quarantine trigger instant — and whose shard, epoch,
//! and stamp attributions agree with what recovery later reports about
//! the same disk.
//!
//! Under `obs-off` all of this is compiled out (see `obs_off_chain.rs`),
//! so the whole file is gated.

#![cfg(not(feature = "obs-off"))]

use std::collections::HashSet;
use std::sync::Arc;

use atomfs_journal::{
    recover_sharded, register_sharded_journal_metrics, shard_of, BlockDevice, Disk, FaultPlan,
    FaultyDisk, JournaledFs, ShardConfig,
};
use atomfs_obs::span::{set_sampling, DEFAULT_SPAN_SAMPLE, NO_SHARD, NO_U64};
use atomfs_obs::{Registry, SpanKind, TriggerCause};
use atomfs_trace::{BufferSink, TraceSink};
use atomfs_vfs::FileSystem;
use crlh::{CheckerConfig, HelperMode, LpChecker, RelationCadence};

#[test]
fn quarantine_dump_causally_covers_the_failing_op() {
    // Record every operation: the dump must show the op that hit the
    // fault, not a 1-in-64 sample that may have missed it.
    set_sampling(1);
    let _ = atomfs_obs::dump::drain();

    let seed = 1u64;
    let cfg = ShardConfig::default();
    let shards = cfg.shard_count();
    let root_shard = shard_of(atomfs_trace::ROOT_INUM, shards);
    // Never kill the root's shard: creates route by parent, and a dead
    // root shard would refuse every create and starve the storm.
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
    let check_cfg = CheckerConfig {
        mode: HelperMode::Helpers,
        relation: RelationCadence::AtUnlock,
        invariants: true,
    };
    let sink = Arc::new(BufferSink::new());
    let jfs = JournaledFs::create_sharded_observed_with_devices(
        devices,
        cfg,
        Arc::clone(&sink) as Arc<dyn TraceSink>,
    );
    // Attach a registry carrying the journal gauges so the dump embeds a
    // metrics snapshot alongside the spans.
    let registry = Arc::new(Registry::new());
    register_sharded_journal_metrics(&registry, jfs.sharded_sink().expect("sharded mount"));
    atomfs_obs::dump::set_registry(&registry);

    // The storm: creates route by parent (root, live); each file's
    // writes route by its own inode, so ~1/shards land on the victim.
    let mut loss_reported = false;
    for i in 0..300usize {
        let f = format!("/f{i}");
        let _ = jfs
            .mknod(&f)
            .and_then(|()| jfs.write(&f, 0, &[i as u8; 16]).map(|_| ()));
        if i % 5 == 4 && jfs.sync().is_err() {
            loss_reported = true;
        }
    }
    if jfs.sync().is_err() {
        loss_reported = true;
    }
    set_sampling(DEFAULT_SPAN_SAMPLE);
    assert!(loss_reported, "no sync ever reported the loss");
    let (quarantined, windows, sealed_final) = {
        let sink = jfs.sharded_sink().expect("sharded mount");
        (
            sink.quarantined_shards(),
            sink.lost_stamp_windows(),
            sink.sealed_epoch(),
        )
    };
    assert_eq!(quarantined, vec![victim], "wrong shard quarantined");

    // --- The dump exists and names the victim. ---
    let dumps = atomfs_obs::dump::drain();
    let qdump = dumps
        .iter()
        .find(|d| matches!(d.cause, TriggerCause::ShardQuarantine { .. }))
        .expect("quarantine produced no black-box dump");
    let TriggerCause::ShardQuarantine { shard, .. } = &qdump.cause else {
        unreachable!()
    };
    assert_eq!(*shard as usize, victim, "dump names the wrong shard");
    assert!(
        qdump
            .health
            .as_deref()
            .is_some_and(|h| h.contains("\"health\"")),
        "dump carries no health report"
    );
    assert!(
        qdump
            .metrics
            .as_deref()
            .is_some_and(|m| m.contains("journal_dead_shard_mask")),
        "dump carries no metrics snapshot with the quarantine gauges"
    );

    // --- Causal chain inside the frozen rings. ---
    let spans = &qdump.spans;
    // 1. Op roots were recorded (walk layer).
    let op_ids: HashSet<u64> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Op)
        .map(|s| s.id)
        .collect();
    assert!(!op_ids.is_empty(), "no op spans in the dump");
    // 2. Shard appends hang off those ops, each stamped and attributed.
    let staged: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::ShardAppend && s.label.starts_with("stage_"))
        .collect();
    assert!(!staged.is_empty(), "no staged-append spans in the dump");
    assert!(
        staged.iter().any(|s| op_ids.contains(&s.parent)),
        "no staged append is causally linked to an op span"
    );
    for s in &staged {
        assert_ne!(s.shard, NO_SHARD, "staged append without a shard");
        assert_ne!(s.stamp, NO_U64, "staged append without a stamp");
        assert_ne!(s.epoch, NO_U64, "staged append without an epoch");
        assert!(
            s.epoch <= sealed_final + 1,
            "staged epoch beyond the open one"
        );
    }
    // 3. The victim's slice write (or its flush barrier) failed, under a
    //    group-commit parent.
    let failed = spans
        .iter()
        .find(|s| s.err && (s.label == "epoch_slice" || s.label == "flush_pass"))
        .expect("no failed slice/flush span in the dump");
    assert_eq!(
        failed.shard as usize, victim,
        "failure attributed to wrong shard"
    );
    // The group-commit root is still open at capture time, so it may sit
    // in `active` (in-flight spans) rather than the completed rings.
    let commit = spans
        .iter()
        .chain(qdump.active.iter())
        .find(|s| s.id == failed.parent)
        .expect("failed slice/flush has no parent span in the dump");
    assert_eq!(
        commit.kind,
        SpanKind::EpochCut,
        "failure not under a group commit"
    );
    // 4. The quarantine trigger instant itself is in the rings.
    let trig = spans
        .iter()
        .find(|s| s.kind == SpanKind::Trigger && s.label == "shard_quarantine")
        .expect("no quarantine trigger span in the dump");
    assert_eq!(trig.shard as usize, victim);
    assert!(trig.err, "trigger spans mark the fault");

    // --- Serializations. ---
    let js = qdump.to_json();
    assert!(js.contains("\"cause\"") && js.contains("shard_quarantine"));
    assert!(js.contains("\"spans\"") && js.contains("\"flightrec\""));
    let tr = qdump.to_chrome_trace();
    assert!(tr.starts_with("{\"traceEvents\":["));
    assert!(tr.contains("\"ph\":\"X\"") && tr.contains("\"ph\":\"i\""));

    // --- Stamp/epoch/shard consistency against recovery. ---
    drop(jfs);
    LpChecker::check(check_cfg, &sink.take()).assert_ok();
    disk.crash(|_| false);
    let rec = recover_sharded(&disk, &cfg);
    assert_eq!(
        rec.quarantined_shards(),
        vec![victim],
        "recovery disagrees with the dump about the quarantined shard"
    );
    assert_eq!(
        rec.lost_windows, windows,
        "recovery windows != runtime windows"
    );
    let replayed: HashSet<u64> = rec.ops.iter().map(|(s, _)| *s).collect();
    let in_window = |st: u64| {
        rec.lost_windows
            .iter()
            .any(|&(lo, hi)| (lo..hi).contains(&st))
    };
    let horizon = replayed.iter().copied().max().unwrap_or(0).max(
        rec.lost_windows
            .iter()
            .map(|&(_, hi)| hi)
            .max()
            .unwrap_or(0),
    );
    // Every stamp the dump attributed to an append is accounted for: it
    // was durably replayed, licensed as lost by a quarantine window, or
    // staged after the last commit the crash preserved.
    for s in &staged {
        assert!(
            replayed.contains(&s.stamp) || in_window(s.stamp) || s.stamp > horizon,
            "dumped stamp {} (shard {}) is neither replayed, lost-windowed, nor tail",
            s.stamp,
            s.shard
        );
    }
    // And the in-process recovery loss fired its own trigger.
    if rec.lost_ops > 0 {
        let post = atomfs_obs::dump::drain();
        assert!(
            post.iter()
                .any(|d| matches!(d.cause, TriggerCause::RecoveryLoss { .. })),
            "recovery with lost ops produced no black-box dump"
        );
    }
}
