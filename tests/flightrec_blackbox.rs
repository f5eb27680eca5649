//! The black-box acceptance path: a fault storm that quarantines one
//! journal shard must leave behind a flight-recorder dump whose spans
//! causally cover the failing operation — sampled op roots, the shard
//! appends they caused (each stamped and shard-attributed), the epoch
//! slice / flush that failed on the dead device under its group-commit
//! parent, and the quarantine trigger instant — and whose shard, epoch,
//! and stamp attributions agree with what recovery later reports about
//! the same disk. Smaller tests pin the pieces that chain rests on: spans
//! record with parent links, a trigger retains a serializable dump, and a
//! journal sync always records its root span.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard};

use atomfs_journal::{
    recover_sharded, register_sharded_journal_metrics, shard_of, BlockDevice, Disk, FaultPlan,
    FaultyDisk, JournaledFs, ShardConfig,
};
use atomfs_obs::span::{set_sampling, DEFAULT_SPAN_SAMPLE, NO_SHARD, NO_U64};
use atomfs_obs::{dump, flightrec, Registry, Span, SpanKind, TriggerCause};
use atomfs_trace::{BufferSink, TraceSink};
use atomfs_vfs::FileSystem;
use crlh::{CheckerConfig, HelperMode, LpChecker, RelationCadence};

/// The flight recorder, the sampling period and the dump store are
/// process-global: every test here takes this lock, so none drains
/// another's captures or floods the rings under another's probe.
fn recorder_lock() -> MutexGuard<'static, ()> {
    static RECORDER: Mutex<()> = Mutex::new(());
    RECORDER.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn spans_record_with_parent_links_and_retries() {
    let _recorder = recorder_lock();
    let before = flightrec::recorded_total();
    {
        let mut root = Span::root(SpanKind::Op, "probe");
        root.set_shard(3);
        let mut child = Span::child(SpanKind::Lock, "probe_child");
        child.retry();
        drop(child);
        drop(root);
    }
    let delta = flightrec::recorded_total() - before;
    assert!(delta >= 2, "root + child should both record, got {delta}");
    // Both ends of the parent link survived into the rings.
    let frozen = flightrec::freeze();
    let root = frozen
        .iter()
        .find(|s| s.label == "probe")
        .expect("root span not in rings");
    assert_eq!(root.shard, 3);
    let child = frozen
        .iter()
        .find(|s| s.label == "probe_child")
        .expect("child span not in rings");
    assert_eq!(child.parent, root.id);
    assert_eq!(child.retries, 1);
}

#[test]
fn dump_trigger_retains_and_serializes() {
    let _recorder = recorder_lock();
    let bb = dump::trigger(
        TriggerCause::Manual {
            detail: "chain probe".into(),
        },
        Some("{\"health\":\"Ok\"}".into()),
    );
    assert!(dump::latest().is_some(), "trigger retained nothing");
    assert!(dump::triggered_total() >= 1);
    assert_eq!(bb.health.as_deref(), Some("{\"health\":\"Ok\"}"));
    assert!(bb.to_json().starts_with('{'));
    assert!(bb.to_chrome_trace().starts_with("{\"traceEvents\":["));
}

/// `journal_sync` opens an always-recorded root span, so one sync
/// records regardless of op sampling.
#[test]
fn journal_sync_records_a_root_span() {
    let _recorder = recorder_lock();
    let disk = Arc::new(Disk::new());
    let jfs = JournaledFs::create_sharded(
        Arc::clone(&disk) as Arc<dyn BlockDevice>,
        ShardConfig::default(),
    );
    let before = flightrec::recorded_total();
    jfs.mknod("/chain-probe").unwrap();
    jfs.write("/chain-probe", 0, b"x").unwrap();
    jfs.sync().unwrap();
    assert!(
        flightrec::recorded_total() > before,
        "a sync should always record its root span"
    );
    assert!(
        flightrec::freeze()
            .iter()
            .any(|s| s.label == "journal_sync"),
        "journal_sync span missing from the rings"
    );
}

#[test]
fn quarantine_dump_causally_covers_the_failing_op() {
    let _recorder = recorder_lock();
    // Record every operation: the dump must show the op that hit the
    // fault, not a 1-in-64 sample that may have missed it.
    set_sampling(1);
    let _ = dump::drain();

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
    dump::set_registry(&registry);

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
    let dumps = dump::drain();
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
        let post = dump::drain();
        assert!(
            post.iter()
                .any(|d| matches!(d.cause, TriggerCause::RecoveryLoss { .. })),
            "recovery with lost ops produced no black-box dump"
        );
    }
}
