//! Bridge the journal's health state into an `atomfs_obs::Registry`.
//!
//! The journal already owns its counters ([`HealthCounters`] is shared
//! between the log writer and the mount), so rather than moving them the
//! bridge registers **callback metrics**: closures over the sink's `Arc`s
//! that are evaluated at render/snapshot time. One registry can therefore
//! expose the file system's latency histograms, the checker's helper
//! counters, and the journal's fault state side by side in a single
//! `render_prometheus()` dump.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use atomfs_obs::{FnKind, Registry};

use crate::fs::JournaledFs;
use crate::group_commit::ShardedJournalSink;

/// Register the journal metric family for `sink` in `registry`.
///
/// Exposes the mount-level family — `journal_device_faults_total`,
/// `journal_retries_total`, `journal_degraded_flips_total`,
/// `journal_dropped_events_total` (counters); `journal_degraded`,
/// `journal_log_bytes`, and — when the mount was produced by recovery —
/// `journal_recovery_ops_replayed` and
/// `journal_recovery_skipped{class=...}` (gauges) — plus the epoch
/// machinery (`journal_open_epoch`, `journal_sealed_epoch`), the
/// commit-phase counters (`journal_commits_total` and
/// `journal_commit_{cut,write,flush}_ns_total`, see
/// [`crate::CommitPhases`]), the quarantine gauges, and a per-shard
/// family labeled `shard="i"`:
/// `journal_shard_log_bytes`, `journal_shard_sealed_epoch`,
/// `journal_shard_epoch_lag`,
/// `journal_shard_faults_total`, `journal_shard_retries_total`, and
/// `journal_shard_dead`.
pub fn register_sharded_journal_metrics(registry: &Registry, sink: &Arc<ShardedJournalSink>) {
    let s = Arc::clone(sink);
    registry.register_fn(
        "journal_device_faults_total",
        &[],
        "Device errors observed (before retry absorption), summed over shards.",
        FnKind::Counter,
        move || s.total_faults() as f64,
    );
    let s = Arc::clone(sink);
    registry.register_fn(
        "journal_retries_total",
        &[],
        "Retries issued after transient device errors, summed over shards.",
        FnKind::Counter,
        move || s.total_retries() as f64,
    );
    let c = sink.counters();
    registry.register_fn(
        "journal_degraded_flips_total",
        &[],
        "Healthy-to-degraded transitions of the mount.",
        FnKind::Counter,
        move || c.degraded_flips.load(Ordering::Relaxed) as f64,
    );
    let s = Arc::clone(sink);
    registry.register_fn(
        "journal_dropped_events_total",
        &[],
        "Mutation events dropped while degraded (invariant: stays 0).",
        FnKind::Counter,
        move || s.dropped_events() as f64,
    );
    let s = Arc::clone(sink);
    registry.register_fn(
        "journal_degraded",
        &[],
        "1 when the mount is read-only degraded, else 0.",
        FnKind::Gauge,
        move || {
            if s.health().is_degraded() {
                1.0
            } else {
                0.0
            }
        },
    );
    let s = Arc::clone(sink);
    registry.register_fn(
        "journal_log_bytes",
        &[],
        "Bytes appended to the current log generation, summed over shards.",
        FnKind::Gauge,
        move || s.log_bytes() as f64,
    );
    let s = Arc::clone(sink);
    registry.register_fn(
        "journal_open_epoch",
        &[],
        "Epoch currently accepting staged mutations.",
        FnKind::Gauge,
        move || s.open_epoch() as f64,
    );
    let s = Arc::clone(sink);
    registry.register_fn(
        "journal_sealed_epoch",
        &[],
        "Highest epoch durably sealed on every shard.",
        FnKind::Gauge,
        move || s.sealed_epoch() as f64,
    );
    for (name, help, get) in [
        (
            "journal_commits_total",
            "Group commits run by a sync leader or an explicit commit.",
            (|p| p.commits) as fn(crate::CommitPhases) -> u64,
        ),
        (
            "journal_commit_cut_ns_total",
            "Nanoseconds commits spent cutting the epoch (transaction drain, buffer swap).",
            |p| p.cut_ns,
        ),
        (
            "journal_commit_write_ns_total",
            "Nanoseconds commits spent encoding frames and writing their sectors.",
            |p| p.write_ns,
        ),
        (
            "journal_commit_flush_ns_total",
            "Nanoseconds commits spent in device flush barriers.",
            |p| p.flush_ns,
        ),
    ] {
        let s = Arc::clone(sink);
        registry.register_fn(name, &[], help, FnKind::Counter, move || {
            get(s.commit_phases()) as f64
        });
    }
    let s = Arc::clone(sink);
    registry.register_fn(
        "journal_recovery_ops_replayed",
        &[],
        "Mutations replayed by the recovery that produced this mount (0 for a fresh mount).",
        FnKind::Gauge,
        move || {
            s.health_report()
                .recovery
                .map_or(0.0, |r| r.ops_replayed as f64)
        },
    );
    for (class, get) in [
        (
            "torn",
            (|r| r.torn) as fn(crate::health::RecoverySummary) -> u64,
        ),
        ("checksum_mismatch", |r| r.checksum_mismatch),
        ("stale_epoch", |r| r.stale_epoch),
        ("orphaned", |r| r.orphaned),
        ("garbage", |r| r.garbage),
    ] {
        let s = Arc::clone(sink);
        registry.register_fn(
            "journal_recovery_skipped",
            &[("class", class)],
            "Records the recovery scrub refused, by classification.",
            FnKind::Gauge,
            move || s.health_report().recovery.map_or(0.0, |r| get(r) as f64),
        );
    }
    // The quarantine family: partial-degradation state bridged the same
    // way as the recovery gauges, so a scrape shows *which* shards are
    // dead and how much licensed loss the windows currently cover.
    let s = Arc::clone(sink);
    registry.register_fn(
        "journal_dead_shard_mask",
        &[],
        "Bitmask of quarantined shards (bit i set = shard i dead).",
        FnKind::Gauge,
        move || s.dead_mask() as f64,
    );
    let s = Arc::clone(sink);
    registry.register_fn(
        "journal_lost_stamp_windows",
        &[],
        "Coalesced lost-stamp windows licensed by quarantine frames.",
        FnKind::Gauge,
        move || s.lost_stamp_windows().len() as f64,
    );
    let s = Arc::clone(sink);
    registry.register_fn(
        "journal_lost_stamp_window_width",
        &[],
        "Total stamps covered by the licensed lost-stamp windows.",
        FnKind::Gauge,
        move || {
            s.lost_stamp_windows()
                .iter()
                .map(|&(lo, hi)| hi.saturating_sub(lo))
                .sum::<u64>() as f64
        },
    );
    for i in 0..sink.shard_count() {
        let shard = i.to_string();
        let labels = [("shard", shard.as_str())];
        let g = sink.shard_gauges(i);
        registry.register_fn(
            "journal_shard_log_bytes",
            &labels,
            "Bytes appended to this shard's region.",
            FnKind::Gauge,
            move || g.log_bytes.load(Ordering::Relaxed) as f64,
        );
        let g = sink.shard_gauges(i);
        registry.register_fn(
            "journal_shard_sealed_epoch",
            &labels,
            "Highest epoch this shard has durably sealed.",
            FnKind::Gauge,
            move || g.sealed_epoch.load(Ordering::Relaxed) as f64,
        );
        let s = Arc::clone(sink);
        registry.register_fn(
            "journal_shard_epoch_lag",
            &labels,
            "Committed epochs this shard has not yet sealed.",
            FnKind::Gauge,
            move || s.shard_report(i).epoch_lag as f64,
        );
        let c = sink.shard_counters(i);
        registry.register_fn(
            "journal_shard_faults_total",
            &labels,
            "Device faults charged to this shard.",
            FnKind::Counter,
            move || c.device_faults.load(Ordering::Relaxed) as f64,
        );
        let c = sink.shard_counters(i);
        registry.register_fn(
            "journal_shard_retries_total",
            &labels,
            "Retries charged to this shard.",
            FnKind::Counter,
            move || c.retries.load(Ordering::Relaxed) as f64,
        );
        let g = sink.shard_gauges(i);
        registry.register_fn(
            "journal_shard_dead",
            &labels,
            "1 when this shard's device region failed permanently.",
            FnKind::Gauge,
            move || {
                if g.dead.load(Ordering::Relaxed) {
                    1.0
                } else {
                    0.0
                }
            },
        );
    }
}

impl JournaledFs {
    /// Bridge this mount's health state into `registry` (see
    /// [`register_sharded_journal_metrics`]).
    pub fn register_metrics(&self, registry: &Registry) {
        register_sharded_journal_metrics(registry, &self.sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{BlockDevice, Disk};
    use crate::shard::ShardConfig;
    use atomfs_vfs::FileSystem;

    #[test]
    fn fresh_mount_renders_zeros() {
        let jfs = JournaledFs::create_sharded(Arc::new(Disk::new()), ShardConfig::with_shards(1));
        let reg = Registry::new();
        jfs.register_metrics(&reg);
        let text = reg.render_prometheus();
        assert!(text.contains("journal_device_faults_total 0"));
        assert!(text.contains("journal_degraded 0"));
        assert!(text.contains("journal_recovery_ops_replayed 0"));
    }

    #[test]
    fn sharded_mount_renders_per_shard_family() {
        let disk = Arc::new(Disk::new());
        let jfs = JournaledFs::create_sharded(
            Arc::clone(&disk) as Arc<dyn BlockDevice>,
            ShardConfig::with_shards(2),
        );
        let reg = Registry::new();
        jfs.register_metrics(&reg);
        for i in 0..8 {
            jfs.mkdir(&format!("/d{i}")).unwrap();
        }
        jfs.sync().unwrap();
        let text = reg.render_prometheus();
        assert!(text.contains("journal_shard_log_bytes{shard=\"0\"}"));
        assert!(text.contains("journal_shard_log_bytes{shard=\"1\"}"));
        assert!(text.contains("journal_shard_sealed_epoch{shard=\"0\"} 1"));
        assert!(text.contains("journal_shard_dead{shard=\"0\"} 0"));
        assert!(text.contains("journal_sealed_epoch 1"));
        assert!(text.contains("journal_open_epoch 2"));
        assert!(text.contains("journal_degraded 0"));
        let snap = reg.snapshot();
        let total = snap.gauge("journal_log_bytes").unwrap();
        assert!(total > 0.0);
    }

    #[test]
    fn shard_epoch_lag_tracks_a_dead_shard() {
        use crate::faults::{FaultPlan, FaultyDisk};
        let dev = Arc::new(FaultyDisk::new(
            Arc::new(Disk::new()),
            FaultPlan::none(0).with_permanent_failure_after(4),
        ));
        let jfs = JournaledFs::create_sharded(dev, ShardConfig::with_shards(2));
        let reg = Registry::new();
        jfs.register_metrics(&reg);
        for i in 0..50 {
            if jfs
                .mkdir(&format!("/d{i}"))
                .and_then(|_| jfs.sync())
                .is_err()
            {
                break;
            }
        }
        assert!(jfs.health().is_degraded());
        let text = reg.render_prometheus();
        assert!(text.contains("journal_degraded 1"));
        assert!(text.contains("journal_degraded_flips_total 1"));
        // The per-shard family stays renderable on a degraded mount.
        assert!(text.contains("journal_shard_epoch_lag{shard=\"0\"}"));
        assert!(text.contains("journal_shard_epoch_lag{shard=\"1\"}"));
    }

    #[test]
    fn quarantine_gauges_track_a_dead_shard() {
        use crate::faults::{FaultPlan, FaultyDisk};
        use crate::shard::shard_of;
        let cfg = ShardConfig::default();
        let shards = cfg.shard_count();
        let root_shard = shard_of(atomfs_trace::ROOT_INUM, shards);
        let victim = (root_shard + 1) % shards;
        let disk = Arc::new(Disk::new());
        let devices: Vec<Arc<dyn BlockDevice>> = (0..shards)
            .map(|s| {
                if s == victim {
                    Arc::new(FaultyDisk::new(
                        Arc::clone(&disk),
                        FaultPlan::none(1).with_permanent_failure_after(3),
                    )) as Arc<dyn BlockDevice>
                } else {
                    Arc::clone(&disk) as Arc<dyn BlockDevice>
                }
            })
            .collect();
        let sink = Arc::new(crate::group_commit::ShardedJournalSink::with_devices(
            devices, cfg,
        ));
        let reg = Registry::new();
        register_sharded_journal_metrics(&reg, &sink);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("journal_dead_shard_mask"), Some(0.0));
        assert_eq!(snap.gauge("journal_lost_stamp_window_width"), Some(0.0));

        // Drive stamped creates through the sink until the victim's
        // device dies and a sync records the loss.
        use atomfs_trace::{Event, MicroOp, OpDesc, OpRet, Tid, TraceSink};
        let tid = Tid(1);
        let mut saw_err = false;
        for i in 0..200u64 {
            let ino = 100 + i;
            sink.emit(Event::OpBegin {
                tid,
                op: OpDesc::Mknod {
                    path: vec![format!("f{i}")],
                },
            });
            sink.emit(Event::Mutate {
                tid,
                mop: MicroOp::Create {
                    ino,
                    ftype: atomfs_vfs::FileType::File,
                },
            });
            sink.emit(Event::Lp { tid });
            sink.emit(Event::OpEnd {
                tid,
                ret: OpRet::Ok,
            });
            if i % 5 == 4 && sink.sync().is_err() {
                saw_err = true;
                break;
            }
        }
        let _ = sink.sync();
        assert!(saw_err || !sink.quarantined_shards().is_empty());
        let snap = reg.snapshot();
        let mask = snap.gauge("journal_dead_shard_mask").unwrap() as u64;
        assert_eq!(mask, sink.dead_mask());
        assert_ne!(mask, 0, "no shard quarantined");
        let width = snap.gauge("journal_lost_stamp_window_width").unwrap() as u64;
        let expect: u64 = sink
            .lost_stamp_windows()
            .iter()
            .map(|&(lo, hi)| hi - lo)
            .sum();
        assert_eq!(width, expect);
    }

    #[test]
    fn commit_phase_counters_advance_on_one_sync() {
        use atomfs_vfs::fs::FileSystemExt;
        let jfs = JournaledFs::create_sharded(Arc::new(Disk::new()), ShardConfig::with_shards(2));
        let reg = Registry::new();
        jfs.register_metrics(&reg);
        let names = [
            "journal_commits_total",
            "journal_commit_cut_ns_total",
            "journal_commit_write_ns_total",
            "journal_commit_flush_ns_total",
        ];
        let read = || {
            let snap = reg.snapshot();
            names.map(|n| snap.gauge(n).unwrap_or_else(|| panic!("{n} missing")))
        };
        let before = read();
        jfs.write_file("/f", &[7u8; 4096]).unwrap();
        jfs.sync().unwrap();
        let after = read();
        assert_eq!(after[0], before[0] + 1.0, "one sync, one commit");
        for (i, n) in names.iter().enumerate().skip(1) {
            assert!(after[i] > before[i], "{n} did not advance");
        }
    }

    #[test]
    fn log_bytes_gauge_tracks_commits() {
        let jfs = JournaledFs::create_sharded(Arc::new(Disk::new()), ShardConfig::with_shards(1));
        let reg = Registry::new();
        jfs.register_metrics(&reg);
        assert_eq!(reg.snapshot().gauge("journal_log_bytes"), Some(0.0));
        jfs.mkdir("/d").unwrap();
        jfs.sync().unwrap();
        let bytes = reg.snapshot().gauge("journal_log_bytes").unwrap();
        assert!(bytes > 0.0, "commit did not move the gauge");
    }
}
