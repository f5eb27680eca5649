//! Acceptance tests for the observability layer: the numbers the
//! metrics pipeline publishes are the numbers the system actually
//! produced.
//!
//! Two obligations:
//!
//! 1. An 8-thread contended OpMix run, with a journaled mount bridged
//!    into the same registry, renders a Prometheus page that carries
//!    real signal: non-zero lock-wait buckets (contention metrics are
//!    exact, never sampled) and live journal health gauges.
//! 2. The live helped-linearization counter agrees **exactly** with
//!    the checker's own help count over the same event stream: the
//!    metrics hooks count what the checker derives, nothing more or
//!    less. A rename storm maximizes helping so the count is non-zero.

use std::sync::Arc;

use atomfs::{AtomFs, FsMetrics};
use atomfs_journal::{Disk, JournaledFs, ShardConfig};
use atomfs_obs::{ClockSource, Registry};
use atomfs_trace::{set_current_tid, ShardedSink, Tid, TraceSink};
use atomfs_vfs::FileSystem;
use atomfs_workloads::opmix::OpMix;
use crlh::checker::{CheckerConfig, HelperMode, LpChecker, RelationCadence};
use crlh::metrics::CheckerMetrics;

fn spawn_mix(fs: Arc<AtomFs>, mix: OpMix, threads: u32, ops: usize, tid_base: u32, seed_base: u64) {
    let mut handles = Vec::new();
    for t in 0..threads {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            set_current_tid(Tid(tid_base + t));
            mix.run(&*fs, seed_base + u64::from(t), ops);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// Eight contended threads leave their mark on the exposition page:
/// non-zero lock-wait buckets, per-op latency histograms, and journal
/// health gauges from a bridged mount — all on one registry.
#[test]
fn eight_thread_opmix_renders_contended_locks_and_journal_health() {
    let reg = Registry::new();
    // op_sample = 1: observe every op, so op histograms are exact too.
    // (Contended counts and wait times are exact at any sampling rate.)
    let fs = Arc::new(AtomFs::new().with_metrics(FsMetrics::register_sampled(
        &reg,
        ClockSource::monotonic(),
        1,
    )));
    let mix = OpMix::default();
    mix.setup(&*fs);
    // On a single-core host, contention needs a thread to be preempted
    // inside a critical section; keep running rounds (same registry, so
    // counts accumulate) until at least one blocked acquisition shows up.
    let mut rounds = 0;
    while reg.snapshot().counter("atomfs_lock_contended_total") == 0 {
        rounds += 1;
        assert!(
            rounds <= 20,
            "no lock contention observed in {rounds} 8-thread rounds"
        );
        spawn_mix(Arc::clone(&fs), mix, 8, 500, 8000, rounds);
    }

    // A journaled mount bridged into the same registry, with enough
    // traffic to move the gauges.
    let jfs = JournaledFs::create_sharded(Arc::new(Disk::new()), ShardConfig::default());
    jfs.register_metrics(&reg);
    for i in 0..4 {
        jfs.mknod(&format!("/j{i}")).unwrap();
    }
    jfs.sync().unwrap();

    let snap = reg.snapshot();
    assert!(snap.counter("atomfs_lock_contended_total") > 0);
    let wait = snap.hist_merged("atomfs_lock_wait_ns");
    assert!(wait.count > 0, "contended acquisitions must record waits");
    assert!(snap.hist_merged("atomfs_op_ns").count > 0);

    let text = reg.render_prometheus();
    // Non-zero lock-wait buckets: the +Inf bucket of a histogram with
    // count > 0 renders its cumulative count, which we already know is
    // positive.
    assert!(text.contains("atomfs_lock_wait_ns_bucket"));
    assert!(text.contains(&format!(
        "atomfs_lock_wait_ns_count{{class=\"{}\"",
        wait_class_with_samples(&snap)
    )));
    assert!(text.contains("# TYPE atomfs_op_ns histogram"));
    // Journal health gauges are present and live.
    assert!(text.contains("journal_log_bytes"));
    assert!(snap.gauge("journal_log_bytes").unwrap() > 0.0);
    assert!(snap.gauge("journal_degraded").is_some());
}

/// The lock class that actually recorded wait samples (root under this
/// mix, but any class satisfies the rendering assertion).
fn wait_class_with_samples(snap: &atomfs_obs::Snapshot) -> String {
    snap.entries
        .iter()
        .find_map(|e| {
            if e.name != "atomfs_lock_wait_ns" {
                return None;
            }
            let atomfs_obs::SnapValue::Hist(h) = &e.value else {
                return None;
            };
            if h.count == 0 {
                return None;
            }
            e.labels
                .iter()
                .find(|(k, _)| k == "class")
                .map(|(_, v)| v.clone())
        })
        .expect("some lock class recorded waits")
}

/// Helped-linearization agreement, online vs. offline, over one rename
/// storm. The storm is recorded once (sharded, stamped); the offline
/// checker derives how many operations helpers linearized, and the same
/// stamped stream fed to a checker with [`LpChecker::with_metrics`] must leave
/// exactly that number in the live `crlh_lins_total{kind="helped"}`
/// counter.
#[test]
fn rename_storm_online_helped_counter_matches_offline_checker() {
    let cfg = CheckerConfig {
        mode: HelperMode::Helpers,
        relation: RelationCadence::AtUnlock,
        invariants: true,
    };
    let mix = OpMix {
        dirs: 2,
        names: 3,
        rename_weight: 20,
    };
    // Whether a storm actually helps anyone depends on preemption timing
    // (a rename LP must catch another thread parked mid-walk), so retry
    // with fresh seeds until one does; the online/offline agreement is
    // asserted on every attempt, helped or not.
    let mut saw_help = false;
    for attempt in 0..40u64 {
        let sink = Arc::new(ShardedSink::new());
        // Default (optimistic) config: a successful claim is final, so an
        // effect-free claim linearizes its operation exactly once.
        let fs = Arc::new(AtomFs::traced(sink.clone() as Arc<dyn TraceSink>));
        mix.setup(&*fs);
        spawn_mix(
            Arc::clone(&fs),
            mix,
            8,
            100,
            8200 + attempt as u32 * 10,
            11 + attempt * 97,
        );
        let stamped = sink.take_stamped();

        let offline = LpChecker::check_stamped(cfg, &stamped);
        offline.assert_ok();

        let reg = Registry::new();
        let mut metered = LpChecker::new(cfg).with_metrics(CheckerMetrics::register(&reg));
        metered.feed_all_stamped(&stamped);
        metered.finish().assert_ok();

        let snap = reg.snapshot();
        let helped = snap
            .entries
            .iter()
            .find_map(|e| {
                if e.name != "crlh_lins_total"
                    || !e.labels.iter().any(|(k, v)| k == "kind" && v == "helped")
                {
                    return None;
                }
                match e.value {
                    atomfs_obs::SnapValue::Counter(v) => Some(v),
                    _ => None,
                }
            })
            .expect("helped-lin counter registered");
        assert_eq!(
            helped, offline.stats.helps,
            "online helped-lin counter must equal the offline checker's help count"
        );
        // Self + helped linearizations account for every completed op.
        assert_eq!(
            snap.counter("crlh_lins_total"),
            offline.stats.ops_completed,
            "every completed op linearizes exactly once"
        );
        if offline.stats.helps >= 1 {
            saw_help = true;
            break;
        }
    }
    assert!(
        saw_help,
        "no rename storm out of 40 produced a helped linearization"
    );
}
