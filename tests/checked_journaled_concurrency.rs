//! The full stack at once: concurrent operations on AtomFS with the
//! CRL-H checker *and* the operation journal both attached to the same
//! trace stream, followed by a crash and recovery.
//!
//! This is the composition argument made executable: the checker
//! certifies the in-memory execution linearizable; the journal captures
//! the exact micro-op order the checker's shadow state replayed; so the
//! recovered state is a prefix-consistent snapshot of a *linearizable*
//! history.

use std::sync::Arc;

use atomfs_journal::{BlockDevice, Disk, JournaledFs, ShardConfig};
use atomfs_trace::{set_current_tid, BufferSink, Tid, TraceSink};
use atomfs_vfs::FileSystem;
use atomfs_workloads::opmix::OpMix;
use crlh::{CheckerConfig, HelperMode, LpChecker, RelationCadence};

#[test]
fn concurrent_checked_and_journaled_then_crash() {
    for (seed, shards) in (0..3u64).flat_map(|seed| [1, 4].map(|n| (seed, n))) {
        let cfg = ShardConfig::with_shards(shards);
        let disk = Arc::new(Disk::new());
        let check_cfg = CheckerConfig {
            mode: HelperMode::Helpers,
            relation: RelationCadence::AtUnlock,
            invariants: true,
        };
        let sink = Arc::new(BufferSink::new());
        let fs = Arc::new(JournaledFs::create_sharded_observed(
            Arc::clone(&disk) as Arc<dyn BlockDevice>,
            cfg,
            Arc::clone(&sink) as Arc<dyn TraceSink>,
        ));

        let mix = OpMix::default();
        mix.setup(&*fs);
        let mut handles = Vec::new();
        for t in 0..6u32 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                set_current_tid(Tid(8800 + seed as u32 * 10 + t));
                mix.run(&*fs, seed * 7 + u64::from(t), 60);
                if t == 0 {
                    fs.sync().expect("perfect disk never degrades");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        fs.sync().expect("perfect disk never degrades");

        // The concurrent execution was linearizable.
        drop(fs);
        let report = LpChecker::check(check_cfg, &sink.take());
        report.assert_ok();

        // Crash (adversarial) and recover: the journal replays cleanly
        // into a mountable file system.
        disk.crash(|i| i % 2 == 0);
        let (recovered, stats) = JournaledFs::recover_sharded(Arc::clone(&disk), cfg).unwrap();
        assert!(
            stats.ops_replayed > 0,
            "seed {seed} x{shards}: nothing recovered"
        );
        // Fully synced before the crash: the recovered tree matches the
        // final in-memory tree (compare via the checker's final afs).
        for d in mix.dirs() {
            let mut live: Vec<String> = Vec::new();
            let (trail, err) = report
                .final_afs
                .resolve(&atomfs_vfs::path::normalize(&d).unwrap());
            assert!(err.is_none());
            if let Some(crlh::Node::Dir(entries)) = report.final_afs.node(*trail.last().unwrap()) {
                live.extend(entries.keys().cloned());
            }
            live.sort();
            let mut rec = recovered.readdir(&d).unwrap();
            rec.sort();
            assert_eq!(
                rec, live,
                "seed {seed} x{shards}: {d} differs after recovery"
            );
        }
    }
}
