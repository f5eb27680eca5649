//! Randomized crash injection: after any crash, the recovered file
//! system equals the state reached by some *prefix* of the mutation
//! history — and that prefix covers at least everything before the last
//! `sync()` (durability).
//!
//! The test exploits the architecture: the same trace stream that feeds
//! the CRL-H shadow state feeds the journal, so "crash consistency"
//! reduces to prefix consistency of the recorded micro-operation
//! sequence, checkable exactly with `crlh::FsState`.
//!
//! Mount-level properties run at one stream and at the default fan-out
//! ([`SHARD_COUNTS`]).

use std::sync::Arc;

use atomfs_journal::{mutations_of, BlockDevice, Disk, JournaledFs, ShardConfig};
use atomfs_trace::{BufferSink, MicroOp, TraceSink};
use atomfs_vfs::{FileSystem, SplitMix64};
use crlh::FsState;

const SHARD_COUNTS: [usize; 2] = [1, 4];

/// A JournaledFs whose mutation stream is also recorded in memory, so
/// tests can compute every prefix state.
struct Harness {
    disk: Arc<Disk>,
    cfg: ShardConfig,
    fs: JournaledFs,
    recorder: Arc<BufferSink>,
}

impl Harness {
    fn new(shards: usize) -> Self {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig::with_shards(shards);
        let recorder = Arc::new(BufferSink::new());
        let fs = JournaledFs::create_sharded_observed(
            Arc::clone(&disk) as Arc<dyn BlockDevice>,
            cfg,
            Arc::clone(&recorder) as Arc<dyn TraceSink>,
        );
        Harness {
            disk,
            cfg,
            fs,
            recorder,
        }
    }

    fn sync(&self) {
        self.fs.sync().expect("perfect disk never degrades");
    }

    fn mutations(&self) -> Vec<MicroOp> {
        mutations_of(&self.recorder.snapshot())
    }

    fn recover(&self) -> (JournaledFs, atomfs_journal::RecoveryStats) {
        JournaledFs::recover_sharded(Arc::clone(&self.disk), self.cfg).expect("recovery succeeds")
    }
}

/// All states reachable by prefixes of `muts` (index = prefix length).
fn prefix_states(muts: &[MicroOp]) -> Vec<FsState> {
    let mut states = Vec::with_capacity(muts.len() + 1);
    let mut s = FsState::new();
    states.push(s.clone());
    for m in muts {
        s.apply_micro(m).expect("recorded stream replays");
        states.push(s.clone());
    }
    states
}

/// Canonical content comparison between a recovered live FS and an
/// abstract state: same tree shape, names, and file bytes.
fn fs_matches_state(fs: &dyn FileSystem, state: &FsState) -> bool {
    fn walk(fs: &dyn FileSystem, state: &FsState, id: u64, path: &str) -> bool {
        match state.node(id) {
            Some(crlh::Node::Dir(entries)) => {
                let Ok(mut names) = fs.readdir(path) else {
                    return false;
                };
                names.sort();
                let mut expected: Vec<&String> = entries.keys().collect();
                expected.sort();
                if names.iter().collect::<Vec<_>>() != expected {
                    return false;
                }
                entries.iter().all(|(name, child)| {
                    walk(fs, state, *child, &atomfs_vfs::path::join(path, name))
                })
            }
            Some(crlh::Node::File(data)) => {
                let Ok(meta) = fs.stat(path) else {
                    return false;
                };
                if meta.size != data.len() as u64 {
                    return false;
                }
                let mut buf = vec![0u8; data.len()];
                matches!(fs.read(path, 0, &mut buf), Ok(n) if n == data.len() && buf == *data)
            }
            None => false,
        }
    }
    walk(fs, state, state.root, "/")
}

fn run_workload(h: &Harness, rng: &mut SplitMix64, ops: usize) -> Vec<usize> {
    // Returns mutation-count snapshots taken at each sync().
    let mut sync_points = Vec::new();
    for i in 0..ops {
        let d = format!("/d{}", rng.random_range(0..3));
        let f = format!("{d}/f{}", rng.random_range(0..4));
        let g = format!("/d{}/g{}", rng.random_range(0..3), rng.random_range(0..3));
        match rng.random_range(0..8) {
            0 => {
                let _ = h.fs.mkdir(&d);
            }
            1 => {
                let _ = h.fs.mknod(&f);
            }
            2 => {
                let _ = h.fs.write(&f, (i % 5) as u64, &[i as u8; 100]);
            }
            3 => {
                let _ = h.fs.unlink(&f);
            }
            4 => {
                let _ = h.fs.rename(&f, &g);
            }
            5 => {
                let _ = h.fs.truncate(&f, (i % 50) as u64);
            }
            6 => {
                let _ = h.fs.rmdir(&d);
            }
            _ => {
                h.sync();
                sync_points.push(h.mutations().len());
            }
        }
    }
    sync_points
}

#[test]
fn recovery_is_prefix_consistent_and_durable() {
    for (seed, shards) in (0..12u64).flat_map(|seed| SHARD_COUNTS.map(|n| (seed, n))) {
        eprintln!("crash: seed {seed}, {shards} shard(s)");
        let mut rng = SplitMix64::new(seed);
        let h = Harness::new(shards);
        let sync_points = run_workload(&h, &mut rng, 120);
        let muts = h.mutations();

        // Crash with a random subset of unflushed sector writes persisted.
        let keep_mod = rng.random_range(2..6u64);
        h.disk.crash(|i| (i as u64).is_multiple_of(keep_mod));

        let (recovered, stats) = h.recover();

        // Prefix consistency: the recovered tree equals the state after
        // exactly `ops_replayed` mutations of the recorded history.
        // (Several adjacent prefixes can be observationally equal — e.g.
        // a Create whose Ins never happened — so we check the replayed
        // index directly rather than searching for the first match.)
        let states = prefix_states(&muts);
        let k = stats.ops_replayed;
        assert!(
            k <= muts.len(),
            "seed {seed}: replayed more than was ever appended"
        );
        assert!(
            fs_matches_state(&recovered, &states[k]),
            "seed {seed}: recovered state is not the {k}-mutation prefix of {}",
            muts.len()
        );

        // Durability: everything before the last sync survived.
        if let Some(&last_sync) = sync_points.last() {
            assert!(
                k >= last_sync,
                "seed {seed}: lost synced data (prefix {k} < sync point {last_sync})"
            );
        }
    }
}

#[test]
fn clean_crash_recovers_exactly_the_synced_prefix() {
    for shards in SHARD_COUNTS {
        let h = Harness::new(shards);
        h.fs.mkdir("/a").unwrap();
        h.fs.mknod("/a/f").unwrap();
        h.fs.write("/a/f", 0, b"before sync").unwrap();
        h.sync();
        let synced = h.mutations().len();
        h.fs.write("/a/f", 0, b"AFTER sync!").unwrap();
        h.fs.mkdir("/late").unwrap();

        h.disk.crash(|_| false);
        let (recovered, stats) = h.recover();
        assert_eq!(stats.ops_replayed, synced);
        let muts = h.mutations();
        assert!(fs_matches_state(&recovered, &prefix_states(&muts)[synced]));
        let mut buf = [0u8; 11];
        recovered.read("/a/f", 0, &mut buf).unwrap();
        assert_eq!(&buf, b"before sync");
        assert!(recovered.stat("/late").is_err());
    }
}

#[test]
fn recovered_fs_passes_the_linearizability_checker() {
    use crlh::{CheckerConfig, HelperMode, LpChecker, RelationCadence};
    for shards in SHARD_COUNTS {
        let h = Harness::new(shards);
        h.fs.mkdir("/base").unwrap();
        h.fs.mknod("/base/f").unwrap();
        h.sync();
        h.disk.crash(|_| false);

        // The recovered mount keeps going under a fresh generation.
        let (recovered, _) = h.recover();
        recovered.mknod("/base/g").unwrap();
        recovered.sync().unwrap();
        drop(recovered);

        // The same pipeline `recover_sharded` runs — scan, replay,
        // materialize — through an AtomFS the checker observes, then
        // concurrent traffic on top: the recovered instance is a full
        // AtomFS and every recorded interleaving linearizes.
        let state = atomfs_journal::recover_sharded(&h.disk, &h.cfg)
            .replay()
            .expect("recovered prefix replays");
        let cfg = CheckerConfig {
            mode: HelperMode::Helpers,
            relation: RelationCadence::AtUnlock,
            invariants: true,
        };
        let sink = Arc::new(BufferSink::new());
        let fs = Arc::new(atomfs::AtomFs::traced(
            Arc::clone(&sink) as Arc<dyn TraceSink>
        ));
        atomfs_journal::materialize(&*fs, &state).unwrap();
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let p = format!("/base/t{t}_{i}");
                    fs.mknod(&p).unwrap();
                    fs.write(&p, 0, &[t; 8]).unwrap();
                    let _ = fs.rename(&p, &format!("/base/r{t}_{i}"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fs.readdir("/base").unwrap().len(), 2 + 200);
        drop(fs);
        let report = LpChecker::check(cfg, &sink.take());
        report.assert_ok();
    }
}

/// A cross-shard rename writes its intent record to the source parent's
/// shard and its seal to the destination parent's shard. A crash that
/// persists the intent but loses the seal must make recovery discard the
/// rename (and everything stamped after it) — while the complementary
/// crash that persists both replays it. This is the two-phase record's
/// whole point: a half-present rename can never replay.
#[test]
fn crash_between_rename_intent_and_seal_discards_the_rename() {
    use atomfs_journal::{FaultPlan, FaultyDisk};

    // One deterministic run of the workload; `keep_seal` decides whether
    // the destination shard's queued writes survive the crash.
    let run = |keep_seal: bool| {
        let cfg = ShardConfig::with_shards(4);
        let disk = Arc::new(Disk::new());
        // Flushes always fail: every frame write stays queued volatile,
        // the sync degrades the mount, and nothing is ever acked — so
        // the crash below gets to choose what persisted.
        let dev = Arc::new(FaultyDisk::new(
            Arc::clone(&disk),
            FaultPlan::none(1).with_transient(0, 0, 65_536),
        ));
        let recorder = Arc::new(BufferSink::new());
        let jfs = JournaledFs::create_sharded_observed(
            dev,
            cfg,
            Arc::clone(&recorder) as Arc<dyn TraceSink>,
        );
        let sink = Arc::clone(jfs.sharded_sink().expect("sharded mount"));
        for i in 0..8 {
            jfs.mkdir(&format!("/d{i}")).unwrap();
        }
        jfs.mknod("/d0/f").unwrap();
        jfs.write("/d0/f", 0, b"payload").unwrap();
        let shard = |path: &str| sink.shard_of_ino(jfs.stat(path).unwrap().ino);
        let src_shard = shard("/d0");
        let file_shard = shard("/d0/f");
        let root_shard = sink.shard_of_ino(atomfs_trace::ROOT_INUM);
        // Pick a destination dir whose shard holds no record we need to
        // keep: dropping its region loses exactly the rename's seal (and
        // that shard's EpochSeal).
        let dst = (1..8)
            .find(|i| {
                let s = shard(&format!("/d{i}"));
                s != src_shard && s != file_shard && s != root_shard
            })
            .expect("8 dirs over 4 shards leave a seal-only shard");
        let dst_dir = format!("/d{dst}");
        let seal_shard = shard(&dst_dir);
        jfs.rename("/d0/f", &format!("{dst_dir}/g")).unwrap();
        // The commit appends the epoch's frames — intent to the source
        // shard, seal to the destination shard — then fails the flush.
        assert!(jfs.sync().is_err(), "flush cannot succeed under this plan");
        let muts = mutations_of(&recorder.snapshot());
        drop(jfs);
        let (lo, hi) = (cfg.region_base(seal_shard), cfg.region_base(seal_shard + 1));
        disk.crash_keep_lbas(|lba| keep_seal || !(lo..hi).contains(&lba));
        (disk, cfg, muts, dst_dir)
    };

    // Case A — the seal is lost: recovery sees a seal-less intent,
    // discards the rename, and replays exactly the prefix before it (a
    // file rename with no destination victim is two micro-ops).
    let (disk, cfg, muts, dst_dir) = run(false);
    let raw = atomfs_journal::recover_sharded(&disk, &cfg);
    assert!(
        !raw.pairing.unsealed.is_empty(),
        "the intent must be seal-less"
    );
    assert!(raw.truncated_at.is_some(), "the unsealed intent truncates");
    let (recovered, stats) = JournaledFs::recover_sharded(Arc::clone(&disk), cfg).unwrap();
    assert_eq!(stats.ops_replayed, muts.len() - 2);
    assert!(fs_matches_state(
        &recovered,
        &prefix_states(&muts)[stats.ops_replayed]
    ));
    let mut buf = [0u8; 7];
    recovered.read("/d0/f", 0, &mut buf).unwrap();
    assert_eq!(&buf, b"payload", "the un-renamed file keeps its content");
    assert!(recovered.stat(&format!("{dst_dir}/g")).is_err());

    // Case B — both records persist: the pair is whole and the rename
    // replays in full.
    let (disk, cfg, muts, dst_dir) = run(true);
    let raw = atomfs_journal::recover_sharded(&disk, &cfg);
    assert!(raw.pairing.unsealed.is_empty());
    assert!(!raw.pairing.sealed.is_empty(), "the pair is recognized");
    let (recovered, stats) = JournaledFs::recover_sharded(Arc::clone(&disk), cfg).unwrap();
    assert_eq!(stats.ops_replayed, muts.len());
    assert!(fs_matches_state(
        &recovered,
        &prefix_states(&muts)[muts.len()]
    ));
    assert!(recovered.stat("/d0/f").is_err());
    let mut buf = [0u8; 7];
    recovered
        .read(&format!("{dst_dir}/g"), 0, &mut buf)
        .unwrap();
    assert_eq!(&buf, b"payload");
}

/// Recovering a pathologically deep directory chain must not overflow
/// the stack: `materialize` walks the recovered tree with an explicit
/// worklist, so it runs in constant stack regardless of depth.
#[test]
fn deep_tree_recovery_does_not_overflow_the_stack() {
    // Deep enough that one stack frame per directory level would blow
    // through the 256 KiB thread stack below; shallower in debug builds
    // only to keep the O(depth²) path resolution cost reasonable.
    let depth: usize = if cfg!(debug_assertions) { 1200 } else { 2500 };
    for shards in SHARD_COUNTS {
        let h = Harness::new(shards);
        let mut path = String::new();
        for _ in 0..depth {
            path.push_str("/d");
            h.fs.mkdir(&path).unwrap();
        }
        h.sync();
        h.disk.crash(|_| false);
        let handle = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                let (recovered, stats) = h.recover();
                assert_eq!(stats.inodes, depth + 1, "root plus every chain link");
                let deepest = "/d".repeat(depth);
                assert!(recovered.stat(&deepest).unwrap().ftype.is_dir());
            })
            .unwrap();
        handle
            .join()
            .expect("recovery thread must not die (stack overflow aborts)");
    }
}
