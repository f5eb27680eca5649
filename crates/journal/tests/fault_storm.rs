//! Randomized fault-schedule × crash-schedule storms.
//!
//! Every seeded schedule must terminate in a lawful state — healthy,
//! cleanly degraded (reads served, mutations `EROFS`, syncs `EIO`), or
//! recovered — with zero panics, zero lost acked `sync()` data (for
//! schedules without silent corruption), and recovery landing on
//! *exactly* the replayed prefix of the recorded mutation history, with
//! anything it refused itemized in `RecoveryStats::skipped`.
//!
//! `FAULT_STORM_SEED=<n>` pins the run to a single seed (the CI fault-
//! storm matrix fans one job out per seed); unset, a fixed sweep runs.
//! Every storm runs at each shard count in [`SHARD_COUNTS`]: one stream
//! (a dead shard is a dead mount) and the default fan-out (a dead shard
//! is a quarantined inode range).

use std::sync::Arc;

use atomfs_journal::wire::RedoOp;
use atomfs_journal::{Disk, FaultPlan, FaultyDisk, Health, JournaledFs, ShardConfig};
use atomfs_trace::{BufferSink, Event, MicroOp, TraceSink};
use atomfs_vfs::{FileSystem, FsError, SplitMix64};
use crlh::FsState;

fn seeds() -> Vec<u64> {
    match std::env::var("FAULT_STORM_SEED") {
        Ok(s) => vec![s.parse().expect("FAULT_STORM_SEED must be a u64")],
        Err(_) => (0..8).collect(),
    }
}

const SHARD_COUNTS: [usize; 2] = [1, 4];

/// Every (seed, layout) pair a storm runs under. Each pair is announced
/// as its turn comes, so a failure's captured output names the layout
/// next to the seed in the assertion message.
fn schedules() -> impl Iterator<Item = (u64, ShardConfig)> {
    seeds()
        .into_iter()
        .flat_map(|seed| SHARD_COUNTS.map(|n| (seed, ShardConfig::with_shards(n))))
        .inspect(|(seed, cfg)| eprintln!("storm: seed {seed}, {} shard(s)", cfg.shards))
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

fn mutations(recorder: &BufferSink) -> Vec<MicroOp> {
    recorder
        .snapshot()
        .iter()
        .filter_map(|e| match e {
            Event::Mutate { mop, .. } => Some(mop.clone()),
            _ => None,
        })
        .collect()
}

struct StormOutcome {
    /// Mutation count at the last `sync()` that returned `Ok` (acked).
    acked: Option<usize>,
    /// Whether the run was impaired: mount degraded, or at least one
    /// shard quarantined while the mount stayed writable.
    degraded: bool,
}

/// Whether storage has lawfully impaired this mount: whole-mount
/// degradation, or a quarantined shard whose inode range refuses
/// mutations while the mount stays healthy.
fn impaired(jfs: &JournaledFs) -> bool {
    jfs.health().is_degraded() || jfs.sharded_sink().is_some_and(|s| s.quarantine_count() > 0)
}

/// Drive a random workload, asserting the degraded-mode invariants as
/// they become observable: errors only when degraded or quarantined,
/// impairment sticky, reads always served.
fn drive(
    jfs: &JournaledFs,
    recorder: &BufferSink,
    rng: &mut SplitMix64,
    ops: usize,
) -> StormOutcome {
    let mut acked = None;
    let mut degraded = false;
    for i in 0..ops {
        let d = format!("/d{}", rng.random_range(0..3));
        let f = format!("{d}/f{}", rng.random_range(0..4));
        let g = format!("/d{}/g{}", rng.random_range(0..3), rng.random_range(0..3));
        let mut synced_now = false;
        let outcome: Result<(), FsError> = match rng.random_range(0..8) {
            0 => jfs.mkdir(&d),
            1 => jfs.mknod(&f),
            2 => jfs.write(&f, (i % 5) as u64, &[i as u8; 64]).map(|_| ()),
            3 => jfs.unlink(&f),
            4 => jfs.rename(&f, &g),
            5 => jfs.truncate(&f, (i % 40) as u64),
            6 => jfs.rmdir(&d),
            _ => {
                synced_now = true;
                jfs.sync()
            }
        };
        match outcome {
            Ok(()) => {
                if synced_now {
                    acked = Some(mutations(recorder).len());
                }
            }
            Err(FsError::ReadOnly) | Err(FsError::Io) => {
                assert!(
                    impaired(jfs),
                    "op {i}: EROFS/EIO with Healthy health and no quarantined shard"
                );
                degraded = true;
            }
            // Workload-level noise (racing against our own random
            // unlinks): not a storage outcome.
            Err(_) => {}
        }
        if degraded {
            assert!(impaired(jfs), "op {i}: impairment must be sticky");
            assert!(jfs.readdir("/").is_ok(), "op {i}: impaired reads must work");
        }
    }
    StormOutcome { acked, degraded }
}

#[test]
fn fault_storm_every_schedule_terminates_in_a_lawful_state() {
    for (seed, cfg) in schedules() {
        let plan = FaultPlan::storm(seed);
        let disk = Arc::new(Disk::new());
        let dev = Arc::new(FaultyDisk::new(Arc::clone(&disk), plan));
        let recorder = Arc::new(BufferSink::new());
        let jfs = JournaledFs::create_sharded_observed(
            dev,
            cfg,
            Arc::clone(&recorder) as Arc<dyn TraceSink>,
        );
        let mut rng = SplitMix64::new(seed ^ 0x5EED);
        let out = drive(&jfs, &recorder, &mut rng, 160);
        if let Health::Healthy = jfs.health() {
            assert!(
                !out.degraded || impaired(&jfs),
                "seed {seed}: health lost the degradation"
            );
        }
        // Read-only gating stops every op that has not yet started, so a
        // healthy run drops nothing, and a degraded run can drop at most
        // the trailing micro-ops of the single op in flight when the
        // device died (an op emits at most a handful of micro-ops).
        let dropped = jfs.health_report().dropped_events;
        if !out.degraded {
            assert_eq!(dropped, 0, "seed {seed}: healthy run dropped events");
        } else {
            assert!(
                dropped <= 4,
                "seed {seed}: {dropped} drops — gating failed to stop a post-degradation op"
            );
        }
        let muts = mutations(&recorder);
        drop(jfs);

        // Crash with a seeded adversarial subset of queued writes kept.
        let keep_mod = 2 + (seed % 4);
        disk.crash(|i| (i as u64).is_multiple_of(keep_mod));

        let (recovered, stats) =
            JournaledFs::recover_sharded(Arc::clone(&disk), cfg).expect("recovery never fails");
        let k = stats.ops_replayed;
        assert!(k <= muts.len(), "seed {seed}: replayed invented history");
        let states = prefix_states(&muts);
        assert!(
            fs_matches_state(&recovered, &states[k]),
            "seed {seed}: recovered tree is not exactly the {k}-mutation prefix of {}",
            muts.len()
        );
        // Silent-corruption classes (torn writes, bit flips) may destroy
        // data *after* it was acked; every other schedule must keep
        // every acked mutation.
        if !plan.corrupts_silently() {
            if let Some(acked) = out.acked {
                assert!(
                    k >= acked,
                    "seed {seed}: lost acked sync data (prefix {k} < acked {acked})"
                );
            }
        }
        // The recovered mount (fresh generation on the raw platter) works.
        recovered.mkdir("/post-recovery").unwrap();
        recovered.sync().unwrap();
    }
}

#[test]
fn transient_only_schedules_stay_healthy_and_lose_nothing() {
    for (seed, cfg) in schedules() {
        let plan = FaultPlan::none(seed).with_transient(3_000, 3_000, 3_000);
        let disk = Arc::new(Disk::new());
        let dev = Arc::new(FaultyDisk::new(Arc::clone(&disk), plan));
        let recorder = Arc::new(BufferSink::new());
        let jfs = JournaledFs::create_sharded_observed(
            dev,
            cfg,
            Arc::clone(&recorder) as Arc<dyn TraceSink>,
        );
        let mut rng = SplitMix64::new(seed);
        let out = drive(&jfs, &recorder, &mut rng, 120);
        assert!(
            !out.degraded,
            "seed {seed}: the retry policy failed to absorb a ~4.6% transient rate"
        );
        assert_eq!(jfs.health(), Health::Healthy);
        let muts = mutations(&recorder);
        drop(jfs);
        disk.crash(|_| false);
        let (recovered, stats) =
            JournaledFs::recover_sharded(Arc::clone(&disk), cfg).expect("recovery never fails");
        let k = stats.ops_replayed;
        assert!(fs_matches_state(&recovered, &prefix_states(&muts)[k]));
        if let Some(acked) = out.acked {
            assert!(k >= acked, "seed {seed}: lost acked data under transients");
        }
        // Skip offsets are region-relative, so they compare against the
        // mount's `log_bytes` only when there is one region.
        assert!(
            cfg.shards > 1 || stats.skipped.iter().all(|s| s.offset >= stats.log_bytes),
            "seed {seed}: a skipped record inside the replayed prefix"
        );
    }
}

#[test]
fn bit_flip_storms_recover_to_an_itemized_prefix() {
    for (seed, cfg) in schedules() {
        let plan = FaultPlan::none(seed).with_bit_flips(20_000);
        let disk = Arc::new(Disk::new());
        let dev = Arc::new(FaultyDisk::new(Arc::clone(&disk), plan));
        let recorder = Arc::new(BufferSink::new());
        let jfs = JournaledFs::create_sharded_observed(
            dev,
            cfg,
            Arc::clone(&recorder) as Arc<dyn TraceSink>,
        );
        let mut rng = SplitMix64::new(seed.wrapping_mul(31));
        let out = drive(&jfs, &recorder, &mut rng, 120);
        let muts = mutations(&recorder);
        drop(jfs);
        disk.crash(|_| false);
        let (recovered, stats) =
            JournaledFs::recover_sharded(Arc::clone(&disk), cfg).expect("recovery never fails");
        let k = stats.ops_replayed;
        // Always prefix-exact, even when rot ate acked records...
        assert!(
            fs_matches_state(&recovered, &prefix_states(&muts)[k]),
            "seed {seed}: recovery under bit rot must still land on a prefix"
        );
        // ...and when it did, the loss is *reported*, never silent.
        if let Some(acked) = out.acked {
            if k < acked {
                assert!(
                    !stats.skipped.is_empty(),
                    "seed {seed}: lost acked records without itemizing the skip"
                );
            }
        }
    }
}

#[test]
fn checker_accepts_the_trace_of_degraded_runs() {
    use crlh::{CheckerConfig, HelperMode, LpChecker, RelationCadence};
    for (seed, cfg) in schedules() {
        let plan = FaultPlan::none(seed).with_permanent_failure_after(30 + seed * 7);
        let disk = Arc::new(Disk::new());
        let dev = Arc::new(FaultyDisk::new(Arc::clone(&disk), plan));
        let check_cfg = CheckerConfig {
            mode: HelperMode::Helpers,
            relation: RelationCadence::AtUnlock,
            invariants: true,
        };
        let sink = Arc::new(BufferSink::new());
        let jfs =
            JournaledFs::create_sharded_observed(dev, cfg, Arc::clone(&sink) as Arc<dyn TraceSink>);
        let mut rng = SplitMix64::new(seed);
        let mut degraded = false;
        for i in 0..200 {
            let f = format!("/f{}", rng.random_range(0..10));
            let r = match rng.random_range(0..4) {
                0 => jfs.mknod(&f),
                1 => jfs.write(&f, 0, &[i as u8; 32]).map(|_| ()),
                2 => jfs.unlink(&f),
                _ => jfs.sync(),
            };
            if matches!(r, Err(FsError::ReadOnly) | Err(FsError::Io)) {
                degraded = true;
            }
        }
        assert!(degraded, "seed {seed}: device never died; storm too gentle");
        drop(jfs);
        // The trace the checker saw contains exactly the mutations that
        // happened — degraded-mode gating refuses mutations *before*
        // AtomFS, so no half-performed op ever reaches the stream.
        let report = LpChecker::check(check_cfg, &sink.take());
        report.assert_ok();
    }
}

/// Full storms, second schedule: every seed recovers to an exact prefix
/// of the recorded mutation history, and parallel recovery is
/// indistinguishable from the sequential one on the same platter.
#[test]
fn storms_recover_prefix_exact_and_parallel_equals_sequential() {
    for (seed, cfg) in schedules() {
        let plan = FaultPlan::storm(seed);
        let disk = Arc::new(Disk::new());
        let dev = Arc::new(FaultyDisk::new(Arc::clone(&disk), plan));
        let recorder = Arc::new(BufferSink::new());
        let jfs = JournaledFs::create_sharded_observed(
            dev,
            cfg,
            Arc::clone(&recorder) as Arc<dyn TraceSink>,
        );
        let mut rng = SplitMix64::new(seed ^ 0x5A4D);
        let out = drive(&jfs, &recorder, &mut rng, 160);
        let muts = mutations(&recorder);
        drop(jfs);

        let keep_mod = 2 + (seed % 4);
        disk.crash(|i| (i as u64).is_multiple_of(keep_mod));

        // Parallel and sequential shard scans resolve identically.
        let par = atomfs_journal::recover_sharded(&disk, &cfg);
        let seq = atomfs_journal::recover_sharded_sequential(&disk, &cfg);
        assert_eq!(par.gen, seq.gen, "seed {seed}: generations diverge");
        assert_eq!(par.ops, seq.ops, "seed {seed}: replayed streams diverge");
        assert_eq!(
            par.sealed_epoch, seq.sealed_epoch,
            "seed {seed}: sealed-epoch HWMs diverge"
        );

        let (recovered, stats) =
            JournaledFs::recover_sharded(Arc::clone(&disk), cfg).expect("recovery never fails");
        let k = stats.ops_replayed;
        assert!(k <= muts.len(), "seed {seed}: replayed invented history");
        assert!(
            fs_matches_state(&recovered, &prefix_states(&muts)[k]),
            "seed {seed}: sharded recovery is not the {k}-mutation prefix of {}",
            muts.len()
        );
        if !plan.corrupts_silently() {
            if let Some(acked) = out.acked {
                assert!(
                    k >= acked,
                    "seed {seed}: lost an acked epoch (prefix {k} < acked {acked})"
                );
            }
        }
        recovered.mkdir("/post-recovery").unwrap();
        recovered.sync().unwrap();
    }
}

/// Shard-asymmetric failure: exactly one shard's device region dies
/// mid-run. The mount must **not** degrade — the dead shard is
/// quarantined, its inode range refuses mutations, sibling shards stay
/// fault-free and writable — and recovery must replay the surviving
/// history around exactly the quarantine-recorded loss windows.
#[test]
fn one_dead_shard_quarantines_only_its_inode_range() {
    for seed in seeds() {
        let cfg = ShardConfig::with_shards(4);
        let shards = cfg.shard_count();
        // Keep the root's shard alive so path operations (which route by
        // the parent directory) can still demonstrate a writable mount.
        let root_shard = atomfs_journal::shard_of(atomfs_trace::ROOT_INUM, shards);
        let victim = (root_shard + 1 + (seed as usize % (shards - 1))) % shards;
        let plan = FaultPlan::none(seed)
            .with_permanent_failure_after(2 + seed % 3)
            .with_region(cfg.region_base(victim), cfg.region_base(victim + 1));
        let disk = Arc::new(Disk::new());
        let dev = Arc::new(FaultyDisk::new(Arc::clone(&disk), plan));
        let recorder = Arc::new(BufferSink::new());
        let jfs = JournaledFs::create_sharded_observed(
            dev,
            cfg,
            Arc::clone(&recorder) as Arc<dyn TraceSink>,
        );
        let mut rng = SplitMix64::new(seed ^ 0xDEAD);
        let out = drive(&jfs, &recorder, &mut rng, 200);
        assert!(out.degraded, "seed {seed}: the dead region was never hit");
        // Partial degradation: the mount survives with one shard dark.
        assert_eq!(
            jfs.health(),
            Health::Healthy,
            "seed {seed}: one dead shard must not degrade the whole mount"
        );
        let sink = jfs.sharded_sink().expect("sharded mount");
        assert_eq!(
            sink.quarantined_shards(),
            vec![victim],
            "seed {seed}: exactly the victim shard is quarantined"
        );
        let reports = sink.shard_reports();
        assert!(reports[victim].dead, "seed {seed}: victim not marked dead");
        for (i, r) in reports.iter().enumerate() {
            if i != victim {
                assert!(!r.dead, "seed {seed}: healthy shard {i} marked dead");
                assert_eq!(r.faults, 0, "seed {seed}: faults leaked to shard {i}");
            }
        }
        // Live ranges keep accepting and acking mutations.
        jfs.mkdir(&format!("/alive-{seed}")).unwrap();
        jfs.sync().unwrap();
        let muts = mutations(&recorder);
        drop(jfs);
        disk.crash(|i| (i as u64) % 3 != 1);

        let par = atomfs_journal::recover_sharded(&disk, &cfg);
        let seq = atomfs_journal::recover_sharded_sequential(&disk, &cfg);
        assert_eq!(par.ops, seq.ops, "seed {seed}: parallel != sequential");
        assert_eq!(
            par.quarantined_mask, seq.quarantined_mask,
            "seed {seed}: quarantine records diverge"
        );
        assert_eq!(
            par.quarantined_shards(),
            vec![victim],
            "seed {seed}: recovery must surface the quarantine"
        );

        // Exact oracle: the workload is single-threaded, so the n-th
        // recorded mutation carries stamp n. Recovery never invents
        // history (every admitted stamp matches the recorded stream) and
        // never silently drops it (every stamp below the truncation bound
        // that no recorded loss window covers must be admitted). Window
        // stamps themselves MAY still appear: a failed slice can be
        // partially durable, and windows only license skipping stamps
        // recovery cannot find — they never suppress found ones.
        let bound = par.truncated_at.unwrap_or(u64::MAX);
        let in_window = |s: u64| par.lost_windows.iter().any(|&(lo, hi)| s >= lo && s < hi);
        for (s, m) in &par.ops {
            assert_eq!(
                muts.get(*s as usize).map(RedoOp::from).as_ref(),
                Some(m),
                "seed {seed}: stamp {s} replays something never recorded"
            );
        }
        let present: std::collections::HashSet<u64> = par.ops.iter().map(|(s, _)| *s).collect();
        for s in 0..muts.len() as u64 {
            if s < bound && !in_window(s) {
                assert!(
                    present.contains(&s),
                    "seed {seed}: stamp {s} lost without a licensing window or truncation"
                );
            }
        }

        let (recovered, stats) =
            JournaledFs::recover_sharded(Arc::clone(&disk), cfg).expect("recovery never fails");
        assert_eq!(
            stats.lost_ops, par.lost_ops,
            "seed {seed}: loss accounting diverges"
        );
        let (expected_state, _) = par.replay_tolerant();
        assert!(
            fs_matches_state(&recovered, &expected_state),
            "seed {seed}: recovered tree must be the tolerant replay of the admitted history"
        );
        recovered.mkdir("/post-recovery").unwrap();
        recovered.sync().unwrap();
    }
}

/// Cross-shard rename atomicity under fault × crash schedules: for every
/// seeded fault plan and every crash subset, each renamed file recovers
/// either fully at its destination or fully at its source — never in
/// both places, and never half-moved (the truncation boundary may not
/// split an intent's `Del`/`Ins` pair).
#[test]
fn cross_shard_renames_are_atomic_across_fault_and_crash_schedules() {
    const FILES: usize = 12;
    for seed in seeds() {
        for keep_mod in [2u64, 3, 5] {
            let cfg = ShardConfig::default();
            // Transients exercise the retry path; torn writes can eat an
            // intent or seal frame, which is exactly the schedule that
            // must discard — not dangle — the rename.
            let plan = FaultPlan::none(seed ^ (keep_mod << 32))
                .with_transient(2_000, 2_000, 2_000)
                .with_torn_writes(1_500);
            let disk = Arc::new(Disk::new());
            let dev = Arc::new(FaultyDisk::new(Arc::clone(&disk), plan));
            let recorder = Arc::new(BufferSink::new());
            let jfs = JournaledFs::create_sharded_observed(
                dev,
                cfg,
                Arc::clone(&recorder) as Arc<dyn TraceSink>,
            );
            jfs.mkdir("/a").unwrap();
            jfs.mkdir("/b").unwrap();
            for i in 0..FILES {
                jfs.mknod(&format!("/a/f{i}")).unwrap();
                jfs.write(&format!("/a/f{i}"), 0, &[i as u8; 24]).unwrap();
            }
            let _ = jfs.sync();
            let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37).wrapping_add(keep_mod));
            for i in 0..FILES {
                let _ = jfs.rename(&format!("/a/f{i}"), &format!("/b/g{i}"));
                if rng.random_range(0..3) == 0 {
                    let _ = jfs.sync();
                }
            }
            let muts = mutations(&recorder);
            drop(jfs);
            disk.crash(|i| (i as u64).is_multiple_of(keep_mod));

            let par = atomfs_journal::recover_sharded(&disk, &cfg);
            let seq = atomfs_journal::recover_sharded_sequential(&disk, &cfg);
            assert_eq!(
                par.ops, seq.ops,
                "seed {seed} keep {keep_mod}: parallel != sequential"
            );

            let (recovered, stats) =
                JournaledFs::recover_sharded(Arc::clone(&disk), cfg).expect("recovery never fails");
            let k = stats.ops_replayed;
            assert!(
                fs_matches_state(&recovered, &prefix_states(&muts)[k]),
                "seed {seed} keep {keep_mod}: recovery must land on an exact prefix"
            );
            // The boundary never splits a rename: a rename records its
            // Del and Ins adjacently (same child), and intent framing
            // admits or discards them together.
            for i in 0..muts.len().saturating_sub(1) {
                if let (MicroOp::Del { child: c, .. }, MicroOp::Ins { child: c2, .. }) =
                    (&muts[i], &muts[i + 1])
                {
                    if c == c2 {
                        assert_ne!(
                            k,
                            i + 1,
                            "seed {seed} keep {keep_mod}: prefix ends between a rename's Del and Ins"
                        );
                    }
                }
            }
            // Every file is in at most one place — never both (a file in
            // neither place means its very creation fell past the
            // truncation or a torn write ate it, which the prefix check
            // above already validated).
            for i in 0..FILES {
                let at_src = recovered.stat(&format!("/a/f{i}")).is_ok();
                let at_dst = recovered.stat(&format!("/b/g{i}")).is_ok();
                assert!(
                    !(at_src && at_dst),
                    "seed {seed} keep {keep_mod}: file {i} dangles in both places"
                );
            }
        }
    }
}
