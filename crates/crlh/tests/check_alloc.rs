//! Allocation counts on the checker's clean path. A lockless claim is
//! decided on the abstract state in place, so what it allocates depends
//! on the path it names, not on the size of the tree; and a clean
//! streaming run allocates only for what the replay must keep. The
//! shared counting allocator (`atomfs_obs::alloc`) pins both. It counts
//! per thread, so tests running beside each other do not disturb the
//! figures.

use std::sync::Arc;

use atomfs::AtomFs;
use atomfs_obs::alloc::{measure, Counting};
use atomfs_trace::{CursorStats, Event, ShardedSink, Stamped, TraceSink};
use atomfs_vfs::{FileSystem, SplitMix64};
use crlh::{CheckerConfig, LpChecker, StreamChecker, StreamConfig};

#[global_allocator]
static A: Counting = Counting;

/// Allocations a lockless `stat /d0/f0` claim costs the checker after a
/// tree of `files` files of 4 KiB in 64 directories has been checked.
fn stat_claim_allocs(files: usize) -> u64 {
    let sink = Arc::new(ShardedSink::new());
    let fs = AtomFs::traced(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let data = vec![7u8; 4096];
    for d in 0..64 {
        fs.mkdir(&format!("/d{d}")).unwrap();
    }
    for f in 0..files {
        let path = format!("/d{}/f{}", f % 64, f / 64);
        fs.mknod(&path).unwrap();
        fs.write(&path, 0, &data).unwrap();
    }
    let mut checker = LpChecker::new(CheckerConfig::default());
    checker.feed_all_stamped(&sink.take_stamped());
    fs.stat("/d0/f0").unwrap();
    let stat = sink.take_stamped();
    assert!(
        stat.iter().any(|(_, e)| matches!(
            e,
            Event::OptValidate {
                locked: false,
                ok: true,
                ..
            }
        )),
        "the stat must complete as a lockless claim: {stat:?}"
    );
    let spent = measure(|| checker.feed_all_stamped(&stat)).allocs;
    assert!(
        checker.violations().is_empty(),
        "{:?}",
        checker.violations()
    );
    spent
}

#[test]
fn lockless_stat_claim_allocates_by_path_not_by_tree() {
    let small = stat_claim_allocs(64);
    let big = stat_claim_allocs(8192);
    println!("lockless stat claim: {small} allocations at 64 files, {big} at 8192");
    assert_eq!(
        small, big,
        "a lockless claim's allocations grew with the tree"
    );
}

/// A single-thread rename mix over three directories of four names, as
/// captured from a traced file system: the same stream every run.
fn rename_mix_capture(ops: usize) -> Vec<Stamped> {
    let sink = Arc::new(ShardedSink::new());
    let fs = AtomFs::traced(Arc::clone(&sink) as Arc<dyn TraceSink>);
    for d in 0..3 {
        fs.mkdir(&format!("/m{d}")).unwrap();
    }
    let mut rng = SplitMix64::new(34);
    let pick = |rng: &mut SplitMix64| {
        format!(
            "/m{}/f{}",
            rng.random_range(0..3u32),
            rng.random_range(0..4u32)
        )
    };
    let mut buf = [0u8; 16];
    for i in 0..ops {
        let a = pick(&mut rng);
        let b = pick(&mut rng);
        let _ = match rng.random_range(0..13u32) {
            0 => fs.mknod(&a),
            1 => fs.mkdir(&a),
            2 => fs.unlink(&a),
            3 => fs.rmdir(&a),
            4 => fs.stat(&a).map(drop),
            5 => fs.readdir("/m1").map(drop),
            6 => fs.write(&a, (i % 5) as u64, b"mix").map(drop),
            7 => fs.read(&a, 0, &mut buf).map(drop),
            8 => fs.truncate(&a, (i % 9) as u64),
            9 => fs.stat(&format!("{a}/deeper")).map(drop),
            _ => fs.rename(&a, &b),
        };
    }
    sink.take_stamped()
}

/// Clean-path allocations per operation of a streaming check, fed in
/// pump-sized borrowed batches the way the benchmark ladder feeds it.
/// Measured here before narration became lazy and lockless claims were
/// decided in place: every event formatted a narration line, every
/// claim cloned the abstract state and every batch cloned each event.
const PARENT_ALLOCS_PER_OP: f64 = 48.5;

#[test]
fn clean_streaming_check_allocates_at_most_half_as_often() {
    const OPS: usize = 4000;
    let events = rename_mix_capture(OPS);
    let ops = events
        .iter()
        .filter(|(_, e)| matches!(e, Event::OpEnd { .. }))
        .count();
    assert!(ops >= OPS, "every call ends one operation");
    let mut checker = StreamChecker::new(StreamConfig::default());
    let spent = measure(|| {
        for batch in events.chunks(256) {
            let end = batch.last().expect("non-empty chunk").0 + 1;
            checker.ingest(
                batch,
                CursorStats {
                    watermark: end,
                    frontier: end,
                    released: end,
                    buffered: 0,
                },
            );
        }
    });
    let per_op = spent.allocs as f64 / ops as f64;
    assert!(
        checker.violations().is_empty(),
        "{:?}",
        checker.violations()
    );
    println!("clean streaming check: {per_op:.1} allocations per op");
    assert!(
        per_op <= PARENT_ALLOCS_PER_OP / 2.0,
        "{per_op:.1} allocations per op; the bound is half of {PARENT_ALLOCS_PER_OP}"
    );
}
