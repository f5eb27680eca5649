//! End-to-end validation: real AtomFS executions through the CRL-H
//! checker, including the paper's scripted interleavings.
//!
//! These tests stage the exact scenarios of the paper's figures using
//! `GateSink`, which parks a thread at a chosen trace event while it holds
//! its locks, then replays the recorded trace through the LP checker (and,
//! for small histories, cross-validates with the generic WGL checker).

use std::sync::Arc;

use atomfs::{AtomFs, AtomFsConfig};
use atomfs_trace::{set_current_tid, BufferSink, Event, GateSink, OpDesc, Tid, TraceSink};
use atomfs_vfs::{FileSystem, FsError, SplitMix64};
use crlh::history::History;
use crlh::{CheckerConfig, HelperMode, LpChecker, RelationCadence, ViolationKind};

fn strict() -> CheckerConfig {
    CheckerConfig {
        mode: HelperMode::Helpers,
        relation: RelationCadence::EveryEvent,
        invariants: true,
    }
}

/// The staged figures park a thread mid-walk and let a rename overtake
/// it — a conflict that only exists on the lock-coupled walk. Pin the
/// pessimistic walk so the optimistic fast path cannot dissolve the
/// script by seqlock-revalidating past the parked thread.
fn staged_fs(sink: Arc<dyn TraceSink>) -> AtomFs {
    AtomFs::traced_with_config(
        sink,
        AtomFsConfig {
            optimistic: false,
            ..AtomFsConfig::default()
        },
    )
}

fn fixed_lp() -> CheckerConfig {
    CheckerConfig {
        mode: HelperMode::FixedLp,
        relation: RelationCadence::AtEnd,
        invariants: false,
    }
}

#[test]
fn sequential_operations_check_clean() {
    let sink = Arc::new(BufferSink::new());
    let fs = AtomFs::traced(sink.clone() as Arc<dyn TraceSink>);
    fs.mkdir("/a").unwrap();
    fs.mkdir("/a/b").unwrap();
    fs.mknod("/a/b/f").unwrap();
    fs.write("/a/b/f", 0, b"hello").unwrap();
    let mut buf = [0u8; 5];
    fs.read("/a/b/f", 0, &mut buf).unwrap();
    fs.rename("/a/b", "/c").unwrap();
    fs.stat("/c/f").unwrap();
    let _ = fs.stat("/a/b"); // ENOENT
    fs.truncate("/c/f", 2).unwrap();
    fs.unlink("/c/f").unwrap();
    fs.rmdir("/c").unwrap();
    fs.rmdir("/a").unwrap();
    let _ = fs.mkdir("/"); // EEXIST, stateless LP
    let events = sink.take();
    let report = LpChecker::check(strict(), &events);
    report.assert_ok();
    assert_eq!(report.stats.ops_begun, 13);
    assert_eq!(report.stats.ops_completed, 13);
    assert_eq!(report.stats.helps, 0, "no concurrency, no helping");
    // Cross-validate with the generic checker.
    crlh::wgl::check_linearizable(&History::from_trace(&events)).unwrap();
}

/// Figure 1: rename(/a, /e) overtakes an in-flight mkdir(/a/b/c) that has
/// already traversed through /a. The rename's LP must help the mkdir.
fn figure_1_trace() -> Vec<Event> {
    let sink = Arc::new(GateSink::new(BufferSink::new()));
    let fs = Arc::new(staged_fs(sink.clone() as Arc<dyn TraceSink>));
    fs.mkdir("/a").unwrap();
    fs.mkdir("/a/b").unwrap();
    // Park the mkdir just before its first mutation: it has finished its
    // walk and holds only /a/b (its parent directory).
    let gate = sink.add_gate(move |e| matches!(e, Event::Mutate { tid, .. } if *tid == Tid(102)));

    let fs2 = Arc::clone(&fs);
    let mkdir = std::thread::spawn(move || {
        set_current_tid(Tid(102));
        fs2.mkdir("/a/b/c")
    });
    sink.wait_parked(gate);

    // The rename completes while the mkdir is inside its critical section.
    set_current_tid(Tid(101));
    fs.rename("/a", "/e").unwrap();

    sink.open(gate);
    assert_eq!(mkdir.join().unwrap(), Ok(()), "mkdir still succeeds");
    assert!(fs.stat("/e/b/c").unwrap().ftype.is_dir());
    sink.inner().take()
}

#[test]
fn figure_1_helpers_linearize_the_interleaving() {
    let events = figure_1_trace();
    let report = LpChecker::check(strict(), &events);
    report.assert_ok();
    assert!(
        report.stats.helps >= 1,
        "the rename must have helped the mkdir: {:?}",
        report.stats
    );
    // The WGL checker agrees the history is linearizable, and its witness
    // puts the mkdir before the rename — the order helping established.
    let witness = crlh::wgl::check_linearizable(&History::from_trace(&events)).unwrap();
    let pos = |t: Tid| {
        witness
            .iter()
            .position(|(tid, _, _)| *tid == t)
            .expect("in witness")
    };
    assert!(
        pos(Tid(102)) < pos(Tid(101)),
        "mkdir linearizes before rename"
    );
}

#[test]
fn figure_1_fixed_lps_fail() {
    let events = figure_1_trace();
    let report = LpChecker::check(fixed_lp(), &events);
    assert!(!report.is_ok(), "fixed LPs cannot linearize Figure 1");
    assert!(
        !report.of_kind(ViolationKind::ReturnMismatch).is_empty(),
        "the mkdir's success is inexplicable without helping: {:?}",
        report.violations
    );
}

/// Figure 4(b): stat(/a/e/f) is parked inside the subtree that
/// rename(/a/e, /b/c/d/e) moves; the rename helps it linearize first.
#[test]
fn figure_4b_external_lp_for_stat() {
    let sink = Arc::new(GateSink::new(BufferSink::new()));
    let fs = Arc::new(staged_fs(sink.clone() as Arc<dyn TraceSink>));
    for d in ["/a", "/a/e", "/b", "/b/c", "/b/c/d"] {
        fs.mkdir(d).unwrap();
    }
    fs.mknod("/a/e/f").unwrap();

    // Park the stat just before its LP: its walk is complete and it holds
    // only /a/e/f.
    let gate = sink.add_gate(move |e| matches!(e, Event::Lp { tid } if *tid == Tid(203)));
    let fs2 = Arc::clone(&fs);
    let stat = std::thread::spawn(move || {
        set_current_tid(Tid(203));
        fs2.stat("/a/e/f")
    });
    sink.wait_parked(gate);

    set_current_tid(Tid(201));
    fs.rename("/a/e", "/b/c/d/e").unwrap();

    sink.open(gate);
    assert!(stat.join().unwrap().is_ok(), "helped stat still succeeds");

    let events = sink.inner().take();
    let report = LpChecker::check(strict(), &events);
    report.assert_ok();
    assert!(report.stats.helps >= 1);
    crlh::wgl::check_linearizable(&History::from_trace(&events)).unwrap();
}

/// Figure 4(c): recursive path inter-dependency. t1: rename(/b/c, /b/g)
/// helps t2: rename(/a/e, /b/c/d/e), which in turn requires helping
/// t3: stat(/a/e/f) first.
#[test]
fn figure_4c_recursive_help() {
    let sink = Arc::new(GateSink::new(BufferSink::new()));
    let fs = Arc::new(staged_fs(sink.clone() as Arc<dyn TraceSink>));
    for d in ["/a", "/a/e", "/b", "/b/c", "/b/c/d"] {
        fs.mkdir(d).unwrap();
    }
    fs.mknod("/a/e/f").unwrap();

    // t3 parks just before its LP, holding only /a/e/f.
    let gate3 = sink.add_gate(move |e| matches!(e, Event::Lp { tid } if *tid == Tid(303)));
    let fs3 = Arc::clone(&fs);
    let t3 = std::thread::spawn(move || {
        set_current_tid(Tid(303));
        fs3.stat("/a/e/f")
    });
    sink.wait_parked(gate3);

    // t2 parks just before its first mutation: it holds its source and
    // destination parents (/a and /b/c/d) plus its source node /a/e.
    let gate2 = sink.add_gate(move |e| matches!(e, Event::Mutate { tid, .. } if *tid == Tid(302)));
    let fs2 = Arc::clone(&fs);
    let t2 = std::thread::spawn(move || {
        set_current_tid(Tid(302));
        fs2.rename("/a/e", "/b/c/d/e")
    });
    sink.wait_parked(gate2);

    // t1 completes, helping t3 then t2 at its LP.
    set_current_tid(Tid(301));
    fs.rename("/b/c", "/b/g").unwrap();

    sink.open(gate3);
    sink.open(gate2);
    assert!(t3.join().unwrap().is_ok());
    assert_eq!(t2.join().unwrap(), Ok(()));
    assert!(fs.stat("/b/g/d/e/f").unwrap().ftype.is_file());

    let events = sink.inner().take();
    let report = LpChecker::check(strict(), &events);
    report.assert_ok();
    assert!(
        report.stats.helps >= 2,
        "both t2 and t3 must be helped: {:?}",
        report.stats
    );
    assert!(report.stats.max_helpset >= 2);
    crlh::wgl::check_linearizable(&History::from_trace(&events)).unwrap();
}

/// A helped *failing* operation: the stat targets a name that does not
/// exist; helping must record the failure and the concrete execution must
/// reproduce it.
#[test]
fn helped_operation_with_failure_result() {
    let sink = Arc::new(GateSink::new(BufferSink::new()));
    let fs = Arc::new(staged_fs(sink.clone() as Arc<dyn TraceSink>));
    fs.mkdir("/a").unwrap();
    fs.mkdir("/a/e").unwrap();
    fs.mkdir("/a/e/sub").unwrap();
    fs.mkdir("/dst").unwrap();

    // The stat parks just before its (failure) LP, holding /a/e/sub —
    // strictly inside the subtree the rename is about to move.
    let gate = sink.add_gate(move |e| matches!(e, Event::Lp { tid } if *tid == Tid(403)));
    let fs2 = Arc::clone(&fs);
    let stat = std::thread::spawn(move || {
        set_current_tid(Tid(403));
        fs2.stat("/a/e/sub/missing")
    });
    sink.wait_parked(gate);

    set_current_tid(Tid(401));
    fs.rename("/a/e", "/dst/e2").unwrap();

    sink.open(gate);
    assert_eq!(stat.join().unwrap(), Err(FsError::NotFound));

    let events = sink.inner().take();
    let report = LpChecker::check(strict(), &events);
    report.assert_ok();
    assert!(report.stats.helps >= 1);
}

/// A helped *write*: data-path operations are path-based in AtomFS (§5.4)
/// and get helped like metadata operations.
#[test]
fn helped_write_inside_moved_subtree() {
    let sink = Arc::new(GateSink::new(BufferSink::new()));
    let fs = Arc::new(staged_fs(sink.clone() as Arc<dyn TraceSink>));
    fs.mkdir("/a").unwrap();
    fs.mkdir("/a/e").unwrap();
    fs.mkdir("/a/e/sub").unwrap();
    fs.mknod("/a/e/sub/f").unwrap();
    fs.mkdir("/dst").unwrap();

    // The write parks just before its data mutation, holding only /a/e/sub/f.
    let gate = sink.add_gate(move |e| matches!(e, Event::Mutate { tid, .. } if *tid == Tid(503)));
    let fs2 = Arc::clone(&fs);
    let write = std::thread::spawn(move || {
        set_current_tid(Tid(503));
        fs2.write("/a/e/sub/f", 0, b"helped write")
    });
    sink.wait_parked(gate);

    set_current_tid(Tid(501));
    fs.rename("/a/e", "/dst/e").unwrap();

    sink.open(gate);
    assert_eq!(write.join().unwrap(), Ok(12));
    let mut buf = [0u8; 12];
    fs.read("/dst/e/sub/f", 0, &mut buf).unwrap();
    assert_eq!(&buf, b"helped write");

    let events = sink.inner().take();
    let report = LpChecker::check(strict(), &events);
    report.assert_ok();
    assert!(report.stats.helps >= 1);
    crlh::wgl::check_linearizable(&History::from_trace(&events)).unwrap();
}

/// Concurrent stress: random operations over a small tree from many
/// threads, checked online with full invariants.
#[test]
fn random_stress_checks_clean() {
    for seed in 0..4u64 {
        let cfg = CheckerConfig {
            mode: HelperMode::Helpers,
            relation: RelationCadence::AtUnlock,
            invariants: true,
        };
        let sink = Arc::new(BufferSink::new());
        let fs = Arc::new(AtomFs::traced(sink.clone() as Arc<dyn TraceSink>));
        for d in ["/d0", "/d1", "/d0/s0", "/d1/s1"] {
            let _ = fs.mkdir(d);
        }
        let mut handles = Vec::new();
        for t in 0..6u64 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                set_current_tid(Tid(1000 + (seed * 10 + t) as u32));
                let mut rng = SplitMix64::new(seed * 100 + t);
                let dirs = ["/d0", "/d1", "/d0/s0", "/d1/s1"];
                for i in 0..60 {
                    let d = dirs[rng.random_range(0..dirs.len())];
                    let d2 = dirs[rng.random_range(0..dirs.len())];
                    let name = format!("{d}/n{}", rng.random_range(0..4));
                    let name2 = format!("{d2}/n{}", rng.random_range(0..4));
                    match rng.random_range(0..10) {
                        0 => {
                            let _ = fs.mknod(&name);
                        }
                        1 => {
                            let _ = fs.mkdir(&name);
                        }
                        2 => {
                            let _ = fs.unlink(&name);
                        }
                        3 => {
                            let _ = fs.rmdir(&name);
                        }
                        4 | 5 => {
                            let _ = fs.rename(&name, &name2);
                        }
                        6 => {
                            let _ = fs.stat(&name);
                        }
                        7 => {
                            let _ = fs.readdir(d);
                        }
                        8 => {
                            let _ = fs.write(&name, (i % 7) as u64, b"data");
                        }
                        _ => {
                            let mut buf = [0u8; 8];
                            let _ = fs.read(&name, 0, &mut buf);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        drop(fs);
        let report = LpChecker::check(cfg, &sink.take());
        report.assert_ok();
        assert!(report.stats.ops_completed > 300);
    }
}

/// Small-history cross-validation: LP checker and WGL agree on randomly
/// generated concurrent executions.
#[test]
fn wgl_cross_validation_on_small_histories() {
    for seed in 0..8u64 {
        let sink = Arc::new(BufferSink::new());
        let fs = Arc::new(AtomFs::traced(sink.clone() as Arc<dyn TraceSink>));
        let _ = fs.mkdir("/d");
        let mut handles = Vec::new();
        for t in 0..3u64 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                set_current_tid(Tid(2000 + (seed * 4 + t) as u32));
                let mut rng = SplitMix64::new(seed * 31 + t);
                for _ in 0..5 {
                    let name = format!("/d/x{}", rng.random_range(0..3));
                    let name2 = format!("/d/y{}", rng.random_range(0..2));
                    match rng.random_range(0..5) {
                        0 => {
                            let _ = fs.mknod(&name);
                        }
                        1 => {
                            let _ = fs.rename(&name, &name2);
                        }
                        2 => {
                            let _ = fs.unlink(&name);
                        }
                        3 => {
                            let _ = fs.stat(&name2);
                        }
                        _ => {
                            let _ = fs.readdir("/d");
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = sink.take();
        let report = LpChecker::check(strict(), &events);
        report.assert_ok();
        crlh::wgl::check_linearizable(&History::from_trace(&events))
            .unwrap_or_else(|e| panic!("seed {seed}: WGL disagrees: {e}"));
    }
}

/// The abstract spec and the concrete FS agree on the maximum file size.
#[test]
fn max_file_size_constants_agree() {
    assert_eq!(crlh::afs::MAX_FILE_SIZE, atomfs::blocks::MAX_FILE_SIZE);
}

/// Writes and truncates past the maximum file size — one of them at an
/// offset whose end wraps `u64` — fail with `EFBIG` concretely and in the
/// abstract spec alike.
#[test]
fn file_size_bound_checks_clean() {
    let max = crlh::afs::MAX_FILE_SIZE;
    let sink = Arc::new(BufferSink::new());
    let fs = AtomFs::traced(sink.clone() as Arc<dyn TraceSink>);
    fs.mknod("/f").unwrap();
    fs.write("/f", 0, b"head").unwrap();
    for offset in [max - 1, max, u64::MAX - 1] {
        assert_eq!(
            fs.write("/f", offset, b"xy"),
            Err(FsError::FileTooBig),
            "offset {offset}"
        );
    }
    assert_eq!(fs.truncate("/f", max + 1), Err(FsError::FileTooBig));
    assert_eq!(fs.stat("/f").unwrap().size, 4);
    LpChecker::check(strict(), &sink.take()).assert_ok();
}

/// Both callers of the victim free — `unlink` and `rename` over an
/// existing non-empty file — record effects the checker replays: each
/// drops one inode and returns the store to the survivor's blocks.
#[test]
fn victim_frees_check_clean() {
    type Op = fn(&AtomFs) -> atomfs_vfs::FsResult<()>;
    let rows: [(&str, Op); 2] = [
        ("unlink", |fs| fs.unlink("/victim")),
        ("rename", |fs| fs.rename("/survivor", "/victim")),
    ];
    for (name, remove) in rows {
        let sink = Arc::new(BufferSink::new());
        let fs = AtomFs::traced(sink.clone() as Arc<dyn TraceSink>);
        fs.mknod("/survivor").unwrap();
        fs.write("/survivor", 0, b"kept").unwrap();
        let survivor_blocks = fs.allocated_blocks();
        fs.mknod("/victim").unwrap();
        fs.write("/victim", 0, &vec![1u8; 10_000]).unwrap();
        let live = fs.live_inodes();
        remove(&fs).unwrap();
        assert_eq!(fs.live_inodes(), live - 1, "{name}");
        assert_eq!(fs.allocated_blocks(), survivor_blocks, "{name}");
        LpChecker::check(strict(), &sink.take()).assert_ok();
    }
}

/// Sanity for the scripted-interleaving machinery itself: a parked thread
/// really holds its lock (another op on the same path blocks).
#[test]
fn gate_parks_while_holding_locks() {
    let sink = Arc::new(GateSink::new(BufferSink::new()));
    let fs = Arc::new(AtomFs::traced(sink.clone() as Arc<dyn TraceSink>));
    fs.mkdir("/a").unwrap();
    let gate = sink.add_gate(move |e| matches!(e, Event::Mutate { tid, .. } if *tid == Tid(601)));
    let fs2 = Arc::clone(&fs);
    let t = std::thread::spawn(move || {
        set_current_tid(Tid(601));
        fs2.mkdir("/a/b")
    });
    sink.wait_parked(gate);
    // /a is locked by the parked thread; a second op needing it would
    // block, so probe with a path that does not need /a.
    set_current_tid(Tid(602));
    fs.mkdir("/c").unwrap();
    assert!(sink.is_parked(gate));
    sink.open(gate);
    t.join().unwrap().unwrap();
    let report = LpChecker::check(strict(), &sink.inner().take());
    report.assert_ok();
}

#[test]
fn figure_1_events_have_expected_shape() {
    let events = figure_1_trace();
    // The mkdir's OpEnd comes after the rename's OpEnd (it was parked),
    // yet it reports success — only explicable through helping.
    let end_of = |t: u32| {
        events
            .iter()
            .position(|e| matches!(e, Event::OpEnd { tid, .. } if *tid == Tid(t)))
            .expect("completed")
    };
    assert!(end_of(101) < end_of(102));
    let begin_of = |t: u32| {
        events
            .iter()
            .position(
                |e| matches!(e, Event::OpBegin { tid, op } if *tid == Tid(t) && matches!(op, OpDesc::Rename { .. } | OpDesc::Mkdir { .. })),
            )
            .expect("begun")
    };
    assert!(begin_of(102) < begin_of(101), "mkdir began first");
}
