//! The paper's interleaving diagrams as executable scenarios.
//!
//! Figure 1 / 4(b) / 4(c) live in `crates/crlh/tests/end_to_end.rs`
//! (they exercise checker internals); this file covers the remaining
//! cases at the public API level: Figure 4(a) — the benign interleaving
//! where fixed LPs suffice — plus helping across every operation type
//! and a deterministic replay guard.

use std::sync::Arc;

use atomfs::AtomFs;
use atomfs_trace::{set_current_tid, BufferSink, Event, GateSink, Tid, TraceSink};
use atomfs_vfs::{FileSystem, FsError};
use crlh::history::History;
use crlh::{CheckerConfig, HelperMode, LpChecker, RelationCadence};

/// Figure 4(a): ins(/a, c) completes before del(/, a) begins — no path
/// inter-dependency, and even *fixed* LPs linearize the history.
#[test]
fn figure_4a_fixed_lps_suffice_without_interference() {
    let sink = Arc::new(BufferSink::new());
    let fs = AtomFs::traced(sink.clone() as Arc<dyn TraceSink>);
    set_current_tid(Tid(101));
    fs.mkdir("/a").unwrap();
    set_current_tid(Tid(102));
    fs.mknod("/a/c").unwrap(); // ins
    set_current_tid(Tid(103));
    assert_eq!(fs.rmdir("/a"), Err(FsError::NotEmpty)); // del(/,a) fails
    fs.unlink("/a/c").unwrap();
    fs.rmdir("/a").unwrap();

    let events = sink.take();
    for mode in [HelperMode::Helpers, HelperMode::FixedLp] {
        let report = LpChecker::check(
            CheckerConfig {
                mode,
                relation: RelationCadence::EveryEvent,
                invariants: true,
            },
            &events,
        );
        report.assert_ok();
        assert_eq!(report.stats.helps, 0, "no helping needed in {mode:?}");
    }
    crlh::wgl::check_linearizable(&History::from_trace(&events)).unwrap();
}

/// Helping works for every operation kind the paper's Figure 2 covers:
/// park each op type inside the to-be-renamed subtree, let a rename
/// complete, and verify the execution checks clean with ≥1 help.
#[test]
fn every_operation_kind_can_be_helped() {
    struct Case {
        name: &'static str,
        run: fn(&AtomFs) -> Result<(), FsError>,
    }
    let cases = [
        Case {
            name: "mknod",
            run: |fs| fs.mknod("/a/e/sub/new"),
        },
        Case {
            name: "mkdir",
            run: |fs| fs.mkdir("/a/e/sub/newdir"),
        },
        Case {
            name: "unlink",
            run: |fs| fs.unlink("/a/e/sub/victim"),
        },
        Case {
            name: "rmdir",
            run: |fs| fs.rmdir("/a/e/sub/vdir"),
        },
        Case {
            name: "truncate",
            run: |fs| fs.truncate("/a/e/sub/victim", 1),
        },
        Case {
            name: "rename-within",
            run: |fs| fs.rename("/a/e/sub/victim", "/a/e/sub/renamed"),
        },
    ];
    for (i, case) in cases.iter().enumerate() {
        let sink = Arc::new(GateSink::new(BufferSink::new()));
        let fs = Arc::new(AtomFs::traced(sink.clone() as Arc<dyn TraceSink>));
        for d in ["/a", "/a/e", "/a/e/sub", "/dst"] {
            fs.mkdir(d).unwrap();
        }
        fs.mknod("/a/e/sub/victim").unwrap();
        fs.write("/a/e/sub/victim", 0, b"v").unwrap();
        fs.mkdir("/a/e/sub/vdir").unwrap();

        let tid = Tid(6000 + i as u32);
        let gate = sink.add_gate(move |e| {
            matches!(e, Event::Mutate { tid: t, .. } if *t == tid)
                || matches!(e, Event::Lp { tid: t } if *t == tid)
        });
        let fs2 = Arc::clone(&fs);
        let run = case.run;
        let worker = std::thread::spawn(move || {
            set_current_tid(tid);
            run(&fs2)
        });
        sink.wait_parked(gate);

        set_current_tid(Tid(6900 + i as u32));
        fs.rename("/a/e", "/dst/moved").unwrap();
        sink.open(gate);
        let result = worker.join().unwrap();
        assert!(
            result.is_ok(),
            "{}: helped op still succeeds: {result:?}",
            case.name
        );

        let events = sink.inner().take();
        let report = LpChecker::check(CheckerConfig::default(), &events);
        report.assert_ok();
        assert!(
            report.stats.helps >= 1,
            "{}: the rename must help the parked op",
            case.name
        );
        // Renames never take the fast path; every other kind was parked
        // after its optimistic claim, and helped from there.
        let claimed = events
            .iter()
            .any(|e| matches!(e, Event::OptValidate { tid: t, ok: true, .. } if *t == tid));
        assert_eq!(claimed, case.name != "rename-within", "{}", case.name);
    }
}

/// Two renames racing in opposite directions between two directories
/// never deadlock and always linearize (exercises the §5.2 common-
/// ancestor locking discipline under the checker).
#[test]
fn crossing_renames_linearize() {
    for round in 0..10 {
        let sink = Arc::new(BufferSink::new());
        let fs = Arc::new(AtomFs::traced(sink.clone() as Arc<dyn TraceSink>));
        fs.mkdir("/p").unwrap();
        fs.mkdir("/q").unwrap();
        fs.mknod("/p/x").unwrap();
        fs.mknod("/q/y").unwrap();
        let fs1 = Arc::clone(&fs);
        let t1 = std::thread::spawn(move || {
            set_current_tid(Tid(7000 + round));
            fs1.rename("/p/x", "/q/x2")
        });
        let fs2 = Arc::clone(&fs);
        let t2 = std::thread::spawn(move || {
            set_current_tid(Tid(7100 + round));
            fs2.rename("/q/y", "/p/y2")
        });
        t1.join().unwrap().unwrap();
        t2.join().unwrap().unwrap();
        let report = LpChecker::check(CheckerConfig::default(), &sink.take());
        report.assert_ok();
    }
}

/// Subtree renames racing stat/readdir inside the moved subtree.
#[test]
fn subtree_move_vs_readers_linearize() {
    for round in 0..10u32 {
        let sink = Arc::new(BufferSink::new());
        let fs = Arc::new(AtomFs::traced(sink.clone() as Arc<dyn TraceSink>));
        fs.mkdir("/top").unwrap();
        fs.mkdir("/top/mid").unwrap();
        fs.mknod("/top/mid/leaf").unwrap();
        fs.mkdir("/other").unwrap();
        let fs1 = Arc::clone(&fs);
        let mover = std::thread::spawn(move || {
            set_current_tid(Tid(7200 + round));
            fs1.rename("/top/mid", "/other/mid2")
        });
        let fs2 = Arc::clone(&fs);
        let reader = std::thread::spawn(move || {
            set_current_tid(Tid(7300 + round));
            let a = fs2.stat("/top/mid/leaf");
            let b = fs2.readdir("/other/mid2");
            (a, b)
        });
        mover.join().unwrap().unwrap();
        let _ = reader.join().unwrap();
        let report = LpChecker::check(CheckerConfig::default(), &sink.take());
        report.assert_ok();
    }
}
