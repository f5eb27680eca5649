//! Systematic interleaving exploration — a miniature model checker.
//!
//! Stress tests sample whatever interleavings the OS scheduler produces
//! (on a single-core host, very few). This explorer *enumerates* them:
//! for a two-operation scenario it parks operation A immediately before
//! its k-th trace event, runs operation B to completion, releases A, and
//! checks the recorded execution — for every k. Because events mark every
//! atomic step (each lock acquisition, mutation, LP), this covers every
//! schedule in which B executes atomically somewhere inside A, which is
//! exactly the family of interleavings the paper's figures draw.
//!
//! Every explored schedule must (a) check clean under the CRL-H LP
//! checker with helpers, and (b) be accepted by the generic WGL checker.

use std::sync::{
    atomic::{AtomicUsize, Ordering},
    Arc,
};

use atomfs::AtomFs;
use atomfs_trace::{set_current_tid, BufferSink, Event, GateSink, Tid, TraceSink};
use atomfs_vfs::{FileSystem, FsResult};
use crlh::history::History;
use crlh::{CheckerConfig, HelperMode, LpChecker, RelationCadence};

type OpFn = Box<dyn Fn(&AtomFs) -> FsResult<()> + Send + Sync>;

struct Scenario {
    name: &'static str,
    setup: fn(&AtomFs),
    op_a: fn() -> OpFn,
    op_b: fn() -> OpFn,
}

/// Count how many trace events op A emits when run alone (the park-point
/// space). The event count can depend on state, so it is measured on a
/// fresh instance after the same setup.
fn count_events(scenario: &Scenario) -> usize {
    let sink = Arc::new(BufferSink::new());
    let fs = AtomFs::traced(sink.clone() as Arc<dyn TraceSink>);
    (scenario.setup)(&fs);
    sink.take();
    set_current_tid(Tid(9001));
    let _ = (scenario.op_a)()(&fs);
    sink.take().len()
}

/// Run the scenario with A parked before its `k`-th event; B runs to
/// completion in the gap. Returns the full trace.
fn run_with_park(scenario: &Scenario, k: usize) -> Vec<atomfs_trace::Event> {
    let sink = Arc::new(GateSink::new(BufferSink::new()));
    let fs = Arc::new(AtomFs::traced(sink.clone() as Arc<dyn TraceSink>));
    // Setup runs traced (under the main thread's tid): the checker needs
    // the whole execution from the empty file system.
    set_current_tid(Tid(9000));
    (scenario.setup)(&fs);

    let counter = Arc::new(AtomicUsize::new(0));
    let c2 = Arc::clone(&counter);
    let gate =
        sink.add_gate(move |e| e.tid() == Tid(9001) && c2.fetch_add(1, Ordering::Relaxed) == k);

    let fs_a = Arc::clone(&fs);
    let op_a = (scenario.op_a)();
    let a = std::thread::spawn(move || {
        set_current_tid(Tid(9001));
        let _ = op_a(&fs_a);
    });
    sink.wait_parked(gate);

    // B runs on its own thread: at some park points A holds a lock B
    // needs, making the "B fully inside A" schedule infeasible — B then
    // simply blocks until A resumes, which is itself a legal (and
    // checked) interleaving.
    let fs_b = Arc::clone(&fs);
    let op_b = (scenario.op_b)();
    let b = std::thread::spawn(move || {
        set_current_tid(Tid(9002));
        let _ = op_b(&fs_b);
    });
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(300);
    while !b.is_finished() && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }

    sink.open(gate);
    a.join().unwrap();
    b.join().unwrap();
    sink.inner().take()
}

fn explore(scenario: &Scenario) -> (usize, u64) {
    let n = count_events(scenario);
    assert!(n >= 2, "{}: op A must emit events", scenario.name);
    let mut total_helps = 0;
    // k = 0 parks before A's first event (B runs entirely before A);
    // k = n-1 parks before A's last event.
    for k in 0..n {
        let events = run_with_park(scenario, k);
        let report = LpChecker::check(
            CheckerConfig {
                mode: HelperMode::Helpers,
                relation: RelationCadence::EveryEvent,
                invariants: true,
            },
            &events,
        );
        assert!(
            report.is_ok(),
            "{} (park at {k}/{n}): {:?}",
            scenario.name,
            report.violations
        );
        total_helps += report.stats.helps;
        crlh::wgl::check_linearizable(&History::from_trace(&events))
            .unwrap_or_else(|e| panic!("{} (park at {k}/{n}): WGL rejected: {e}", scenario.name));
    }
    (n, total_helps)
}

fn setup_tree(fs: &AtomFs) {
    for d in ["/a", "/a/b", "/other"] {
        fs.mkdir(d).unwrap();
    }
    fs.mknod("/a/b/file").unwrap();
    fs.write("/a/b/file", 0, b"seed").unwrap();
}

#[test]
fn explore_rename_vs_mkdir() {
    let s = Scenario {
        name: "rename(/a,/e) vs mkdir(/a/b/c)",
        setup: setup_tree,
        op_a: || Box::new(|fs| fs.mkdir("/a/b/c")),
        op_b: || Box::new(|fs| fs.rename("/a", "/e")),
    };
    let (n, helps) = explore(&s);
    assert!(n > 5);
    assert!(
        helps > 0,
        "some park points must land inside the critical section and get helped"
    );
}

#[test]
fn explore_rename_vs_unlink() {
    let s = Scenario {
        name: "rename(/a,/e) vs unlink(/a/b/file)",
        setup: setup_tree,
        op_a: || Box::new(|fs| fs.unlink("/a/b/file")),
        op_b: || Box::new(|fs| fs.rename("/a", "/e")),
    };
    let (_, helps) = explore(&s);
    assert!(helps > 0);
}

#[test]
fn explore_rename_vs_stat() {
    let s = Scenario {
        name: "rename(/a,/e) vs stat(/a/b/file)",
        setup: setup_tree,
        op_a: || Box::new(|fs| fs.stat("/a/b/file").map(|_| ())),
        op_b: || Box::new(|fs| fs.rename("/a", "/e")),
    };
    explore(&s);
}

#[test]
fn explore_rename_vs_write() {
    let s = Scenario {
        name: "rename(/a,/e) vs write(/a/b/file)",
        setup: setup_tree,
        op_a: || Box::new(|fs| fs.write("/a/b/file", 0, b"overwrite").map(|_| ())),
        op_b: || Box::new(|fs| fs.rename("/a", "/e")),
    };
    let (_, helps) = explore(&s);
    assert!(helps > 0);
}

#[test]
fn explore_rename_vs_rename() {
    let s = Scenario {
        name: "rename(/a,/e) vs rename(/a/b/file,/a/b/moved)",
        setup: setup_tree,
        op_a: || Box::new(|fs| fs.rename("/a/b/file", "/a/b/moved")),
        op_b: || Box::new(|fs| fs.rename("/a", "/e")),
    };
    let (_, helps) = explore(&s);
    assert!(helps > 0);
}

#[test]
fn explore_mkdir_vs_mkdir_same_name() {
    // Racing creators of the same name: exactly one wins at every park
    // point, and the loser's EEXIST must linearize.
    let s = Scenario {
        name: "mkdir(/a/x) vs mkdir(/a/x)",
        setup: setup_tree,
        op_a: || Box::new(|fs| fs.mkdir("/a/x")),
        op_b: || Box::new(|fs| fs.mkdir("/a/x")),
    };
    explore(&s);
}

#[test]
fn explore_unlink_vs_unlink() {
    let s = Scenario {
        name: "unlink(/a/b/file) vs unlink(/a/b/file)",
        setup: setup_tree,
        op_a: || Box::new(|fs| fs.unlink("/a/b/file")),
        op_b: || Box::new(|fs| fs.unlink("/a/b/file")),
    };
    explore(&s);
}

#[test]
fn explore_deep_rename_vs_readdir() {
    let s = Scenario {
        name: "rename(/a/b,/other/b2) vs readdir(/a/b)",
        setup: setup_tree,
        op_a: || Box::new(|fs| fs.readdir("/a/b").map(|_| ())),
        op_b: || Box::new(|fs| fs.rename("/a/b", "/other/b2")),
    };
    explore(&s);
}

/// A rename that lands between an optimistic walk and its claim must
/// invalidate it: at some park point the walker's seqlock validation
/// fails and the trace shows a refused claim (`OptValidate{ok:false}`)
/// before the operation completes (by a fresh attempt or the
/// pessimistic fallback). Every such schedule still checks clean.
#[test]
fn explore_rename_invalidates_optimistic_walk() {
    let s = Scenario {
        name: "rename(/a/b,/other/b2) vs stat(/a/b/file) [optimistic]",
        setup: setup_tree,
        op_a: || Box::new(|fs| fs.stat("/a/b/file").map(|_| ())),
        op_b: || Box::new(|fs| fs.rename("/a/b", "/other/b2")),
    };
    let n = count_events(&s);
    assert!(
        n >= 3,
        "optimistic stat must emit a claim worth parking before"
    );
    let mut retries_seen = 0u64;
    for k in 0..n {
        let events = run_with_park(&s, k);
        let report = LpChecker::check(
            CheckerConfig {
                mode: HelperMode::Helpers,
                relation: RelationCadence::EveryEvent,
                invariants: true,
            },
            &events,
        );
        assert!(
            report.is_ok(),
            "{} (park at {k}/{n}): {:?}",
            s.name,
            report.violations
        );
        retries_seen += events
            .iter()
            .filter(|e| matches!(e, Event::OptValidate { tid, ok: false, .. } if *tid == Tid(9001)))
            .count() as u64;
        crlh::wgl::check_linearizable(&History::from_trace(&events))
            .unwrap_or_else(|e| panic!("{} (park at {k}/{n}): WGL rejected: {e}", s.name));
    }
    assert!(
        retries_seen > 0,
        "some park point must catch the rename mid-walk and force a retry"
    );
}
