//! Differential validation of the optimistic fast path.
//!
//! The seqlock-validated walk must be an *invisible* optimization: the
//! same operations against the same state return the same results with
//! the fast path on or off. These tests pin that equivalence three ways:
//! sequentially over seeded random scripts, concurrently over a
//! deterministic disjoint-directory storm, and on a fully contended
//! 8-thread rename storm whose optimistic trace must still check clean
//! under the CRL-H checker and linearize under WGL. ROADMAP item 1's
//! pinned schedules are staged exactly, to show a mutation's claim is a
//! lock-path witness and not its linearization point.

use std::sync::Arc;
use std::time::{Duration, Instant};

use atomfs::{AtomFs, AtomFsConfig};
use atomfs_trace::{set_current_tid, BufferSink, Event, GateSink, Tid, TraceSink};
use atomfs_vfs::{FileSystem, FsError, FsResult, SplitMix64};
use atomfs_workloads::opmix::OpMix;
use crlh::history::History;
use crlh::{CheckerConfig, HelperMode, LpChecker, RelationCadence};

fn fs_with(optimistic: bool) -> AtomFs {
    AtomFs::with_config(AtomFsConfig {
        optimistic,
        ..AtomFsConfig::default()
    })
}

/// Run one random op against `fs`, returning a comparable transcript
/// entry. Both `readdir` paths read the same directory index, but its
/// order is unspecified (two instances may grow it differently), so the
/// output is sorted. `stat` also stats the parent and records `size` and
/// `nlink`: the entry and subdirectory counts the index publishes
/// through the packed metadata word.
fn exec_random(fs: &dyn FileSystem, sel: u64, x: u64) -> String {
    let d = (x % 3) as u8;
    let n = ((x >> 8) % 4) as u8;
    let p = format!("/d{d}/f{n}");
    match sel % 10 {
        0 => format!("mknod {p} {:?}", fs.mknod(&p)),
        1 => format!("mkdir {p} {:?}", fs.mkdir(&p)),
        2 => format!("unlink {p} {:?}", fs.unlink(&p)),
        3 => format!("rmdir {p} {:?}", fs.rmdir(&p)),
        4 => format!(
            "rename {p} {:?}",
            fs.rename(&p, &format!("/d{}/f{}", (x >> 16) % 3, (x >> 24) % 4))
        ),
        5 => format!(
            "stat {p} {:?} /d{d} {:?}",
            fs.stat(&p).map(|m| (m.ftype, m.size, m.nlink)),
            fs.stat(&format!("/d{d}")).map(|m| (m.size, m.nlink))
        ),
        6 => format!(
            "readdir /d{d} {:?}",
            fs.readdir(&format!("/d{d}")).map(|mut v| {
                v.sort();
                v
            })
        ),
        7 => format!("write {p} {:?}", fs.write(&p, x % 16, &[sel as u8; 7])),
        8 => format!("truncate {p} {:?}", fs.truncate(&p, x % 24)),
        _ => {
            let mut buf = [0u8; 12];
            format!(
                "read {p} {:?}",
                fs.read(&p, x % 8, &mut buf).map(|k| buf[..k].to_vec())
            )
        }
    }
}

/// Sequential scripts: op-for-op identical results with the fast path on
/// and off, across many seeds.
#[test]
fn sequential_scripts_agree_between_configs() {
    for seed in 1u64..40 {
        let opt = fs_with(true);
        let pess = fs_with(false);
        for f in [&opt, &pess] {
            for d in 0..3 {
                f.mkdir(&format!("/d{d}")).unwrap();
            }
        }
        let mut rng = SplitMix64::new(seed);
        for step in 0..200 {
            let sel = rng.next_u64();
            let x = rng.next_u64();
            let a = exec_random(&opt, sel, x);
            let b = exec_random(&pess, sel, x);
            assert_eq!(a, b, "seed {seed} diverged at step {step}");
        }
    }
}

/// Deterministic 8-thread storm: each thread owns one directory, so the
/// interleaving cannot affect results — per-thread transcripts and the
/// final tree must be identical between configs.
#[test]
fn disjoint_storm_agrees_between_configs() {
    let transcript = |optimistic: bool| -> (Vec<Vec<String>>, Vec<String>) {
        let fs = Arc::new(fs_with(optimistic));
        for t in 0..8 {
            fs.mkdir(&format!("/d{t}")).unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                let mut rng = SplitMix64::new(t);
                let mut log = Vec::new();
                for _ in 0..300 {
                    let sel = rng.next_u64();
                    let x = rng.next_u64();
                    let n = (x >> 8) % 4;
                    let p = format!("/d{t}/f{n}");
                    log.push(match sel % 6 {
                        0 => format!("mknod {:?}", fs.mknod(&p)),
                        1 => format!("write {:?}", fs.write(&p, x % 16, b"wf")),
                        2 => format!("stat {:?}", fs.stat(&p).map(|m| m.size)),
                        3 => {
                            let mut buf = [0u8; 8];
                            format!("read {:?}", fs.read(&p, 0, &mut buf))
                        }
                        4 => format!(
                            "readdir {:?}",
                            fs.readdir(&format!("/d{t}")).map(|mut v| {
                                v.sort();
                                v
                            })
                        ),
                        _ => format!("unlink {:?}", fs.unlink(&p)),
                    });
                }
                log
            }));
        }
        let logs: Vec<Vec<String>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let tree = (0..8)
            .map(|t| {
                let mut v = fs.readdir(&format!("/d{t}")).unwrap();
                v.sort();
                format!("{v:?}")
            })
            .collect();
        (logs, tree)
    };
    let (opt_logs, opt_tree) = transcript(true);
    let (pess_logs, pess_tree) = transcript(false);
    assert_eq!(opt_logs, pess_logs);
    assert_eq!(opt_tree, pess_tree);
}

/// Contended 8-thread rename storm with the fast path on: the recorded
/// mixed trace (optimistic claims interleaved with pessimistic
/// lock-coupled walks and renames) must check clean under the full
/// CRL-H admission and linearize under WGL, and the fast path must have
/// actually engaged.
#[test]
fn contended_rename_storm_trace_checks_clean() {
    let sink = Arc::new(BufferSink::new());
    let fs = Arc::new(AtomFs::traced(sink.clone() as Arc<dyn TraceSink>));
    let mix = OpMix {
        dirs: 2,
        names: 3,
        rename_weight: 10,
    };
    set_current_tid(Tid(7000));
    mix.setup(&*fs);
    let mut handles = Vec::new();
    for t in 0..8u32 {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            set_current_tid(Tid(7001 + t));
            mix.run(&*fs, 977 + u64::from(t), 120);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let events = sink.take();
    let claims = events
        .iter()
        .filter(|e| matches!(e, Event::OptValidate { ok: true, .. }))
        .count();
    assert!(claims > 0, "the storm must exercise the fast path");
    let report = LpChecker::check(
        CheckerConfig {
            mode: HelperMode::Helpers,
            relation: RelationCadence::EveryEvent,
            invariants: true,
        },
        &events,
    );
    report.assert_ok();
    // A claim is decided at its stamp, so every `ok` one is committed.
    assert_eq!(report.stats.opt_claims as usize, claims);
}

/// A storm small enough for the WGL search: its mixed trace must also
/// admit an explicit linearization witness.
#[test]
fn small_mixed_storm_is_wgl_linearizable() {
    let sink = Arc::new(BufferSink::new());
    let fs = Arc::new(AtomFs::traced(sink.clone() as Arc<dyn TraceSink>));
    let mix = OpMix {
        dirs: 2,
        names: 2,
        rename_weight: 8,
    };
    set_current_tid(Tid(7100));
    mix.setup(&*fs);
    let mut handles = Vec::new();
    for t in 0..4u32 {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            set_current_tid(Tid(7101 + t));
            mix.run(&*fs, 31 + u64::from(t), 14);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let events = sink.take();
    LpChecker::check(
        CheckerConfig {
            mode: HelperMode::Helpers,
            relation: RelationCadence::EveryEvent,
            invariants: true,
        },
        &events,
    )
    .assert_ok();
    crlh::wgl::check_linearizable(&History::from_trace(&events))
        .unwrap_or_else(|e| panic!("WGL rejected the mixed trace: {e}"));
}

/// Stage one of the pinned claim schedules on the default (optimistic)
/// config: B runs until it is parked at its first `park` event (a claim
/// parks before it is decided, matched as `OptValidate{ok:true}`), holding
/// the file or directory lock it is pinned on; A's fast-path removal then
/// claims on the root and blocks behind B; B is released once A's
/// `OptValidate{ok:true}` is in the buffer. With `b_walks`, B is first
/// pushed onto the lock-coupled walk: C's `mknod /c` parks holding the
/// root, so B's fast-path claims fail the ancestor probe until B falls
/// back. The trace must check clean (helpers, per-event relation,
/// invariants) and linearize under WGL. Returns A's and B's results and
/// the trace.
fn pinned_schedule(
    setup: fn(&AtomFs),
    b: fn(&AtomFs) -> FsResult<()>,
    b_walks: bool,
    park: fn(&Event) -> bool,
    a: fn(&AtomFs) -> FsResult<()>,
) -> (FsResult<()>, FsResult<()>, Vec<Event>) {
    let (tid_a, tid_b, tid_c) = (Tid(7202), Tid(7201), Tid(7203));
    let sink = Arc::new(GateSink::new(BufferSink::new()));
    let fs = Arc::new(AtomFs::traced(sink.clone() as Arc<dyn TraceSink>));
    set_current_tid(Tid(7200));
    setup(&fs);
    let spawn = |tid: Tid, op: fn(&AtomFs) -> FsResult<()>| {
        let fs = Arc::clone(&fs);
        std::thread::spawn(move || {
            set_current_tid(tid);
            op(&fs)
        })
    };
    let count =
        |pred: &dyn Fn(&Event) -> bool| sink.inner().snapshot().iter().filter(|e| pred(e)).count();
    let wait_until = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let gate = sink.add_gate(move |e| e.tid() == tid_b && park(e));
    let c = b_walks.then(|| {
        let c_gate = sink.add_gate(move |e| e.tid() == tid_c && is_mutate(e));
        let c = spawn(tid_c, |fs| fs.mknod("/c"));
        sink.wait_parked(c_gate);
        (c_gate, c)
    });
    let hb = spawn(tid_b, b);
    if let Some((c_gate, c)) = c {
        // Three failed attempts (`MAX_OPT_ATTEMPTS`), then the walk.
        wait_until("B never fell back to the walk", &|| {
            count(&|e| matches!(e, Event::OptValidate { tid, ok: false, .. } if *tid == tid_b)) == 3
        });
        sink.open(c_gate);
        c.join().unwrap().unwrap();
    }
    sink.wait_parked(gate);
    let ha = spawn(tid_a, a);
    let a_claim =
        move |e: &Event| matches!(e, Event::OptValidate { tid, ok: true, .. } if *tid == tid_a);
    wait_until("A never claimed on the fast path", &|| count(&a_claim) > 0);
    sink.open(gate);
    let (ra, rb) = (ha.join().unwrap(), hb.join().unwrap());
    let events = sink.inner().take();
    let claimed_at = events.iter().position(a_claim);
    let parked_at = events.iter().position(|e| e.tid() == tid_b && park(e));
    assert!(claimed_at < parked_at, "A's claim precedes B's parked step");
    LpChecker::check(
        CheckerConfig {
            mode: HelperMode::Helpers,
            relation: RelationCadence::EveryEvent,
            invariants: true,
        },
        &events,
    )
    .assert_ok();
    crlh::wgl::check_linearizable(&History::from_trace(&events))
        .unwrap_or_else(|e| panic!("WGL rejected the schedule: {e}"));
    (ra, rb, events)
}

fn is_mutate(e: &Event) -> bool {
    matches!(e, Event::Mutate { .. })
}

/// A's `unlink /f` claims while B's lock-coupled `write /f` holds the
/// file: B writes and passes its LP first, then A deletes the written
/// file.
#[test]
fn unlink_claim_behind_a_pinned_write() {
    let (ra, rb, _) = pinned_schedule(
        |fs| fs.mknod("/f").unwrap(),
        |fs| fs.write("/f", 0, b"abc").map(drop),
        true,
        is_mutate,
        |fs| fs.unlink("/f"),
    );
    assert_eq!((ra, rb), (Ok(()), Ok(())));
}

/// The `rmdir` twin: B's lock-coupled `mknod /d/g` holds the victim
/// directory, so A's claimed `rmdir /d` finds it non-empty at its LP.
#[test]
fn rmdir_claim_behind_a_pinned_create() {
    let (ra, rb, _) = pinned_schedule(
        |fs| fs.mkdir("/d").unwrap(),
        |fs| fs.mknod("/d/g"),
        true,
        is_mutate,
        |fs| fs.rmdir("/d"),
    );
    assert_eq!((ra, rb), (Err(FsError::NotEmpty), Ok(())));
}

/// The write-claim twin: B parks at its own claim, holding the file,
/// before the claim is decided. A's unlink claims on the root; B's claim,
/// decided after A's, fails the ancestor probe and is recorded `ok:false`
/// (its lock never announced), and its retry finds the file gone.
#[test]
fn refused_write_claim_behind_an_unlink_claim() {
    let (ra, rb, events) = pinned_schedule(
        |fs| fs.mknod("/f").unwrap(),
        |fs| fs.write("/f", 0, b"abc").map(drop),
        false,
        |e| matches!(e, Event::OptValidate { .. }),
        |fs| fs.unlink("/f"),
    );
    assert_eq!((ra, rb), (Ok(()), Err(FsError::NotFound)));
    let b_events: Vec<&Event> = events.iter().filter(|e| e.tid() == Tid(7201)).collect();
    let at = b_events
        .iter()
        .position(|e| matches!(e, Event::OptValidate { .. }))
        .expect("B claimed");
    assert!(matches!(
        b_events[at],
        Event::OptValidate { chain, locked: true, ok: false, .. } if chain.len() == 2
    ));
}
