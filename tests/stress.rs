//! Concurrency stress: many threads over a deliberately tiny, contended
//! tree, with full online CRL-H checking (invariants + roll-back
//! abstraction relation + return-value obligations) and WGL
//! cross-validation of small histories — the executable analogue of
//! running the paper's proofs against every interleaving the scheduler
//! produces.

use std::sync::Arc;

use atomfs::AtomFs;
use atomfs_trace::{set_current_tid, BufferSink, Tid, TraceSink};
use atomfs_vfs::{FileSystem, SplitMix64};
use atomfs_workloads::opmix::OpMix;
use crlh::history::History;
use crlh::{CheckerConfig, HelperMode, OnlineChecker, RelationCadence};

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

#[test]
fn online_checked_stress_default_mix() {
    for seed in 0..3u64 {
        let checker = Arc::new(OnlineChecker::new(CheckerConfig {
            mode: HelperMode::Helpers,
            relation: RelationCadence::AtUnlock,
            invariants: true,
        }));
        let fs = Arc::new(AtomFs::traced(checker.clone() as Arc<dyn TraceSink>));
        let mix = OpMix::default();
        mix.setup(&*fs);
        spawn_mix(
            Arc::clone(&fs),
            mix,
            8,
            80,
            3000 + seed as u32 * 100,
            seed * 10,
        );
        drop(fs);
        let report = Arc::into_inner(checker).expect("sole owner").finish();
        report.assert_ok();
        assert!(report.stats.ops_completed >= 8 * 80);
    }
}

#[test]
fn online_checked_stress_rename_storm() {
    // Rename-only contention maximizes helping and recursive dependency.
    let checker = Arc::new(OnlineChecker::new(CheckerConfig {
        mode: HelperMode::Helpers,
        relation: RelationCadence::AtUnlock,
        invariants: true,
    }));
    let fs = Arc::new(AtomFs::traced(checker.clone() as Arc<dyn TraceSink>));
    let mix = OpMix {
        dirs: 2,
        names: 3,
        rename_weight: 20,
    };
    mix.setup(&*fs);
    spawn_mix(Arc::clone(&fs), mix, 6, 120, 3500, 42);
    drop(fs);
    let report = Arc::into_inner(checker).expect("sole owner").finish();
    report.assert_ok();
}

#[test]
fn online_checked_deep_tree_stress() {
    let checker = Arc::new(OnlineChecker::new(CheckerConfig {
        mode: HelperMode::Helpers,
        relation: RelationCadence::AtEnd, // cheaper: long trace
        invariants: false,
    }));
    let fs = Arc::new(AtomFs::traced(checker.clone() as Arc<dyn TraceSink>));
    // A deeper skeleton so renames move whole subtrees under walkers.
    for p in ["/r", "/r/a", "/r/a/b", "/r/c", "/r/c/d"] {
        fs.mkdir(p).unwrap();
    }
    let mut handles = Vec::new();
    for t in 0..6u32 {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            set_current_tid(Tid(3700 + t));
            let mut rng = SplitMix64::new(u64::from(t) + 555);
            let spots = ["/r/a", "/r/a/b", "/r/c", "/r/c/d", "/r"];
            for i in 0..150 {
                let s = spots[rng.random_range(0..spots.len())];
                let d = spots[rng.random_range(0..spots.len())];
                match rng.random_range(0..6) {
                    0 => {
                        let _ = fs.rename(&format!("{s}/m{t}"), &format!("{d}/m{t}"));
                    }
                    1 => {
                        let _ = fs.mkdir(&format!("{s}/m{t}"));
                    }
                    2 => {
                        let _ = fs.stat(&format!("{s}/m{t}/x"));
                    }
                    3 => {
                        let _ = fs.rename(s, &format!("{d}/moved{t}_{i}"));
                    }
                    4 => {
                        let _ = fs.readdir(s);
                    }
                    _ => {
                        let _ = fs.rmdir(&format!("{s}/m{t}"));
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    drop(fs);
    let report = Arc::into_inner(checker).expect("sole owner").finish();
    report.assert_ok();
}

/// The write-vs-namespace storm behind ROADMAP item 1: data writes racing
/// creates, removals and renames on a handful of contended names, on the
/// default (optimistic) configuration. Short rounds, many of them: the
/// schedules that once produced false positives needed a fast-path claim
/// to land next to a pinned operation, which a few percent of rounds do.
/// Weights mknod 3 / unlink 2 / write 3 / rename 2 / read 1 / stat 1 /
/// truncate 1 over 3 directories x 3 names.
#[test]
fn write_vs_namespace_storm_checks_clean() {
    storm(
        "write-vs-namespace",
        1500,
        &["/s0", "/s1", "/s2"],
        |fs, next| {
            let (x, y) = (next(), next());
            let path = |v: u64| format!("/s{}/n{}", v % 3, (v >> 8) % 3);
            let (a, b) = (path(x), path(y));
            match next() % 13 {
                0..=2 => drop(fs.mknod(&a)),
                3..=4 => drop(fs.unlink(&a)),
                5..=7 => drop(fs.write(&a, y % 8, b"abc")),
                8..=9 => drop(fs.rename(&a, &b)),
                10 => drop(fs.read(&a, 0, &mut [0u8; 16])),
                11 => drop(fs.stat(&a)),
                _ => drop(fs.truncate(&a, y % 6)),
            }
        },
    );
}

/// Fast-path mutations claimed below a directory that renames keep moving
/// (`/r/a` <-> `/r/c/a`): a rename LP helps any claim it finds, so a claim
/// that then fails its post-claim validation must abort before that LP —
/// the runtime's claim gate. Without it a descheduled claimer is helped
/// and then retries (about one round in a thousand, debug build).
#[test]
fn dir_rename_storm_checks_clean() {
    storm(
        "dir-rename",
        1000,
        &["/r", "/r/a", "/r/a/b", "/r/c"],
        |fs, next| {
            let x = next();
            let base = ["/r/a/b", "/r/c/a/b", "/r/a", "/r/c/a"][(x % 4) as usize];
            let f = format!("{base}/f{}", (x >> 8) % 3);
            match (x >> 16) % 8 {
                0 => drop(fs.rename("/r/a", "/r/c/a")),
                1 => drop(fs.rename("/r/c/a", "/r/a")),
                2 | 3 => drop(fs.mknod(&f)),
                4 => drop(fs.unlink(&f)),
                5 => drop(fs.write(&f, 0, b"xy")),
                6 => drop(fs.truncate(&f, 1)),
                _ => drop(fs.stat(&f)),
            }
        },
    );
}

/// Run `rounds` rounds of 4 threads x 60 `op`s over a fresh traced AtomFs
/// holding `dirs`, checking each round (helpers, invariants). Every round
/// must check clean; the summed help count is printed.
fn storm(name: &str, rounds: u64, dirs: &[&str], op: fn(&dyn FileSystem, &mut dyn FnMut() -> u64)) {
    const THREADS: u64 = 4;
    let mut flagged = Vec::new();
    let mut helps = 0u64;
    for round in 0..rounds {
        let sink = Arc::new(BufferSink::new());
        let fs = Arc::new(AtomFs::traced(sink.clone() as Arc<dyn TraceSink>));
        set_current_tid(Tid(5000));
        for d in dirs {
            fs.mkdir(d).unwrap();
        }
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let fs = Arc::clone(&fs);
                std::thread::spawn(move || {
                    set_current_tid(Tid(5001 + t as u32));
                    let mut rng = SplitMix64::new(round * THREADS + t);
                    let mut next = move || rng.next_u64();
                    for _ in 0..60 {
                        op(&*fs, &mut next);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = crlh::LpChecker::check(CheckerConfig::default(), &sink.take());
        helps += report.stats.helps;
        if let Some(v) = report.violations.first() {
            flagged.push((round, v.to_string()));
        }
    }
    eprintln!("{name} storm: {rounds} rounds, summed helps {helps}");
    assert!(
        flagged.is_empty(),
        "{name} storm: {} of {rounds} rounds flagged; first: {:?}",
        flagged.len(),
        &flagged[..flagged.len().min(5)]
    );
}

/// RetryFs (the traversal-retry design) is also linearizable — §5.1
/// argues it meets the non-bypassable criterion differently. Validate
/// small concurrent histories with the generic WGL checker (RetryFs is
/// not instrumented, so the LP checker does not apply).
#[test]
fn retryfs_small_histories_are_linearizable() {
    use atomfs_baselines::RetryFs;
    use atomfs_trace::{OpDesc, OpRet};
    use crlh::history::HEvent;
    use parking_lot::Mutex;

    for seed in 0..6u64 {
        let fs = Arc::new(RetryFs::new());
        fs.mkdir("/d").unwrap();
        let log = Arc::new(Mutex::new(Vec::<HEvent>::new()));
        let mut handles = Vec::new();
        for t in 0..3u64 {
            let fs = Arc::clone(&fs);
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                let mut rng = SplitMix64::new(seed * 17 + t);
                let tid = Tid(4000 + (seed * 4 + t) as u32);
                for _ in 0..4 {
                    let a = format!("/d/x{}", rng.random_range(0..3));
                    let b = format!("/d/y{}", rng.random_range(0..2));
                    let kind = rng.random_range(0..4);
                    let op = match kind {
                        0 => OpDesc::Mknod {
                            path: vec!["d".into(), a[3..].into()],
                        },
                        1 => OpDesc::Rename {
                            src: vec!["d".into(), a[3..].into()],
                            dst: vec!["d".into(), b[3..].into()],
                        },
                        2 => OpDesc::Unlink {
                            path: vec!["d".into(), a[3..].into()],
                        },
                        _ => OpDesc::Readdir {
                            path: vec!["d".into()],
                        },
                    };
                    // Record inv strictly before the call and res after:
                    // the interval then contains the call's linearization
                    // point. (Recording both after the call shrinks it to
                    // the recording instant, and two threads can record in
                    // the opposite order to their linearization points.)
                    log.lock().push(HEvent::Inv { tid, op });
                    let done = |r: Result<(), _>| match r {
                        Ok(()) => OpRet::Ok,
                        Err(e) => OpRet::Err(e),
                    };
                    let ret = match kind {
                        0 => done(fs.mknod(&a)),
                        1 => done(fs.rename(&a, &b)),
                        2 => done(fs.unlink(&a)),
                        _ => match fs.readdir("/d") {
                            Ok(names) => OpRet::names(names),
                            Err(e) => OpRet::Err(e),
                        },
                    };
                    log.lock().push(HEvent::Res { tid, ret });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = Arc::into_inner(log).unwrap().into_inner();
        // The d prefix is pre-created; prepend its setup for the spec.
        let mut full = vec![
            HEvent::Inv {
                tid: Tid(1),
                op: OpDesc::Mkdir {
                    path: vec!["d".into()],
                },
            },
            HEvent::Res {
                tid: Tid(1),
                ret: OpRet::Ok,
            },
        ];
        full.extend(events);
        crlh::wgl::check_linearizable(&History { events: full })
            .unwrap_or_else(|e| panic!("seed {seed}: retryfs history not linearizable: {e}"));
    }
}

/// Determinism guard: replaying a recorded trace through the checker
/// twice yields identical outcomes (the checker itself is deterministic).
#[test]
fn checker_is_deterministic() {
    let sink = Arc::new(BufferSink::new());
    let fs = Arc::new(AtomFs::traced(sink.clone() as Arc<dyn TraceSink>));
    let mix = OpMix::default();
    mix.setup(&*fs);
    spawn_mix(Arc::clone(&fs), mix, 4, 60, 4200, 5);
    let events = sink.take();
    let a = crlh::LpChecker::check(CheckerConfig::default(), &events);
    let b = crlh::LpChecker::check(CheckerConfig::default(), &events);
    assert_eq!(a.violations.len(), b.violations.len());
    assert_eq!(a.stats.helps, b.stats.helps);
    assert_eq!(a.final_afs, b.final_afs);
    a.assert_ok();
}
