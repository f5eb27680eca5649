//! Differential pin for streaming CRL-H checking: the verdict a
//! [`StreamChecker`] reaches by consuming the watermark-stable prefix
//! *while the run is still executing* must be identical — violations,
//! final abstract state, op counts — to the offline verdict of
//! `LpChecker::check_stamped` over the quiescent `take_stamped` merge
//! of the very same run. That equivalence is what licenses serving the
//! streaming verdict as "the" correctness signal on a live server.
//!
//! Covered here:
//! * seeded mixed storms (8 threads, contended tree) — clean runs;
//! * a degraded sharded-journal run (one dead device, quarantined
//!   shard) — refusals and all, streamed and offline agree;
//! * an injected protocol violation — caught online, same criterion
//!   tag as offline, with the `/check` endpoint flipping to FAIL, the
//!   violation gauge going non-zero, and a black box retaining the
//!   offending stamped window;
//! * bounded retention: mid-storm, the streaming checker's window
//!   census stays proportional to in-flight work, not trace length.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atomfs::AtomFs;
use atomfs_journal::{
    shard_of, BlockDevice, Disk, FaultPlan, FaultyDisk, JournaledFs, ShardConfig,
};
use atomfs_obs::Registry;
use atomfs_server::{serve_checked, PumpConfig, RemoteFs, RpcClient, ServerConfig};
use atomfs_trace::{
    set_current_tid, Event, Inum, MicroOp, OpDesc, OpRet, PathTag, ShardedSink, StatRet, Tid,
    TraceSink,
};
use atomfs_vfs::{FileSystem, FileType, FsError};
use atomfs_workloads::opmix::OpMix;
use crlh::{
    CheckReport, CheckerConfig, HelperMode, LpChecker, RelationCadence, StreamChecker, StreamConfig,
};

fn full_config() -> CheckerConfig {
    CheckerConfig {
        mode: HelperMode::Helpers,
        relation: RelationCadence::AtUnlock,
        invariants: true,
    }
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        checker: full_config(),
        ..StreamConfig::default()
    }
}

/// Follow `sink` from a dedicated thread until `done` is set *and* the
/// stream drains, then return the streaming verdict. Mirrors the
/// server's `CheckerPump`, but hand-rolled so tests can interleave
/// assertions (`max_descriptors` pins bounded retention mid-run).
fn follow_until_done(
    sink: &Arc<ShardedSink>,
    done: &Arc<AtomicBool>,
) -> std::thread::JoinHandle<(CheckReport, usize)> {
    let sink = Arc::clone(sink);
    let done = Arc::clone(done);
    std::thread::spawn(move || {
        let mut cursor = sink.follow();
        let mut checker = StreamChecker::new(stream_config());
        let mut max_descriptors = 0usize;
        loop {
            let quiescent = done.load(Ordering::Acquire);
            let batch = cursor.poll();
            if !batch.is_empty() {
                let stats = cursor.stats();
                checker.ingest(&batch, stats);
                max_descriptors = max_descriptors.max(checker.status().retained.descriptors);
            } else if quiescent {
                // One last poll already ran after `done`: drained.
                break;
            } else {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        assert!(
            cursor.finish().is_empty(),
            "quiescent poll must have drained everything"
        );
        (checker.finish(), max_descriptors)
    })
}

fn assert_same_verdict(streaming: &CheckReport, offline: &CheckReport, ctx: &str) {
    assert_eq!(
        streaming.violations.len(),
        offline.violations.len(),
        "{ctx}: violation counts differ\nstreaming: {:?}\noffline: {:?}",
        streaming.violations,
        offline.violations
    );
    for (s, o) in streaming.violations.iter().zip(&offline.violations) {
        assert_eq!(s.kind, o.kind, "{ctx}: criterion tags differ");
        assert_eq!(s.at, o.at, "{ctx}: violation positions differ");
    }
    assert_eq!(
        streaming.final_afs, offline.final_afs,
        "{ctx}: final abstract state differs"
    );
    assert_eq!(
        streaming.stats.ops_completed, offline.stats.ops_completed,
        "{ctx}: completed-op counts differ"
    );
    assert_eq!(
        streaming.stats.lps, offline.stats.lps,
        "{ctx}: LP counts differ"
    );
    assert_eq!(
        streaming.stats.helps, offline.stats.helps,
        "{ctx}: help counts differ"
    );
}

#[test]
fn streaming_verdict_equals_offline_on_seeded_mixed_storms() {
    for seed in 0..3u64 {
        let sink = Arc::new(ShardedSink::new());
        let fs = Arc::new(AtomFs::traced(Arc::clone(&sink) as Arc<dyn TraceSink>));
        let mix = OpMix::default();
        mix.setup(&*fs);
        let done = Arc::new(AtomicBool::new(false));
        let follower = follow_until_done(&sink, &done);

        let threads = 8u32;
        let mut handles = Vec::new();
        for t in 0..threads {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                set_current_tid(Tid(9000 + seed as u32 * 100 + t));
                mix.run(&*fs, seed * 31 + u64::from(t), 80);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        drop(fs);
        done.store(true, Ordering::Release);
        let (streaming, max_descriptors) = follower.join().unwrap();

        // Bounded retention: never more open descriptors than threads.
        assert!(
            max_descriptors <= threads as usize,
            "seed {seed}: {max_descriptors} descriptors retained for {threads} threads"
        );

        let stamped = sink.take_stamped();
        assert!(!stamped.is_empty());
        let offline = LpChecker::check_stamped(full_config(), &stamped);
        offline.assert_ok();
        assert_same_verdict(&streaming, &offline, &format!("seed {seed}"));
    }
}

#[test]
fn incremental_checking_matches_forced_full_scans() {
    // Clean storms: the dirty-set incremental relation/invariant paths
    // must reach the exact verdict (and check counts) of the whole-state
    // scans over the same trace.
    for seed in 0..3u64 {
        let sink = Arc::new(ShardedSink::new());
        let fs = Arc::new(AtomFs::traced(Arc::clone(&sink) as Arc<dyn TraceSink>));
        let mix = OpMix::default();
        mix.setup(&*fs);
        let threads = 6u32;
        let mut handles = Vec::new();
        for t in 0..threads {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                set_current_tid(Tid(7000 + seed as u32 * 100 + t));
                mix.run(&*fs, seed * 17 + u64::from(t), 60);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        drop(fs);
        let stamped = sink.take_stamped();
        assert!(!stamped.is_empty());
        let incr = LpChecker::check_stamped(full_config(), &stamped);
        let mut full = LpChecker::new(full_config()).with_full_scans();
        full.feed_all_stamped(&stamped);
        let full = full.finish();
        incr.assert_ok();
        assert_same_verdict(&incr, &full, &format!("incr-vs-full seed {seed}"));
        assert_eq!(
            incr.stats.relation_checks, full.stats.relation_checks,
            "seed {seed}: the incremental path must run at the same cadence"
        );
    }

    // A broken trace: first detection and every later verdict must be
    // identical message for message (after the first violation the
    // incremental checker falls back to the exact scans).
    let sink = Arc::new(ShardedSink::new());
    let fs = Arc::new(AtomFs::traced(Arc::clone(&sink) as Arc<dyn TraceSink>));
    fs.mkdir("/a").unwrap();
    sink.emit(Event::Mutate {
        tid: Tid(6060),
        mop: MicroOp::Ins {
            parent: 1,
            name: "ghost".to_string(),
            child: 4242,
        },
    });
    fs.mkdir("/b").unwrap();
    drop(fs);
    let stamped = sink.take_stamped();
    let incr = LpChecker::check_stamped(full_config(), &stamped);
    let mut full = LpChecker::new(full_config()).with_full_scans();
    full.feed_all_stamped(&stamped);
    let full = full.finish();
    assert!(!incr.is_ok());
    assert_eq!(
        incr.violations.len(),
        full.violations.len(),
        "incr: {:?}\nfull: {:?}",
        incr.violations,
        full.violations
    );
    for (a, b) in incr.violations.iter().zip(&full.violations) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.at, b.at);
        assert_eq!(a.message, b.message, "messages must match verbatim");
    }
}

/// Check `trace` incrementally and with forced full scans; the two
/// verdicts must agree message for message.
fn incremental_and_full(trace: &[Event]) -> CheckReport {
    let incr = LpChecker::check(full_config(), trace);
    let mut full = LpChecker::new(full_config()).with_full_scans();
    full.feed_all(trace);
    let full = full.finish();
    assert_same_verdict(&incr, &full, "incr-vs-full");
    for (a, b) in incr.violations.iter().zip(&full.violations) {
        assert_eq!(a.message, b.message, "messages must match verbatim");
    }
    assert_eq!(incr.stats.relation_checks, full.stats.relation_checks);
    incr
}

fn comps(path: &[&str]) -> Vec<String> {
    path.iter().map(|c| c.to_string()).collect()
}

fn lock(tid: Tid, ino: Inum, tag: PathTag) -> Event {
    Event::Lock { tid, ino, tag }
}

fn unlock(tid: Tid, ino: Inum) -> Event {
    Event::Unlock { tid, ino }
}

fn mutate(tid: Tid, mop: MicroOp) -> Event {
    Event::Mutate { tid, mop }
}

fn end(tid: Tid, ret: OpRet) -> Event {
    Event::OpEnd { tid, ret }
}

/// A lockless claim of the whole `chain`, then the operation's return.
fn lockless(tid: Tid, op: OpDesc, chain: &[Inum], ret: OpRet) -> [Event; 3] {
    [
        Event::OpBegin { tid, op },
        Event::OptValidate {
            tid,
            chain: chain.to_vec(),
            locked: false,
            ok: true,
        },
        end(tid, ret),
    ]
}

/// Figure 1's shape, with room for claims while the help is outstanding.
/// `/a/f` exists; t2's `write /a/f "xyz"` holds the file's lock when
/// t3's `rename /a /b` reaches its LP and helps it, so the write is
/// applied abstractly but not yet concretely. Then `during` runs, and
/// only after it does t2 write, pass its own LP (discharging the help)
/// and return.
fn helped_write_behind_a_rename(during: &[Event]) -> Vec<Event> {
    let (setup, writer, renamer) = (Tid(1), Tid(2), Tid(3));
    let data = b"xyz".to_vec();
    let mut trace = vec![
        Event::OpBegin {
            tid: setup,
            op: OpDesc::Mkdir {
                path: comps(&["a"]),
            },
        },
        lock(setup, 1, PathTag::Common),
        mutate(
            setup,
            MicroOp::Create {
                ino: 2,
                ftype: FileType::Dir,
            },
        ),
        mutate(
            setup,
            MicroOp::Ins {
                parent: 1,
                name: "a".into(),
                child: 2,
            },
        ),
        Event::Lp { tid: setup },
        unlock(setup, 1),
        end(setup, OpRet::Ok),
        Event::OpBegin {
            tid: setup,
            op: OpDesc::Mknod {
                path: comps(&["a", "f"]),
            },
        },
        lock(setup, 1, PathTag::Common),
        lock(setup, 2, PathTag::Common),
        unlock(setup, 1),
        mutate(
            setup,
            MicroOp::Create {
                ino: 3,
                ftype: FileType::File,
            },
        ),
        mutate(
            setup,
            MicroOp::Ins {
                parent: 2,
                name: "f".into(),
                child: 3,
            },
        ),
        Event::Lp { tid: setup },
        unlock(setup, 2),
        end(setup, OpRet::Ok),
        // The writer walks to the file and holds it.
        Event::OpBegin {
            tid: writer,
            op: OpDesc::Write {
                path: comps(&["a", "f"]),
                offset: 0,
                data: data.clone(),
            },
        },
        lock(writer, 1, PathTag::Common),
        lock(writer, 2, PathTag::Common),
        unlock(writer, 1),
        lock(writer, 3, PathTag::Common),
        unlock(writer, 2),
        // The rename moves /a and, at its LP, helps the writer.
        Event::OpBegin {
            tid: renamer,
            op: OpDesc::Rename {
                src: comps(&["a"]),
                dst: comps(&["b"]),
            },
        },
        lock(renamer, 1, PathTag::Common),
        lock(renamer, 2, PathTag::Src),
        mutate(
            renamer,
            MicroOp::Del {
                parent: 1,
                name: "a".into(),
                child: 2,
            },
        ),
        mutate(
            renamer,
            MicroOp::Ins {
                parent: 1,
                name: "b".into(),
                child: 2,
            },
        ),
        Event::Lp { tid: renamer },
        unlock(renamer, 2),
        unlock(renamer, 1),
        end(renamer, OpRet::Ok),
    ];
    trace.extend_from_slice(during);
    trace.extend([
        mutate(writer, MicroOp::replace(3, Vec::new(), data)),
        Event::Lp { tid: writer },
        unlock(writer, 3),
        end(writer, OpRet::Written(3)),
    ]);
    trace
}

#[test]
fn lockless_claims_behind_an_undischarged_help_read_the_rolled_back_state() {
    let reader = Tid(4);
    let stat = |size| {
        lockless(
            reader,
            OpDesc::Stat {
                path: comps(&["b", "f"]),
            },
            &[1, 2, 3],
            OpRet::Stat(StatRet {
                is_dir: false,
                size,
            }),
        )
    };
    let read = |data: &[u8]| {
        lockless(
            reader,
            OpDesc::Read {
                path: comps(&["b", "f"]),
                offset: 0,
                len: 16,
            },
            &[1, 2, 3],
            OpRet::Data(data.to_vec()),
        )
    };
    // While the write is helped but not yet concrete, the runtime reads
    // the empty file: the claims must be decided on the rolled-back view.
    let during = [stat(0), read(b"")].concat();
    let mut trace = helped_write_behind_a_rename(&during);
    // After the discharge the written bytes are concrete.
    trace.extend([stat(3), read(b"xyz")].concat());
    let report = incremental_and_full(&trace);
    report.assert_ok();
    assert_eq!(report.stats.helps, 1, "the rename must help the write");
    assert_eq!(report.stats.opt_claims, 4);

    // Reading the helped bytes early is what the abstract state says but
    // not what the file held: a return mismatch, on both paths alike.
    let report = incremental_and_full(&helped_write_behind_a_rename(&stat(3)));
    assert!(!report
        .of_kind(crlh::ViolationKind::ReturnMismatch)
        .is_empty());
}

#[test]
fn effect_changing_lockless_claim_is_flagged_through_the_rolled_view() {
    // A lockless `mknod /b/g` would insert into /b: no lockless claim may
    // do that, helped operations outstanding or not.
    let mknod = lockless(
        Tid(4),
        OpDesc::Mknod {
            path: comps(&["b", "g"]),
        },
        &[1, 2],
        OpRet::Ok,
    );
    let report = incremental_and_full(&helped_write_behind_a_rename(&mknod));
    let flagged = report.of_kind(crlh::ViolationKind::OptValidation);
    assert_eq!(flagged.len(), 1, "{:?}", report.violations);
    assert!(
        flagged[0]
            .message
            .contains("would change the abstract state"),
        "{}",
        flagged[0].message
    );
}

#[test]
fn degraded_quarantine_run_streams_to_the_same_verdict() {
    let seed = 1u64;
    let cfg = ShardConfig::default();
    let shards = cfg.shard_count();
    let victim = (shard_of(atomfs_trace::ROOT_INUM, shards) + 1) % shards;
    let disk = Arc::new(Disk::new());
    let devices: Vec<Arc<dyn BlockDevice>> = (0..shards)
        .map(|s| {
            if s == victim {
                Arc::new(FaultyDisk::new(
                    Arc::clone(&disk),
                    FaultPlan::none(seed).with_permanent_failure_after(3 + seed),
                )) as Arc<dyn BlockDevice>
            } else {
                Arc::clone(&disk) as Arc<dyn BlockDevice>
            }
        })
        .collect();
    let sink = Arc::new(ShardedSink::new());
    let done = Arc::new(AtomicBool::new(false));
    let follower = follow_until_done(&sink, &done);
    let jfs = JournaledFs::create_sharded_observed_with_devices(
        devices,
        cfg,
        Arc::clone(&sink) as Arc<dyn TraceSink>,
    );

    let mut refused = 0usize;
    for i in 0..300usize {
        let f = format!("/f{i}");
        match jfs
            .mknod(&f)
            .and_then(|()| jfs.write(&f, 0, &[i as u8; 16]).map(|_| ()))
        {
            Err(FsError::ReadOnly) => refused += 1,
            Err(e) => panic!("unexpected error {e:?} at op {i}"),
            Ok(()) => {}
        }
        if i % 5 == 4 {
            let _ = jfs.sync(); // loss reported at least once; irrelevant here
        }
    }
    assert!(refused > 0, "the dead shard never refused a write");
    assert_eq!(
        jfs.sharded_sink()
            .expect("sharded mount")
            .quarantined_shards(),
        vec![victim]
    );
    drop(jfs);
    done.store(true, Ordering::Release);
    let (streaming, _) = follower.join().unwrap();

    // The gated, degraded history checks clean online — and identically
    // to the offline replay of the same observed trace.
    let stamped = sink.take_stamped();
    let offline = LpChecker::check_stamped(full_config(), &stamped);
    offline.assert_ok();
    // Every refusal — decided under the lock, after a fast-path claim —
    // checks as an environment step, not as a missing linearization.
    assert_eq!(offline.stats.refused, refused as u64);
    assert_same_verdict(&streaming, &offline, "degraded run");
}

#[test]
fn injected_violation_is_caught_online_with_the_offline_criterion_tag() {
    let sink = Arc::new(ShardedSink::new());
    let fs = Arc::new(AtomFs::traced(Arc::clone(&sink) as Arc<dyn TraceSink>));
    fs.mkdir("/a").unwrap();
    fs.mkdir("/a/b").unwrap();
    // A raw mutation outside any operation or lock, emitted straight
    // into the sink as if a rogue writer bypassed the protocol.
    sink.emit(Event::Mutate {
        tid: Tid(4040),
        mop: MicroOp::Ins {
            parent: 1,
            name: "ghost".to_string(),
            child: 7777,
        },
    });
    fs.mkdir("/c").unwrap();
    drop(fs);

    // Stream it (single quiescent poll is still the streaming path:
    // chunked feed through the same incremental machinery).
    let mut cursor = sink.follow();
    let mut checker = StreamChecker::new(stream_config());
    let batch = cursor.poll();
    let stats = cursor.stats();
    checker.ingest(&batch, stats);
    assert!(!checker.status().ok, "injected breach must flag online");
    let dump = checker
        .violation_dump()
        .expect("first violation freezes a black box");
    assert!(matches!(
        &dump.cause,
        atomfs_obs::TriggerCause::StreamViolation { .. }
    ));
    let health = dump.health.as_deref().expect("dump carries the window");
    assert!(health.contains("\"window\""), "{health}");
    assert!(
        health.contains("ghost"),
        "window must hold the offending event: {health}"
    );
    let streaming = checker.finish();

    let offline = LpChecker::check_stamped(full_config(), &sink.take_stamped());
    assert!(!offline.is_ok());
    assert_eq!(
        streaming.violations.first().map(|v| v.kind),
        offline.violations.first().map(|v| v.kind),
        "online and offline must flag the same criterion"
    );
    assert_same_verdict(&streaming, &offline, "injected violation");
}

/// One `Connection: close` GET against the server's HTTP path.
fn http_get(addr: std::net::SocketAddr, target: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(
        format!("GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn served_fs_exposes_live_verdict_and_flips_check_to_fail() {
    let sink = Arc::new(ShardedSink::new());
    let fs = Arc::new(AtomFs::traced(Arc::clone(&sink) as Arc<dyn TraceSink>));
    let registry = Arc::new(Registry::new());
    let srv = serve_checked(
        fs,
        Some(Arc::clone(&registry)),
        ServerConfig::default(),
        &sink,
        PumpConfig::default(),
    )
    .expect("bind");
    let addr = srv.local_addr();
    let pump = srv.checker().expect("pump attached");

    let client = Arc::new(RpcClient::connect(addr).unwrap());
    let rfs = RemoteFs::new(client);
    for i in 0..20 {
        rfs.mkdir(&format!("/d{i}")).unwrap();
    }
    // The pump consumes the sink live; wait until it has seen events.
    let deadline = Instant::now() + Duration::from_secs(10);
    while pump.status().expect("live").events == 0 {
        assert!(Instant::now() < deadline, "pump never ingested");
        std::thread::sleep(Duration::from_millis(2));
    }
    let ok = http_get(addr, "/check");
    assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
    assert!(ok.contains("\"ok\":true"), "{ok}");
    assert!(ok.contains("\"watermark\""), "{ok}");
    assert!(ok.contains("\"retained\""), "{ok}");

    // Rogue emit into the live sink: the online checker must flag it
    // without any quiescence.
    sink.emit(Event::Mutate {
        tid: Tid(5050),
        mop: MicroOp::Ins {
            parent: 1,
            name: "ghost".to_string(),
            child: 9999,
        },
    });
    while !pump.failed() {
        assert!(Instant::now() < deadline, "pump never flagged the breach");
        std::thread::sleep(Duration::from_millis(2));
    }
    let bad = http_get(addr, "/check");
    assert!(bad.contains("\"ok\":false"), "{bad}");
    assert!(pump.violation_dump().is_some(), "black box retained");

    // The violation gauge on the shared registry went non-zero.
    let prom = registry.render_prometheus();
    let flagged = prom
        .lines()
        .filter(|l| l.starts_with("crlh_stream_violations"))
        .any(|l| {
            l.split_whitespace()
                .last()
                .and_then(|v| v.parse::<f64>().ok())
                > Some(0.0)
        });
    assert!(
        flagged,
        "no non-zero crlh_stream_violations series:\n{prom}"
    );

    // Shutdown surfaces the failing end-of-run report too.
    let (stats, report) = srv.shutdown_checked();
    assert_eq!(stats.worker_panics, 0);
    let report = report.expect("pump was attached");
    assert!(!report.is_ok(), "end-of-run report must carry the breach");
}
