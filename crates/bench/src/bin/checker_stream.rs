//! Streaming-checker pump throughput: can online CRL-H checking keep up
//! with a live 8-thread operation storm, and does its memory stay
//! bounded while it does?
//!
//! Two phases over the *same* workload — every thread hammering its own
//! subtree of a traced [`AtomFs`] with mkdir/rmdir pairs (create-delete
//! churn keeps the tree, and hence the per-unlock abstraction-relation
//! cost, constant while events flow at full instrumented-fs rate):
//!
//! * **raw** — no consumer on the sink; measures the emit rate the
//!   instrumented file system actually achieves (the sink's own cost per
//!   raw `emit` is the repo benchmark's `trace.emit_ns_per_event`; a
//!   real fs op emits several events around real locking, so the
//!   op-driven rate is what a production pump must match).
//! * **pumped** — a consuming [`TailCursor`] + [`StreamChecker`] (full
//!   config: helpers, invariants, relation at unlock) drains the sink
//!   while the storm runs, exactly like the server's `CheckerPump`. The
//!   pump rate is total events over the time until the *checker* has
//!   validated the last event — emitters finishing early doesn't count.
//!
//! The pump thread also samples the checker's retained-state census
//! after every ingest; the maxima prove O(in-flight window) memory:
//! open descriptors never exceed the thread count and the streaming
//! checker holds no narration at all, no matter how long the storm runs.
//!
//! Prints the table and writes `BENCH_check.json`.
//!
//! Usage: `checker_stream [rounds_per_thread] [--gate]`
//! `--gate` exits nonzero if the pump rate falls below 15% of the raw
//! emit rate, or if retained state exceeded its bounds.
//!
//! Why 15%: the pump replays full CRL-H semantics (ghost-state step,
//! per-unlock relation check, invariants) sequentially on one thread
//! while eight threads emit in parallel, so the checked rate can never
//! beat the single-thread replay cost (~300ns/event regardless of
//! emitter count). Measured on the 1-core CI host the pump sustains
//! 0.2-0.5x of the op-driven raw rate run-to-run (raw itself swings
//! 2-7 Mev/s with VM load); 0.15x is the regression floor every
//! healthy build clears, not the typical ratio. `BENCH_check.json`
//! records `host_parallelism` so readers can weigh the numbers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use atomfs::AtomFs;
use atomfs_bench::harness::{host_parallelism, Args, Json};
use atomfs_bench::report::{ratio, Table};
use atomfs_trace::{ShardedSink, TraceSink};
use atomfs_vfs::FileSystem;
use crlh::{CheckerConfig, HelperMode, RelationCadence, StreamChecker, StreamConfig};

const THREADS: usize = 8;

fn full_config() -> StreamConfig {
    StreamConfig {
        checker: CheckerConfig {
            mode: HelperMode::Helpers,
            relation: RelationCadence::AtUnlock,
            invariants: true,
        },
        ..StreamConfig::default()
    }
}

/// Per-thread create/delete churn in a private subtree: full event
/// traffic, bounded tree.
fn storm(fs: &Arc<AtomFs>, rounds: usize) -> Duration {
    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let fs = Arc::clone(fs);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            atomfs_trace::set_current_tid(atomfs_trace::Tid(100 + t as u32));
            barrier.wait();
            for r in 0..rounds {
                let p = format!("/t{t}/b{r}");
                fs.mkdir(&p).expect("private subtree");
                fs.rmdir(&p).expect("just created");
            }
        }));
    }
    barrier.wait();
    let start = Instant::now();
    for h in handles {
        h.join().unwrap();
    }
    start.elapsed()
}

struct Retained {
    max_descriptors: usize,
    max_window_total: usize,
    max_narration: usize,
}

/// Raw phase: storm with nothing consuming the sink.
fn run_raw(rounds: usize) -> (u64, f64) {
    let sink = Arc::new(ShardedSink::new());
    let fs = Arc::new(AtomFs::traced(Arc::clone(&sink) as Arc<dyn TraceSink>));
    for t in 0..THREADS {
        fs.mkdir(&format!("/t{t}")).unwrap();
    }
    let _ = sink.take_stamped(); // measure the storm alone
    let elapsed = storm(&fs, rounds);
    let events = sink.take_stamped().len() as u64;
    (events, events as f64 / elapsed.as_secs_f64())
}

/// What the pumped phase measured.
struct Pumped {
    events: u64,
    /// Events per second the storm emitted while the pump raced it.
    emit_eps: f64,
    /// Events per second checked, clocked to the checker's last event.
    pump_eps: f64,
    ret: Retained,
}

/// Pumped phase: same storm with a consuming cursor + streaming checker
/// racing it, clocked until the checker has validated everything.
fn run_pumped(rounds: usize) -> Pumped {
    let sink = Arc::new(ShardedSink::new());
    let fs = Arc::new(AtomFs::traced(Arc::clone(&sink) as Arc<dyn TraceSink>));
    for t in 0..THREADS {
        fs.mkdir(&format!("/t{t}")).unwrap();
    }
    let done = Arc::new(AtomicBool::new(false));
    let pump = {
        let sink = Arc::clone(&sink);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut cursor = sink.follow_consuming();
            let mut checker = StreamChecker::new(full_config());
            let mut ret = Retained {
                max_descriptors: 0,
                max_window_total: 0,
                max_narration: 0,
            };
            loop {
                let quiescent = done.load(Ordering::Acquire);
                let batch = cursor.poll();
                if batch.is_empty() {
                    if quiescent {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(50));
                    continue;
                }
                let stats = cursor.stats();
                checker.ingest_owned(batch, stats);
                let census = checker.status().retained;
                ret.max_descriptors = ret.max_descriptors.max(census.descriptors);
                ret.max_window_total = ret.max_window_total.max(census.window_total());
                ret.max_narration = ret.max_narration.max(census.narration_lines);
            }
            assert!(cursor.finish().is_empty(), "quiescent poll drains all");
            let events = checker.events();
            let report = checker.finish();
            report.assert_ok();
            (events, ret)
        })
    };
    let start = Instant::now();
    let emit_elapsed = storm(&fs, rounds);
    drop(fs);
    done.store(true, Ordering::Release);
    let (events, ret) = pump.join().unwrap();
    let checked_elapsed = start.elapsed();
    Pumped {
        events,
        emit_eps: events as f64 / emit_elapsed.as_secs_f64(),
        pump_eps: events as f64 / checked_elapsed.as_secs_f64(),
        ret,
    }
}

fn main() {
    let args = Args::parse();
    let rounds: usize = args.get(0, "rounds_per_thread", 20_000);

    println!(
        "Streaming-checker pump vs raw emit, {THREADS} threads x {rounds} mkdir/rmdir rounds ({} cores)",
        host_parallelism()
    );
    let (raw_events, raw_eps) = run_raw(rounds);
    let pumped = run_pumped(rounds);
    let Pumped {
        events: pumped_events,
        emit_eps,
        pump_eps,
        ref ret,
    } = pumped;

    let mut table = Table::new(&["phase", "events", "Mev/s", "vs raw"]);
    table.row(vec![
        "raw emit".into(),
        raw_events.to_string(),
        format!("{:.2}", raw_eps / 1e6),
        "1.00x".into(),
    ]);
    table.row(vec![
        "pumped emit".into(),
        pumped_events.to_string(),
        format!("{:.2}", emit_eps / 1e6),
        ratio(emit_eps / raw_eps),
    ]);
    table.row(vec![
        "pump (checked)".into(),
        pumped_events.to_string(),
        format!("{:.2}", pump_eps / 1e6),
        ratio(pump_eps / raw_eps),
    ]);
    table.print();
    println!(
        "retained max: descriptors {}, window_total {}, narration {}",
        ret.max_descriptors, ret.max_window_total, ret.max_narration
    );
    Json::new()
        .str("bench", "checker_stream")
        .num("host_parallelism", host_parallelism())
        .num("threads", THREADS)
        .num("rounds_per_thread", rounds)
        .obj(
            "raw",
            Json::new()
                .num("events", raw_events)
                .fixed("events_per_sec", raw_eps, 1),
        )
        .obj(
            "pumped",
            Json::new()
                .num("events", pumped_events)
                .fixed("emit_events_per_sec", emit_eps, 1)
                .fixed("pump_events_per_sec", pump_eps, 1),
        )
        .fixed("pump_over_raw", pump_eps / raw_eps, 3)
        .obj(
            "retained_max",
            Json::new()
                .num("descriptors", ret.max_descriptors)
                .num("window_total", ret.max_window_total)
                .num("narration", ret.max_narration),
        )
        .write("check");

    if args.gate {
        let ok_rate = pump_eps >= 0.15 * raw_eps;
        // O(window): never more open descriptors than emitting threads
        // (+1 for the setup thread), and a streaming checker narrates
        // nothing.
        let ok_retained = ret.max_descriptors <= THREADS + 1 && ret.max_narration == 0;
        if !ok_rate {
            eprintln!(
                "GATE FAIL: pump at {:.2} Mev/s is below 15% of raw {:.2} Mev/s",
                pump_eps / 1e6,
                raw_eps / 1e6
            );
        }
        if !ok_retained {
            eprintln!(
                "GATE FAIL: retained state unbounded (descriptors {}, narration {})",
                ret.max_descriptors, ret.max_narration
            );
        }
        if !(ok_rate && ok_retained) {
            std::process::exit(1);
        }
        println!(
            "GATE OK: pump at {} of raw emit, retained bounded",
            ratio(pump_eps / raw_eps)
        );
    }
}
