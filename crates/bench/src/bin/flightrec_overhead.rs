//! Overhead gate for the span layer and flight recorder.
//!
//! Runs the contended [`OpMix`] workload on two identically-built AtomFS
//! instances, differing only in the span layer's runtime switch: the
//! *instrumented* side records op spans at the default 1-in-
//! [`DEFAULT_SPAN_SAMPLE`] sampling into the flight recorder, the
//! *stripped* side sets the sampling kill switch
//! ([`set_sampling`]`(0)`), which makes every span constructor return an
//! inert guard, so each site costs one branch. The gate bounds the
//! instrumented side's per-op slowdown at **5%**, using the same ABBA
//! median-of-paired-ratios harness as `metrics_overhead`: each round times
//! stripped-instrumented-instrumented-stripped back-to-back, disturbed
//! rounds (detected by self-inconsistency) are retried, and the gate
//! reads the median admitted ratio.
//!
//! Also emits a *sample black-box dump*: a small sharded-journal run with
//! one dying device, captured at quarantine time, written as
//! `BLACKBOX_sample.json` (analysis form) and `BLACKBOX_sample_trace.json`
//! (Chrome `trace_event` form, loadable in `about:tracing` / Perfetto) —
//! so CI archives a real artifact of the dump schema next to the numbers.
//!
//! Prints the comparison, writes machine-readable `BENCH_flightrec.json`,
//! and exits non-zero if the gate fails — CI runs this in release mode as
//! the `flightrec-overhead` job.
//!
//! Usage:
//! `cargo run --release -p atomfs-bench --bin flightrec_overhead -- [ops_per_round] [rounds] [span_sample]`

use std::sync::Arc;
use std::time::Instant;

use atomfs::AtomFs;
use atomfs_bench::report::Table;
use atomfs_journal::{
    shard_of, BlockDevice, Disk, FaultPlan, FaultyDisk, JournaledFs, ShardConfig,
};
use atomfs_obs::span::{set_sampling, DEFAULT_SPAN_SAMPLE};
use atomfs_obs::TriggerCause;
use atomfs_vfs::FileSystem;
use atomfs_workloads::opmix::OpMix;

/// Gate: spans-on may be at most this much slower than the kill switch.
const THRESHOLD_PCT: f64 = 5.0;

fn mix() -> OpMix {
    OpMix {
        dirs: 4,
        names: 8,
        rename_weight: 3,
    }
}

/// CPU time consumed by the calling thread, in nanoseconds (see
/// `metrics_overhead` for why the single-thread gate uses CPU time, not
/// wall time: host steal stalls swamp a few-percent effect).
#[cfg(target_os = "linux")]
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_ns() -> u64 {
    use std::time::UNIX_EPOCH;
    UNIX_EPOCH.elapsed().map_or(0, |d| d.as_nanos() as u64)
}

/// One timed round: `ops` mix operations on a fresh AtomFS with the span
/// switch set for this side. Sampling is process-global, so rounds set it
/// on entry; the workload itself is identical either way.
fn one_round(instrumented: bool, threads: usize, ops: usize, seed: u64, span_sample: u32) -> u64 {
    set_sampling(if instrumented { span_sample } else { 0 });
    let fs = Arc::new(AtomFs::new());
    let m = mix();
    m.setup(&*fs);
    if threads == 1 {
        let start = thread_cpu_ns();
        m.run(&*fs, seed, ops);
        thread_cpu_ns() - start
    } else {
        let barrier = Arc::new(std::sync::Barrier::new(threads + 1));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let fs = Arc::clone(&fs);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    m.run(&*fs, seed ^ ((t as u64) << 32), ops);
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for h in handles {
            h.join().unwrap();
        }
        start.elapsed().as_nanos() as u64
    }
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Two timings of the same configuration agree within `tol`.
fn steady(x: u64, y: u64, tol: f64) -> bool {
    (x.max(y) as f64) < tol * (x.min(y).max(1) as f64)
}

/// ABBA comparison, identical discipline to `metrics_overhead::compare`.
fn compare(threads: usize, ops: usize, rounds: usize, span_sample: u32) -> (f64, f64, f64) {
    let tol = if threads == 1 { 1.015 } else { 1.05 };
    let mut clean = Vec::with_capacity(rounds);
    let mut all = Vec::new();
    let mut base_ns = Vec::with_capacity(rounds);
    let mut instr_ns = Vec::with_capacity(rounds);
    let total_ops = (ops * threads) as f64;
    let mut attempt = 0;
    while clean.len() < rounds && attempt < rounds * 8 {
        let seed = 42 + attempt as u64;
        attempt += 1;
        let a1 = one_round(false, threads, ops, seed, span_sample);
        let b1 = one_round(true, threads, ops, seed, span_sample);
        let b2 = one_round(true, threads, ops, seed, span_sample);
        let a2 = one_round(false, threads, ops, seed, span_sample);
        let ratio = (b1 + b2) as f64 / (a1 + a2) as f64;
        all.push(ratio);
        if !(steady(a1, a2, tol) && steady(b1, b2, tol)) {
            eprint!(" x");
            continue;
        }
        clean.push(ratio);
        base_ns.push((a1 + a2) as f64 / 2.0 / total_ops);
        instr_ns.push((b1 + b2) as f64 / 2.0 / total_ops);
        eprint!(" {:+.2}%", (ratio - 1.0) * 100.0);
    }
    eprintln!();
    let mut ratios = if clean.len() >= 3 { clean } else { all };
    if base_ns.is_empty() {
        base_ns.push(0.0);
        instr_ns.push(0.0);
    }
    (
        median(&mut base_ns),
        median(&mut instr_ns),
        median(&mut ratios),
    )
}

/// A real quarantine dump for the artifact: one shard's device dies
/// mid-run (same storm as the `flightrec_blackbox` acceptance test, at
/// full span sampling), and the capture the trigger made is written out
/// in both serializations.
fn sample_dump() -> Option<(String, String)> {
    set_sampling(1);
    let _ = atomfs_obs::dump::drain();
    let cfg = ShardConfig::default();
    let shards = cfg.shard_count();
    let victim = (shard_of(atomfs_trace::ROOT_INUM, shards) + 1) % shards;
    let disk = Arc::new(Disk::new());
    let devices: Vec<Arc<dyn BlockDevice>> = (0..shards)
        .map(|s| {
            if s == victim {
                Arc::new(FaultyDisk::new(
                    Arc::clone(&disk),
                    FaultPlan::none(7).with_permanent_failure_after(4),
                )) as Arc<dyn BlockDevice>
            } else {
                Arc::clone(&disk) as Arc<dyn BlockDevice>
            }
        })
        .collect();
    let jfs = JournaledFs::create_sharded_with_devices(devices, cfg);
    for i in 0..100usize {
        let f = format!("/f{i}");
        let _ = jfs
            .mknod(&f)
            .and_then(|()| jfs.write(&f, 0, &[i as u8; 16]).map(|_| ()));
        if i % 5 == 4 {
            let _ = jfs.sync();
        }
    }
    set_sampling(DEFAULT_SPAN_SAMPLE);
    atomfs_obs::dump::drain()
        .into_iter()
        .find(|d| matches!(d.cause, TriggerCause::ShardQuarantine { .. }))
        .map(|d| (d.to_json(), d.to_chrome_trace()))
}

fn write_json(
    path: &str,
    ops: usize,
    rounds: usize,
    span_sample: u32,
    rows: &[(usize, f64, f64, f64)],
    pass: bool,
) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"flightrec_overhead\",\n");
    out.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    out.push_str(&format!("  \"ops_per_round\": {ops},\n"));
    out.push_str(&format!("  \"rounds\": {rounds},\n"));
    out.push_str(&format!("  \"span_sample\": {span_sample},\n"));
    out.push_str(&format!(
        "  \"flightrec_rings\": {},\n",
        atomfs_obs::flightrec::RING_COUNT
    ));
    out.push_str(&format!("  \"threshold_pct\": {THRESHOLD_PCT},\n"));
    out.push_str(&format!("  \"pass\": {pass},\n"));
    out.push_str("  \"series\": [\n");
    let body: Vec<String> = rows
        .iter()
        .map(|(threads, base, instr, ratio)| {
            format!(
                "    {{\"threads\": {}, \"stripped_ns_per_op\": {:.1}, \"instrumented_ns_per_op\": {:.1}, \"overhead_pct\": {:.2}, \"gated\": {}}}",
                threads,
                base,
                instr,
                (ratio - 1.0) * 100.0,
                *threads == 1
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ]\n}\n");
    std::fs::write(path, out).expect("write BENCH_flightrec.json");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ops: usize = args
        .first()
        .map(|s| s.parse().expect("ops_per_round"))
        .unwrap_or(200_000);
    let rounds: usize = args.get(1).map(|s| s.parse().expect("rounds")).unwrap_or(9);
    let span_sample: u32 = args
        .get(2)
        .map(|s| s.parse().expect("span_sample"))
        .unwrap_or(DEFAULT_SPAN_SAMPLE);
    println!(
        "Flight-recorder overhead, {ops} ops/round x {rounds} ABBA rounds, 1-in-{span_sample} span sampling ({} cores)",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    let mut rows = Vec::new();
    for threads in [1usize, 8] {
        let (base, instr, ratio) = compare(threads, ops, rounds, span_sample);
        rows.push((threads, base, instr, ratio));
    }
    eprintln!();
    let mut table = Table::new(&[
        "threads",
        "stripped ns/op",
        "instrumented ns/op",
        "overhead",
    ]);
    for (threads, base, instr, ratio) in &rows {
        table.row(vec![
            threads.to_string(),
            format!("{base:.0}"),
            format!("{instr:.0}"),
            format!("{:+.2}%", (ratio - 1.0) * 100.0),
        ]);
    }
    table.print();
    let (_, _, _, ratio) = rows[0];
    let overhead_pct = (ratio - 1.0) * 100.0;
    let pass = overhead_pct <= THRESHOLD_PCT;
    write_json(
        "BENCH_flightrec.json",
        ops,
        rounds,
        span_sample,
        &rows,
        pass,
    );
    println!("\nwrote BENCH_flightrec.json");
    match sample_dump() {
        Some((json, trace)) => {
            std::fs::write("BLACKBOX_sample.json", json).expect("write BLACKBOX_sample.json");
            std::fs::write("BLACKBOX_sample_trace.json", trace)
                .expect("write BLACKBOX_sample_trace.json");
            println!("wrote BLACKBOX_sample.json, BLACKBOX_sample_trace.json");
        }
        None => println!("no sample dump (obs compiled out)"),
    }
    println!(
        "gate (1 thread): {overhead_pct:+.2}% vs threshold {THRESHOLD_PCT}% -> {}",
        if pass { "PASS" } else { "FAIL" }
    );
    if !pass {
        std::process::exit(1);
    }
}
