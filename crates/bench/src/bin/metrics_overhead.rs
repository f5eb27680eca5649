//! Overhead gate for the metrics layer: instrumented vs. stripped AtomFS.
//!
//! Runs the contended [`OpMix`] workload on two otherwise-identical AtomFS
//! instances — one with [`FsMetrics`] attached (at its default operation
//! sampling), one without (the `m()` accessor returns `None`,
//! so instrumentation reduces to one branch per site) — and gates the
//! per-op slowdown of the instrumented run at **5%**. Each round times
//! the two sides back-to-back in ABBA order and contributes one paired
//! ratio; the gate uses the median ratio (see [`compare`]).
//!
//! The single-thread comparison is the gate: it maximizes the relative
//! weight of the instrumentation (no lock waits to hide behind) and is
//! not subject to scheduler noise. An 8-thread comparison is measured and
//! reported alongside, ungated, to document the contended-path cost
//! (where the metrics layer additionally reads the clock on contended
//! acquisitions).
//!
//! Prints the comparison, writes machine-readable `BENCH_obs.json` to the
//! current directory, and exits non-zero if the gate fails — CI runs this
//! in release mode as the `obs-overhead` job.
//!
//! Usage:
//! `cargo run --release -p atomfs-bench --bin metrics_overhead -- [ops_per_round] [rounds] [op_sample]`
//!
//! `op_sample` overrides the operation-sampling period (default:
//! [`atomfs::DEFAULT_OP_SAMPLE`]) — useful for ablating fixed per-op cost
//! (huge period) against sampled cost, but the checked-in gate always
//! runs the default.

use std::sync::Arc;
use std::time::Instant;

use atomfs::{AtomFs, FsMetrics};
use atomfs_bench::report::Table;
use atomfs_obs::{ClockSource, Registry};
use atomfs_workloads::opmix::OpMix;

/// Gate: instrumented may be at most this much slower than stripped.
const THRESHOLD_PCT: f64 = 5.0;

fn mix() -> OpMix {
    // More names than the checker-stress default: moderate contention,
    // so single-thread rounds still exercise create/remove/rename paths.
    OpMix {
        dirs: 4,
        names: 8,
        rename_weight: 3,
    }
}

fn build(instrumented: bool, op_sample: u32) -> AtomFs {
    if instrumented {
        // The registry is dropped with the fs: the gate measures the cost
        // of *recording*, which does not depend on anything reading it.
        let reg = Registry::new();
        AtomFs::new().with_metrics(FsMetrics::register_sampled(
            &reg,
            ClockSource::monotonic(),
            op_sample,
        ))
    } else {
        AtomFs::new()
    }
}

/// CPU time consumed by the calling thread, in nanoseconds.
///
/// The single-thread gate times rounds in *thread CPU time*, not wall
/// time: on a shared 1-core host, wall time charges the benchmark for
/// every interval the scheduler hands to someone else (cgroup throttling,
/// sibling processes) — stalls of 10%+ that swamp the few-percent effect
/// being measured. CPU time only advances while this thread is actually
/// running, which is the quantity the instrumentation can change.
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
    // Portable fallback: wall clock (noisier, but the bench still runs).
    use std::time::UNIX_EPOCH;
    UNIX_EPOCH.elapsed().map_or(0, |d| d.as_nanos() as u64)
}

/// One timed round: `ops` mix operations on a fresh instance (setup
/// excluded from timing). Returns the round's duration in nanoseconds —
/// thread CPU time for single-thread rounds, wall time for multi-thread
/// rounds (where cross-thread blocking is part of what is measured).
fn one_round(instrumented: bool, threads: usize, ops: usize, seed: u64, op_sample: u32) -> u64 {
    let fs = Arc::new(build(instrumented, op_sample));
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

/// Two timings of the *same* configuration agree within `tol` (e.g.
/// 1.015 = 1.5%) — the round was undisturbed by the host.
fn steady(x: u64, y: u64, tol: f64) -> bool {
    (x.max(y) as f64) < tol * (x.min(y).max(1) as f64)
}

/// Compare stripped vs. instrumented over `rounds` ABBA rounds; returns
/// (stripped_ns_per_op, instrumented_ns_per_op, overhead_ratio).
///
/// Each round times stripped-instrumented-instrumented-stripped
/// back-to-back (cancelling linear drift in host speed within the round)
/// and yields one paired ratio; the result is the **median** ratio over
/// the *admitted* rounds. On a shared/virtualized host, steal time can
/// stall any single timing by 10%+ — far more than the effect being
/// measured — so a round is admitted only if it is self-consistent: its
/// two stripped halves and its two instrumented halves each agree within
/// 5% (the same code run twice can only disagree if the host interfered).
/// Disturbed rounds (printed as `x`) are retried, up to 8x`rounds`
/// attempts; if too few clean rounds exist the median falls back to all
/// attempts.
///
/// The gated single-thread compare uses a tight 1.5% admission tolerance
/// (a round admitted at 5% can still carry more noise than the effect
/// being measured); the ungated multi-thread compare, whose rounds are
/// scheduler-dependent by nature, uses 5%.
fn compare(threads: usize, ops: usize, rounds: usize, op_sample: u32) -> (f64, f64, f64) {
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
        let a1 = one_round(false, threads, ops, seed, op_sample);
        let b1 = one_round(true, threads, ops, seed, op_sample);
        let b2 = one_round(true, threads, ops, seed, op_sample);
        let a2 = one_round(false, threads, ops, seed, op_sample);
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
        // No clean round at all: per-op columns from the fallback set are
        // not available; report NaN-free zeros rather than fabricating.
        base_ns.push(0.0);
        instr_ns.push(0.0);
    }
    (
        median(&mut base_ns),
        median(&mut instr_ns),
        median(&mut ratios),
    )
}

fn write_json(
    path: &str,
    ops: usize,
    rounds: usize,
    op_sample: u32,
    rows: &[(usize, f64, f64, f64)],
    pass: bool,
) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"metrics_overhead\",\n");
    out.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    out.push_str(&format!("  \"ops_per_round\": {ops},\n"));
    out.push_str(&format!("  \"rounds\": {rounds},\n"));
    out.push_str(&format!("  \"op_sample\": {op_sample},\n"));
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
    std::fs::write(path, out).expect("write BENCH_obs.json");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Rounds must be long enough (~150ms) that host timeslice noise
    // amortizes; 40k-op rounds measurably do not on a shared VM.
    let ops: usize = args
        .first()
        .map(|s| s.parse().expect("ops_per_round"))
        .unwrap_or(200_000);
    let rounds: usize = args.get(1).map(|s| s.parse().expect("rounds")).unwrap_or(9);
    let op_sample: u32 = args
        .get(2)
        .map(|s| s.parse().expect("op_sample"))
        .unwrap_or(atomfs::DEFAULT_OP_SAMPLE);
    println!(
        "Metrics overhead, {ops} ops/round x {rounds} ABBA rounds, 1-in-{op_sample} op sampling ({} cores)",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    let mut rows = Vec::new();
    for threads in [1usize, 8] {
        let (base, instr, ratio) = compare(threads, ops, rounds, op_sample);
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
    write_json("BENCH_obs.json", ops, rounds, op_sample, &rows, pass);
    println!("\nwrote BENCH_obs.json");
    println!(
        "gate (1 thread): {overhead_pct:+.2}% vs threshold {THRESHOLD_PCT}% -> {}",
        if pass { "PASS" } else { "FAIL" }
    );
    if !pass {
        std::process::exit(1);
    }
}
