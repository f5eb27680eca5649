//! Overhead gate for the metrics layer: instrumented vs. stripped AtomFS.
//!
//! Runs the contended [`OpMix`](atomfs_workloads::opmix::OpMix) workload
//! on two otherwise-identical AtomFS instances — one with [`FsMetrics`]
//! attached (at its default operation sampling), one without (the `m()`
//! accessor returns `None`, so instrumentation reduces to one branch per
//! site) — and gates the per-op slowdown of the instrumented run at
//! **5%**. Each round times the two sides back-to-back in ABBA order and
//! contributes one paired ratio; the gate uses the median ratio (see
//! [`overhead_gate`]).
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

use atomfs::{AtomFs, FsMetrics};
use atomfs_bench::harness::{host_parallelism, overhead_gate, Args, Json};
use atomfs_obs::{ClockSource, Registry};

/// Gate: instrumented may be at most this much slower than stripped.
const THRESHOLD_PCT: f64 = 5.0;

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

fn main() {
    let args = Args::parse();
    // Rounds must be long enough (~150ms) that host timeslice noise
    // amortizes; 40k-op rounds measurably do not on a shared VM.
    let ops: usize = args.get(0, "ops_per_round", 200_000);
    let rounds: usize = args.get(1, "rounds", 9);
    let op_sample: u32 = args.get(2, "op_sample", atomfs::DEFAULT_OP_SAMPLE);
    println!(
        "Metrics overhead, {ops} ops/round x {rounds} ABBA rounds, 1-in-{op_sample} op sampling ({} cores)",
        host_parallelism()
    );
    let json = Json::new()
        .str("bench", "metrics_overhead")
        .num("host_parallelism", host_parallelism())
        .num("ops_per_round", ops)
        .num("rounds", rounds)
        .num("op_sample", op_sample);
    let pass = overhead_gate("obs", json, ops, rounds, THRESHOLD_PCT, |instr| {
        build(instr, op_sample)
    });
    if !pass {
        std::process::exit(1);
    }
}
