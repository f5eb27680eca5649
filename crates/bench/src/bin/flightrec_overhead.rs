//! Overhead gate for the span layer and flight recorder.
//!
//! Runs the contended [`OpMix`](atomfs_workloads::opmix::OpMix) workload
//! on two identically-built AtomFS instances, differing only in the span
//! layer's runtime switch: the *instrumented* side records op spans at
//! the default 1-in-[`DEFAULT_SPAN_SAMPLE`] sampling into the flight
//! recorder, the *stripped* side sets the sampling kill switch
//! ([`set_sampling`]`(0)`), which makes every span constructor return an
//! inert guard, so each site costs one branch. The gate bounds the
//! instrumented side's per-op slowdown at **5%**, using the ABBA
//! median-of-paired-ratios harness it shares with `metrics_overhead`
//! ([`overhead_gate`]): each round times
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
//! and exits non-zero if the gate fails or the storm produced no dump —
//! CI runs this in release mode as the `flightrec-overhead` job.
//!
//! Usage:
//! `cargo run --release -p atomfs-bench --bin flightrec_overhead -- [ops_per_round] [rounds] [span_sample]`

use std::sync::Arc;

use atomfs::AtomFs;
use atomfs_bench::harness::{host_parallelism, overhead_gate, Args, Json};
use atomfs_journal::{
    shard_of, BlockDevice, Disk, FaultPlan, FaultyDisk, JournaledFs, ShardConfig,
};
use atomfs_obs::span::{set_sampling, DEFAULT_SPAN_SAMPLE};
use atomfs_obs::TriggerCause;
use atomfs_vfs::FileSystem;

/// Gate: spans-on may be at most this much slower than the kill switch.
const THRESHOLD_PCT: f64 = 5.0;

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

fn main() {
    let args = Args::parse();
    let ops: usize = args.get(0, "ops_per_round", 200_000);
    let rounds: usize = args.get(1, "rounds", 9);
    let span_sample: u32 = args.get(2, "span_sample", DEFAULT_SPAN_SAMPLE);
    println!(
        "Flight-recorder overhead, {ops} ops/round x {rounds} ABBA rounds, 1-in-{span_sample} span sampling ({} cores)",
        host_parallelism()
    );
    let json = Json::new()
        .str("bench", "flightrec_overhead")
        .num("host_parallelism", host_parallelism())
        .num("ops_per_round", ops)
        .num("rounds", rounds)
        .num("span_sample", span_sample)
        .num("flightrec_rings", atomfs_obs::flightrec::RING_COUNT);
    let pass = overhead_gate(
        "flightrec",
        json,
        ops,
        rounds,
        THRESHOLD_PCT,
        // Sampling is process-global, so each side sets it on entry; the
        // instance itself is identical either way.
        |instr| {
            set_sampling(if instr { span_sample } else { 0 });
            AtomFs::new()
        },
    );
    // With one build, the quarantine storm always triggers a dump (see
    // `tests/flightrec_blackbox.rs`): a missing one means the trigger
    // regressed.
    let Some((json, trace)) = sample_dump() else {
        eprintln!("FAIL: the quarantine storm produced no black-box dump");
        std::process::exit(1);
    };
    std::fs::write("BLACKBOX_sample.json", json).expect("write BLACKBOX_sample.json");
    std::fs::write("BLACKBOX_sample_trace.json", trace).expect("write BLACKBOX_sample_trace.json");
    println!("wrote BLACKBOX_sample.json, BLACKBOX_sample_trace.json");
    if !pass {
        std::process::exit(1);
    }
}
