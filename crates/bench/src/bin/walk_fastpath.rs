//! `walk_fastpath` — throughput of the optimistic seqlock-validated walk
//! vs. the pessimistic lock-coupled walk on a read-mostly mix.
//!
//! The paper's §7.2–7.3 attributes AtomFS's scalability gap to lookups
//! serializing on the root mutex; the fast path removes every lock
//! acquisition from read-only traversals. This bench quantifies that on
//! a 95/5 read/write mix at 1–8 threads and gates the 8-thread speedup.
//!
//! Methodology: the reproduction host has a single core, so (exactly as
//! `fig11_scalability`) multi-thread points run on **virtual time** —
//! each worker's operation stream is captured on the real instrumented
//! AtomFS (fast path on or off), converted into a lock/work script, and
//! replayed on an ideal N-core machine by the `atomfs-locksim` engine.
//! Optimistic reads cost a work step but take no lock, so the simulated
//! contention difference is precisely the lock footprint the fast path
//! removed. Fast-path hit/retry/fallback counters come from a separate
//! metered run via `FsMetrics`.
//!
//! Unlike `fig11_scalability`, the cost model here is cold-cache and
//! in-kernel: `cache_hit_pct = 0` (every lookup actually walks the FS
//! tree — the dcache bypass would hide the walk under either config)
//! and syscall-entry dispatch instead of the 14 µs FUSE round trip
//! (which dominates op time and masks lock contention; rcu-walk in
//! Linux likewise only matters because there is no such hop). This is
//! the walk-bound regime the fast path is built for; Figure 11 keeps
//! reporting the deployment-realistic FUSE numbers.
//!
//! Usage: `walk_fastpath [ops_per_thread] [--gate]`
//! `--gate` exits nonzero if the 8-thread speedup is below 1.5x
//! (the CI criterion); the default only reports.

use atomfs::{AtomFs, FsMetrics};
use atomfs_bench::harness::{trace_plans, Args, Json};
use atomfs_bench::report::{ratio, Table};
use atomfs_locksim::{simulate, CostModel};
use atomfs_obs::{ClockSource, Registry};
use atomfs_vfs::{FileSystem, SplitMix64};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const GATE_THREADS: usize = 8;
const GATE: f64 = 1.5;
/// 95/5 read/write: of every 20 operations, one mutates.
const WRITE_ONE_IN: u64 = 20;

const DIRS: u64 = 4;
const FILES: u64 = 8;

/// Walk-bound cost model: in-kernel dispatch, cold dcache, AtomFS's
/// userspace per-component step cost. Both configs run under the SAME
/// model — only the captured lock footprints differ.
fn walk_model() -> CostModel {
    CostModel {
        per_op_overhead: 700,
        vfs_lookup: 600,
        per_lock_step: 1_000,
        per_mutation: 400,
        per_byte_milli: 150,
        big_lock: false,
        cache_hit_pct: 0,
        lockless_walk: false,
    }
}

fn setup(fs: &dyn FileSystem) {
    for d in 0..DIRS {
        fs.mkdir(&format!("/w{d}")).unwrap();
        for f in 0..FILES {
            let p = format!("/w{d}/f{f}");
            fs.mknod(&p).unwrap();
            fs.write(&p, 0, &[7u8; 64]).unwrap();
        }
    }
}

/// One worker's seeded op stream: reads (stat/read/readdir) with one
/// write in every `write_one_in` ops (0 = no writes at all).
fn run_stream(fs: &dyn FileSystem, seed: u64, ops: usize, write_one_in: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut buf = [0u8; 64];
    for i in 0..ops {
        let x = rng.next_u64();
        let p = format!("/w{}/f{}", x % DIRS, (x >> 8) % FILES);
        if write_one_in != 0 && x.is_multiple_of(write_one_in) {
            let _ = fs.write(&p, x % 32, b"wf");
        } else {
            match i % 3 {
                0 => {
                    let _ = fs.stat(&p);
                }
                1 => {
                    let _ = fs.read(&p, 0, &mut buf);
                }
                _ => {
                    let _ = fs.readdir(&format!("/w{}", x % DIRS));
                }
            }
        }
    }
}

fn series(ops: usize, optimistic: bool) -> Vec<f64> {
    THREADS
        .iter()
        .map(|&threads| {
            let plans = trace_plans(
                threads,
                optimistic,
                walk_model(),
                |fs| setup(fs),
                |fs, t| run_stream(fs, 0xC0FFEE ^ (t as u64 * 7919), ops, WRITE_ONE_IN),
            );
            let r = simulate(&plans);
            eprint!(".");
            r.throughput()
        })
        .collect()
}

/// Fast-path counters: attempts, hits, retries, fallbacks.
type OptCounters = (u64, u64, u64, u64);

/// Fast-path counters from a real metered 8-thread run (sample = 1, so
/// attempts/hits are exact too) at the given write ratio.
fn metered_counters(ops: usize, write_one_in: u64) -> OptCounters {
    let reg = Registry::new();
    let fs = AtomFs::new().with_metrics(FsMetrics::register_sampled(
        &reg,
        ClockSource::monotonic(),
        1,
    ));
    setup(&fs);
    std::thread::scope(|s| {
        for t in 0..GATE_THREADS as u64 {
            let fs = &fs;
            s.spawn(move || run_stream(fs, 0xC0FFEE ^ (t * 7919), ops, write_one_in));
        }
    });
    let snap = reg.snapshot();
    (
        snap.counter("atomfs_opt_attempts_total"),
        snap.counter("atomfs_opt_hits_total"),
        snap.counter("atomfs_opt_retries_total"),
        snap.counter("atomfs_opt_fallbacks_total"),
    )
}

/// Hit-rate-vs-write-ratio ablation: the same 8-thread stream with the
/// write share swept from 0% to 100% (`0` disables writes entirely).
/// A chain only fails validation when a mutation lands *during* a
/// reader's walk; on a single-core host that window opens on a
/// preemption tick (~1 in 10^3–10^4 ops), so the sweep needs far more
/// operations than the simulated series to resolve the trend.
const SWEEP_OPS: usize = 20_000;

const SWEEP: [(u64, &str); 6] = [
    (0, "0%"),
    (20, "5%"),
    (8, "12.5%"),
    (4, "25%"),
    (2, "50%"),
    (1, "100%"),
];

fn hit_rate(attempts: u64, hits: u64) -> f64 {
    if attempts > 0 {
        hits as f64 / attempts as f64
    } else {
        0.0
    }
}

fn main() {
    let args = Args::parse();
    let ops: usize = args.get(0, "ops", 400);

    println!("walk_fastpath — optimistic vs pessimistic walk, 95/5 mix, {ops} ops/thread (simulated cores)");
    let opt = series(ops, true);
    let pess = series(ops, false);
    eprintln!();

    let mut table = Table::new(&["threads", "optimistic", "pessimistic", "speedup"]);
    for (i, &threads) in THREADS.iter().enumerate() {
        table.row(vec![
            threads.to_string(),
            format!("{:.1} kops/s", opt[i] / 1e3),
            format!("{:.1} kops/s", pess[i] / 1e3),
            ratio(opt[i] / pess[i]),
        ]);
    }
    table.print();

    let sweep: Vec<(&str, OptCounters)> = SWEEP
        .iter()
        .map(|&(one_in, label)| (label, metered_counters(SWEEP_OPS, one_in)))
        .collect();
    let counters = sweep
        .iter()
        .find(|(label, _)| *label == "5%")
        .map(|(_, c)| *c)
        .unwrap();
    let (attempts, hits, retries, fallbacks) = counters;
    println!(
        "\nfast path at the gated mix: {hits}/{attempts} hits ({:.1}%), {retries} retries, {fallbacks} fallbacks",
        100.0 * hit_rate(attempts, hits)
    );
    let mut ts = Table::new(&["writes", "attempts", "hit rate", "retries", "fallbacks"]);
    for (label, (a, h, r, f)) in &sweep {
        ts.row(vec![
            label.to_string(),
            a.to_string(),
            if *a > 0 {
                format!("{:.1}%", 100.0 * *h as f64 / *a as f64)
            } else {
                "-".to_string()
            },
            r.to_string(),
            f.to_string(),
        ]);
    }
    ts.print();

    let gi = THREADS.iter().position(|&t| t == GATE_THREADS).unwrap();
    let speedup = opt[gi] / pess[gi];
    let pass = speedup >= GATE;
    println!(
        "\n{GATE_THREADS}-thread speedup: {} (gate {GATE}x) -> {}",
        ratio(speedup),
        if pass { "PASS" } else { "FAIL" }
    );
    Json::new()
        .str("bench", "walk_fastpath")
        .str("mix", "95/5 read-mostly")
        .num("ops_per_thread", ops)
        .num("gate_threads", GATE_THREADS)
        .num("gate", GATE)
        .fixed("speedup", speedup, 3)
        .num("pass", pass)
        .num("opt_attempts", attempts)
        .num("opt_hits", hits)
        .num("opt_retries", retries)
        .num("opt_fallbacks", fallbacks)
        .fixed("hit_rate", hit_rate(attempts, hits), 4)
        .list(
            "series",
            THREADS.iter().enumerate().map(|(i, threads)| {
                Json::new()
                    .num("threads", threads)
                    .fixed("optimistic_ops_s", opt[i], 0)
                    .fixed("pessimistic_ops_s", pess[i], 0)
                    .fixed("speedup", opt[i] / pess[i], 3)
            }),
        )
        .list(
            "hit_rate_by_write_ratio",
            sweep.iter().map(|&(label, (a, h, r, f))| {
                Json::new()
                    .str("writes", label)
                    .num("attempts", a)
                    .num("hits", h)
                    .num("retries", r)
                    .num("fallbacks", f)
                    .fixed("hit_rate", hit_rate(a, h), 4)
            }),
        )
        .write("walk");
    if args.gate && !pass {
        std::process::exit(1);
    }
}
