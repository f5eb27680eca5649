//! Figure 11 — multicore scalability on the Filebench personalities.
//!
//! Regenerates the paper's Figure 11(a)/(b): speedup (relative to each
//! system's own single-thread throughput) of AtomFS, AtomFS-biglock and
//! ext4 on the Fileserver and Webproxy personalities as the thread count
//! grows to 16.
//!
//! The experiment needs a 16-core machine; on hosts without one (this
//! reproduction environment has a single core) wall-clock threading
//! cannot exhibit speedup, so the default mode runs on **virtual time**:
//! each worker's operation stream is executed on the real instrumented
//! AtomFS to capture its exact lock-acquisition footprint, converted into
//! a lock/work script, and replayed on an ideal N-core machine by the
//! `atomfs-locksim` discrete-event engine (see that crate's docs and
//! DESIGN.md's substitution table). `--measured` instead uses real OS
//! threads, which is meaningful only on a multicore host.
//!
//! Usage:
//! `cargo run --release -p atomfs-bench --bin fig11_scalability -- [fileserver|webproxy|both] [iters] [--measured]`

use std::sync::Arc;

use atomfs_bench::harness::{host_parallelism, trace_plans, Args};
use atomfs_bench::report::{ratio, Table};
use atomfs_bench::setups::{build, FIG11_SYSTEMS};
use atomfs_locksim::{simulate, CostModel};
use atomfs_obs::{ClockSource, Registry};
use atomfs_vfs::{FileSystem, MeteredFs};
use atomfs_workloads::filebench::{Fileserver, Webproxy};
use atomfs_workloads::run_threads_observed;

const THREADS: [usize; 5] = [1, 2, 4, 8, 16];

fn fileserver_cfg() -> Fileserver {
    Fileserver {
        dirs: 526,
        files: 2000, // smaller population than the paper, same shape
        iosize: 8 * 1024,
    }
}

fn webproxy_cfg() -> Webproxy {
    Webproxy {
        objects: 500,
        iosize: 8 * 1024,
    }
}

fn setup(personality: &str, fs: &dyn FileSystem) {
    if personality == "fileserver" {
        fileserver_cfg().setup(fs)
    } else {
        webproxy_cfg().setup(fs)
    }
    .expect("setup");
}

/// Worker `t`'s `iters` iterations of the personality's flowop loop;
/// returns the operations it ran.
fn run_thread(personality: &str, fs: &dyn FileSystem, t: usize, iters: usize) -> u64 {
    if personality == "fileserver" {
        fileserver_cfg().run_thread(fs, t, iters, 1234)
    } else {
        webproxy_cfg().run_thread(fs, t, iters, 1234)
    }
}

/// Simulated mode adds the fast-path ablation row: the same cost model
/// as "atomfs" but with the optimistic walk disabled at capture time, so
/// its plans carry the full lock-coupled footprint.
const SIM_SYSTEMS: [&str; 4] = ["atomfs", "atomfs-nofast", "atomfs-biglock", "ext4-sim"];

fn cost_model(system: &str) -> CostModel {
    match system {
        "atomfs" | "atomfs-nofast" => CostModel::atomfs_fuse(),
        "atomfs-biglock" => CostModel::biglock_fuse(),
        "ext4-sim" => CostModel::ext4_syscall(),
        other => panic!("no cost model for {other}"),
    }
}

fn simulated_series(personality: &'static str, system: &str, iters: usize) -> Vec<f64> {
    let model = cost_model(system);
    let optimistic = system != "atomfs-nofast";
    THREADS
        .iter()
        .map(|&threads| {
            let plans = trace_plans(
                threads,
                optimistic,
                model,
                |fs| setup(personality, fs),
                |fs, t| {
                    run_thread(personality, fs, t, iters);
                },
            );
            let r = simulate(&plans);
            eprint!(".");
            r.throughput()
        })
        .collect()
}

/// One measured point: throughput plus (p50, p99) op latency in ns, taken
/// by a [`MeteredFs`] wrapped around the full deployment stack.
fn measured_series(
    personality: &'static str,
    system: &str,
    iters: usize,
) -> Vec<(f64, Option<(u64, u64)>)> {
    THREADS
        .iter()
        .map(|&threads| {
            // A fresh registry per point: each cell's histogram is its own.
            let reg = Registry::new();
            let fs = MeteredFs::new(build(system), &reg, ClockSource::monotonic());
            setup(personality, &fs);
            let result = run_threads_observed(Arc::new(fs), threads, &reg, move |fs, t| {
                run_thread(personality, &*fs, t, iters)
            });
            eprint!(".");
            (result.throughput(), result.latency_ns("fs_op_ns"))
        })
        .collect()
}

fn run_personality(name: &'static str, iters: usize, measured: bool) {
    println!(
        "\nFigure 11({}) — {name} speedup over 1 thread ({} cores{})",
        if name == "fileserver" { 'a' } else { 'b' },
        if measured { host_parallelism() } else { 16 },
        if measured {
            ", measured"
        } else {
            ", simulated"
        },
    );
    println!("paper shape: atomfs > biglock; atomfs ~1.46x biglock throughput at 16 threads (fileserver), ~1.16x (webproxy); ext4 much faster in absolute terms\n");
    let systems: Vec<&str> = if measured {
        FIG11_SYSTEMS.to_vec()
    } else {
        SIM_SYSTEMS.to_vec()
    };
    let mut tps: Vec<Vec<f64>> = Vec::new();
    let mut lats: Vec<Vec<Option<(u64, u64)>>> = Vec::new();
    for sys in &systems {
        if measured {
            let series = measured_series(name, sys, iters);
            tps.push(series.iter().map(|(tp, _)| *tp).collect());
            lats.push(series.iter().map(|(_, lat)| *lat).collect());
        } else {
            tps.push(simulated_series(name, sys, iters));
        }
    }
    eprintln!();
    let mut header = vec!["threads"];
    header.extend(systems.iter().copied());
    let mut table = Table::new(&header);
    for (i, &threads) in THREADS.iter().enumerate() {
        let mut cells = vec![threads.to_string()];
        for series in &tps {
            cells.push(ratio(series[i] / series[0]));
        }
        table.row(cells);
    }
    table.print();
    println!();
    let mut t2 = Table::new(&{
        let mut h = vec!["kops/s"];
        h.extend(systems.iter().copied());
        h
    });
    for (i, &threads) in THREADS.iter().enumerate() {
        let mut cells = vec![format!("@{threads}t")];
        for series in &tps {
            cells.push(format!("{:.1}", series[i] / 1e3));
        }
        t2.row(cells);
    }
    t2.print();
    if measured {
        // Per-op latency (the simulated default has no wall-clock ops to
        // time): p50/p99 across all operation kinds, in microseconds.
        println!();
        let mut t3 = Table::new(&{
            let mut h = vec!["p50/p99 us"];
            h.extend(systems.iter().copied());
            h
        });
        for (i, &threads) in THREADS.iter().enumerate() {
            let mut cells = vec![format!("@{threads}t")];
            for series in &lats {
                cells.push(match series[i] {
                    Some((p50, p99)) => {
                        format!("{:.1}/{:.1}", p50 as f64 / 1e3, p99 as f64 / 1e3)
                    }
                    None => "-".to_string(),
                });
            }
            t3.row(cells);
        }
        t3.print();
    }
    let atomfs_16 = tps[0][THREADS.len() - 1];
    let biglock_16 = tps[systems
        .iter()
        .position(|s| *s == "atomfs-biglock")
        .expect("biglock row")][THREADS.len() - 1];
    println!(
        "\natomfs / biglock throughput at 16 threads: {} (paper: 1.46x fileserver, 1.16x webproxy)",
        ratio(atomfs_16 / biglock_16)
    );
}

fn main() {
    let args = Args::parse();
    let measured = args.flag("--measured");
    let iters: usize = args.get(1, "iters", 200);
    match args.positional.first().map_or("both", String::as_str) {
        "fileserver" => run_personality("fileserver", iters, measured),
        "webproxy" => run_personality("webproxy", iters, measured),
        "both" => {
            run_personality("fileserver", iters, measured);
            run_personality("webproxy", iters, measured);
        }
        other => panic!("unknown personality {other}; use fileserver|webproxy|both"),
    }
}
