//! Committed-write throughput of the sharded, group-committed journal.
//!
//! Writers stage mutations into per-shard buffers and a group commit
//! cuts an epoch across all shards at each `sync`, so concurrent syncers
//! share one device barrier. This bench measures what that buys under
//! contention: N threads each write 64-byte chunks into their own files
//! (spread over shards by inode hash) and `sync` every 16 ops, so the
//! metric — acked, durable writes per second — charges both the staging
//! path and the commit path.
//!
//! Two mixes (write-heavy = 100% writes; mixed = 50/50 read/write) ×
//! thread counts 1/2/4/8 × 1/2/4/8 shards. Prints a table and writes
//! `BENCH_journal_sharded.json`.
//!
//! Usage:
//! `cargo run --release -p atomfs-bench --bin journal_sharded -- [ops_per_thread] [--gate]`
//!
//! With `--gate`, exits nonzero unless sharded×4 at 8 threads commits
//! ≥ 2.0x its own 1-thread rate on the write-heavy mix — the barrier
//! amortisation group commit exists for.

use std::sync::Arc;
use std::time::Instant;

use atomfs_bench::harness::{best_of, Args, Json};
use atomfs_bench::report::Table;
use atomfs_journal::{BlockDevice, Disk, JournaledFs, ShardConfig};
use atomfs_trace::{set_current_tid, Tid};
use atomfs_vfs::FileSystem;

const SYNC_EVERY: usize = 16;
const FILES_PER_THREAD: usize = 16;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Runs per cell; the best is kept.
const REPS: usize = 3;
const GATE_BAR: f64 = 2.0;

/// Simulated cost of a flush barrier — the device-side latency every
/// durability point pays. A free barrier (the default `Disk`) makes the
/// measurement meaningless: group commit's entire job is amortizing
/// this latency across concurrent syncers, and a real NVMe flush/FUA
/// round trip sits in this range.
const FLUSH_LATENCY_US: u64 = 100;

fn layouts() -> Vec<(&'static str, ShardConfig)> {
    // Size every shard region for the whole run (the default 16 MiB is a
    // mount-lifetime budget between checkpoints; this bench never
    // checkpoints, and the simulated disk only materializes written
    // sectors, so 64 MiB regions cost nothing until used).
    let sized = |shards: usize| {
        let mut cfg = ShardConfig::with_shards(shards);
        cfg.region_sectors = 1 << 17; // 64 MiB per shard
        cfg
    };
    vec![
        ("sharded1", sized(1)),
        ("sharded2", sized(2)),
        ("sharded4", sized(4)),
        ("sharded8", sized(8)),
    ]
}

#[derive(Clone, Copy, PartialEq)]
enum Mix {
    WriteHeavy,
    Mixed5050,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::WriteHeavy => "write_heavy",
            Mix::Mixed5050 => "mixed_50_50",
        }
    }
}

fn mount(cfg: ShardConfig) -> JournaledFs {
    let disk = Arc::new(Disk::with_flush_latency(std::time::Duration::from_micros(
        FLUSH_LATENCY_US,
    ))) as Arc<dyn BlockDevice>;
    JournaledFs::create_sharded(disk, cfg)
}

/// One timed run: returns committed (synced) writes per second.
fn run(cfg: ShardConfig, mix: Mix, threads: usize, ops_per_thread: usize) -> f64 {
    let jfs = Arc::new(mount(cfg));
    // Setup outside the timer: a dir per thread, files spread over
    // shards by their own inode hash (the write path hints the file's
    // ino, not the parent's).
    for t in 0..threads {
        jfs.mkdir(&format!("/t{t}")).unwrap();
        for f in 0..FILES_PER_THREAD {
            jfs.mknod(&format!("/t{t}/f{f}")).unwrap();
        }
    }
    jfs.sync().unwrap();

    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        let jfs = Arc::clone(&jfs);
        handles.push(std::thread::spawn(move || {
            set_current_tid(Tid(5000 + t as u32));
            let paths: Vec<String> = (0..FILES_PER_THREAD)
                .map(|f| format!("/t{t}/f{f}"))
                .collect();
            let payload = [t as u8; 64];
            let mut scratch = [0u8; 64];
            let mut writes = 0usize;
            for i in 0..ops_per_thread {
                let path = &paths[i % FILES_PER_THREAD];
                let offset = ((i / FILES_PER_THREAD) % 8) as u64 * 64;
                let is_write = mix == Mix::WriteHeavy || i % 2 == 0;
                if is_write {
                    jfs.write(path, offset, &payload).unwrap();
                    writes += 1;
                    if writes.is_multiple_of(SYNC_EVERY) {
                        jfs.sync().unwrap();
                    }
                } else {
                    let _ = jfs.read(path, offset, &mut scratch).unwrap();
                }
            }
            jfs.sync().unwrap();
            writes
        }));
    }
    let committed: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    committed as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let args = Args::parse();
    let ops_per_thread: usize = args.get(0, "ops_per_thread", 4_000);
    println!(
        "Sharded journal group-commit throughput, {ops_per_thread} ops/thread, sync every {SYNC_EVERY} writes"
    );

    // One row of committed writes/s per (mix, layout), one cell per
    // thread count.
    let mut rows = Vec::new();
    for mix in [Mix::WriteHeavy, Mix::Mixed5050] {
        for (name, cfg) in layouts() {
            let rates: Vec<f64> = THREAD_COUNTS
                .iter()
                .map(|&threads| best_of(REPS, || run(cfg, mix, threads, ops_per_thread)))
                .collect();
            rows.push((mix, name, rates));
        }
    }

    let mut table = Table::new(&["mix", "layout", "1T kw/s", "2T kw/s", "4T kw/s", "8T kw/s"]);
    for (mix, layout, rates) in &rows {
        let mut cells = vec![mix.name().to_string(), layout.to_string()];
        cells.extend(rates.iter().map(|r| format!("{:.1}", r / 1e3)));
        table.row(cells);
    }
    table.print();

    let (_, _, gated) = rows
        .iter()
        .find(|(mix, layout, _)| *mix == Mix::WriteHeavy && *layout == "sharded4")
        .expect("sharded4 write-heavy row");
    // THREAD_COUNTS runs from 1 to 8 threads.
    let speedup = gated[THREAD_COUNTS.len() - 1] / gated[0];
    Json::new()
        .str("bench", "journal_sharded")
        .num("ops_per_thread", ops_per_thread)
        .num("sync_every", SYNC_EVERY)
        .num("files_per_thread", FILES_PER_THREAD)
        .list(
            "series",
            rows.iter().flat_map(|(mix, layout, rates)| {
                THREAD_COUNTS.iter().zip(rates).map(|(threads, wps)| {
                    Json::new()
                        .str("layout", layout)
                        .str("mix", mix.name())
                        .num("threads", threads)
                        .fixed("committed_writes_per_sec", *wps, 1)
                })
            }),
        )
        .obj(
            "gate",
            Json::new()
                .str("metric", "sharded4 write_heavy, 8 threads vs 1 thread")
                .fixed("speedup", speedup, 2)
                .num("bar", GATE_BAR),
        )
        .write("journal_sharded");
    println!("sharded4 write-heavy, 8 threads vs 1 thread: {speedup:.2}x (gate: >= {GATE_BAR}x)");
    if args.gate && speedup < GATE_BAR {
        eprintln!("GATE FAILED: {speedup:.2}x < {GATE_BAR}x");
        std::process::exit(1);
    }
}
