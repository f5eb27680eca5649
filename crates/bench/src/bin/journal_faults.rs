//! Fault-path overhead of the fallible journal write path.
//!
//! The journal now writes through the fallible `BlockDevice` trait with
//! per-sector-op retry accounting (`RetryPolicy::run`). This bench
//! quantifies what that plumbing costs when no fault ever fires, against
//! a *seed-style* inline append loop that calls the raw `Disk`'s
//! infallible inherent methods exactly the way the pre-fault journal
//! did — same frame encoding as [`ShardWriter`], read-modify-write
//! sector walk, same commit cadence. Two more series show the
//! trait-object wrapper (`FaultyDisk` with an all-zero plan) and a live
//! ~1.5% transient fault rate being absorbed by retries.
//!
//! The acceptance bar is fault-free overhead < 5% vs the seed-style
//! loop. Prints a table and writes machine-readable `BENCH_journal.json`
//! to the current directory.
//!
//! Usage:
//! `cargo run --release -p atomfs-bench --bin journal_faults -- [batches]`

use std::sync::Arc;
use std::time::Instant;

use atomfs_bench::harness::{best_of, Args, Json};
use atomfs_bench::report::Table;
use atomfs_journal::device::{BlockDevice, Sector, SECTOR_SIZE};
use atomfs_journal::wire::{encode_frame_parts, FrameKind};
use atomfs_journal::{Disk, FaultPlan, FaultyDisk, ShardConfig, ShardWriter};
use atomfs_trace::MicroOp;

/// Commit (flush) every this many batches — sync-every-op would measure
/// the flush, not the append plumbing under test.
const COMMIT_EVERY: u64 = 64;
/// Runs per path; the best is kept (allocator/cache warmup dominates the
/// noise on a bare-metal single-core runner).
const REPS: usize = 3;

/// One stamped batch, as the group commit hands it to a shard writer.
fn batch() -> Vec<(u64, MicroOp)> {
    (0..8)
        .map(|i| {
            (
                i,
                MicroOp::Ins {
                    parent: 1,
                    name: format!("entry{i}"),
                    child: 100 + i,
                },
            )
        })
        .collect()
}

/// The seed path, inlined: encode + RMW sector walk + flush cadence on
/// the raw disk's infallible inherent methods.
fn seed_style(batches: u64, ops: &[(u64, MicroOp)]) -> f64 {
    let disk = Disk::new();
    let start = Instant::now();
    let mut pos = 0usize;
    for seq in 0..batches {
        let rec = encode_frame_parts(1, 0, FrameKind::Batch, 1, seq, 0, ops);
        let mut written = 0usize;
        while written < rec.len() {
            let lba = ((pos + written) / SECTOR_SIZE) as u64;
            let off = (pos + written) % SECTOR_SIZE;
            let chunk = (SECTOR_SIZE - off).min(rec.len() - written);
            let mut sector: Sector = disk.read(lba);
            sector[off..off + chunk].copy_from_slice(&rec[written..written + chunk]);
            disk.write(lba, &sector);
            written += chunk;
        }
        pos += rec.len();
        if (seq + 1) % COMMIT_EVERY == 0 {
            disk.flush();
        }
    }
    disk.flush();
    batches as f64 / start.elapsed().as_secs_f64()
}

/// The fallible path over an arbitrary device.
fn fallible(device: Arc<dyn BlockDevice>, batches: u64, ops: &[(u64, MicroOp)]) -> f64 {
    // One region sized for any run length: the simulated disk only
    // materializes written sectors.
    let cfg = ShardConfig {
        shards: 1,
        region_sectors: 1 << 22,
        ..ShardConfig::default()
    };
    let mut w = ShardWriter::new(Arc::clone(&device), 0, 1, &cfg);
    let counters = w.counters();
    let flush = || {
        cfg.policy
            .run(&counters, || device.flush())
            .expect("bench device never exhausts retries")
    };
    let start = Instant::now();
    for seq in 0..batches {
        w.append_frame(FrameKind::Batch, 1, 0, ops)
            .expect("bench device never exhausts retries");
        if (seq + 1) % COMMIT_EVERY == 0 {
            flush();
        }
    }
    flush();
    batches as f64 / start.elapsed().as_secs_f64()
}

fn overhead_pct(seed: f64, path: f64) -> f64 {
    (seed / path - 1.0) * 100.0
}

fn main() {
    let batches: u64 = Args::parse().get(0, "batches", 30_000);
    let ops = batch();
    println!(
        "Journal fault-path overhead, {batches} batches of 8 ops, commit every {COMMIT_EVERY}"
    );

    let seed = best_of(REPS, || seed_style(batches, &ops));
    let direct = best_of(REPS, || fallible(Arc::new(Disk::new()), batches, &ops));
    let wrapped = best_of(REPS, || {
        fallible(
            Arc::new(FaultyDisk::new(Arc::new(Disk::new()), FaultPlan::none(1))),
            batches,
            &ops,
        )
    });
    let transient = best_of(REPS, || {
        fallible(
            Arc::new(FaultyDisk::new(
                Arc::new(Disk::new()),
                FaultPlan::none(2).with_transient(1_000, 1_000, 1_000),
            )),
            batches,
            &ops,
        )
    });

    let series = [
        ("seed_inline", seed),
        ("fallible_direct", direct),
        ("fallible_wrapped_nofault", wrapped),
        ("fallible_wrapped_transient_1p5", transient),
    ];
    let mut table = Table::new(&["path", "kbatches/s", "overhead vs seed"]);
    for (name, bps) in &series {
        table.row(vec![
            (*name).to_string(),
            format!("{:.1}", bps / 1e3),
            format!("{:+.2}%", overhead_pct(seed, *bps)),
        ]);
    }
    table.print();
    Json::new()
        .str("bench", "journal_faults")
        .num("batches", batches)
        .num("ops_per_batch", ops.len())
        .num("commit_every", COMMIT_EVERY)
        .list(
            "series",
            series.iter().map(|(name, bps)| {
                Json::new()
                    .str("path", name)
                    .fixed("batches_per_sec", *bps, 1)
                    .fixed("overhead_vs_seed_pct", overhead_pct(seed, *bps), 2)
            }),
        )
        .write("journal");
    let fault_free = overhead_pct(seed, direct);
    println!("fault-free fallible overhead: {fault_free:+.2}% (acceptance bar: < 5%)");
}
