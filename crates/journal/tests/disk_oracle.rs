//! The simulated `Disk` against a reference model of its semantics.
//!
//! The model is the device as a queue: a write waits in a volatile list,
//! a flush moves the list onto the durable map, a crash moves only the
//! writes its predicate keeps. `Disk` writes through to its pages and
//! logs only what a crash must take back, so every operation's result is
//! compared with the model's after random sequences that rewrite sectors
//! inside one flush window, crash with random keep subsets (by write
//! index and by LBA), and corrupt flushed and unflushed sectors.
//!
//! `FAULT_STORM_SEED=<n>` runs a block of cases derived from seed `n`
//! (the CI fault-storm matrix fans one job out per seed); unset, seeds
//! `0..CASES` run.

use std::collections::HashMap;

use atomfs_journal::device::{Sector, SECTOR_SIZE};
use atomfs_journal::Disk;
use atomfs_vfs::SplitMix64;

/// The device as a queue of volatile writes over a durable map.
#[derive(Default)]
struct Model {
    durable: HashMap<u64, Sector>,
    volatile: Vec<(u64, Sector)>,
}

impl Model {
    fn read(&self, lba: u64) -> Sector {
        let newest = self.volatile.iter().rev().find(|(l, _)| *l == lba);
        newest
            .map(|(_, d)| *d)
            .or_else(|| self.durable.get(&lba).copied())
            .unwrap_or([0; SECTOR_SIZE])
    }

    fn write(&mut self, lba: u64, data: &Sector) {
        self.volatile.push((lba, *data));
    }

    fn flush(&mut self) {
        self.crash(|_, _| true);
    }

    fn crash(&mut self, mut keep: impl FnMut(usize, u64) -> bool) {
        for (i, (lba, data)) in self.volatile.drain(..).enumerate() {
            if keep(i, lba) {
                self.durable.insert(lba, data);
            }
        }
    }

    fn corrupt_durable(&mut self, lba: u64, byte: usize, mask: u8) {
        self.durable.entry(lba).or_insert([0; SECTOR_SIZE])[byte % SECTOR_SIZE] ^= mask;
    }

    fn max_durable_lba(&self) -> Option<u64> {
        self.durable.keys().max().copied()
    }
}

/// LBAs span three 64-sector pages, so rewrites of one sector and
/// sectors of different pages both come up often.
const LBAS: u64 = 3 * 64;

const CASES: u64 = 64;

fn seeds() -> Vec<u64> {
    match std::env::var("FAULT_STORM_SEED") {
        Ok(s) => {
            let s: u64 = s.parse().expect("FAULT_STORM_SEED must be a u64");
            (0..CASES).map(|k| (s << 32) | k).collect()
        }
        Err(_) => (0..CASES).collect(),
    }
}

fn sector(rng: &mut SplitMix64) -> Sector {
    let mut s = [rng.next_u64() as u8; SECTOR_SIZE];
    for _ in 0..4 {
        s[rng.random_range(0..SECTOR_SIZE)] = rng.next_u64() as u8;
    }
    s
}

/// One random sequence: every result and the whole image compared.
fn run(rng: &mut SplitMix64) {
    let disk = Disk::new();
    let mut model = Model::default();
    let (mut writes, mut flushes) = (0u64, 0u64);
    for _ in 0..400 {
        // A small hot set makes same-LBA rewrites within a window common.
        let lba = if rng.random_bool(0.5) {
            rng.random_range(0..4u64)
        } else {
            rng.random_range(0..LBAS)
        };
        match rng.random_range(0..100u32) {
            0..=54 => {
                let data = sector(rng);
                disk.write(lba, &data);
                model.write(lba, &data);
                writes += 1;
            }
            55..=69 => assert_eq!(disk.read(lba), model.read(lba), "read of {lba}"),
            70..=79 => {
                disk.flush();
                model.flush();
                flushes += 1;
            }
            80..=85 => {
                // Keep a random subset by write index. Each predicate
                // is called once per queued write, in write order.
                let bits = rng.next_u64();
                let keep = |i: usize| bits >> (i % 64) & 1 == 1;
                disk.crash(keep);
                model.crash(|i, _| keep(i));
            }
            86..=89 => {
                let (lo, hi) = (rng.random_range(0..LBAS), rng.random_range(0..LBAS));
                let keep = |l: u64| (lo.min(hi)..=lo.max(hi)).contains(&l);
                disk.crash_keep_lbas(keep);
                model.crash(|_, l| keep(l));
            }
            90..=95 => {
                let (byte, mask) = (
                    rng.random_range(0..2 * SECTOR_SIZE),
                    1 << rng.random_range(0..8u32),
                );
                disk.corrupt_durable(lba, byte, mask);
                model.corrupt_durable(lba, byte, mask);
            }
            _ => assert_eq!(disk.max_durable_lba(), model.max_durable_lba()),
        }
    }
    for lba in 0..LBAS + 64 {
        assert_eq!(disk.read(lba), model.read(lba), "final image at {lba}");
    }
    assert_eq!(disk.max_durable_lba(), model.max_durable_lba());
    assert_eq!((disk.write_count(), disk.flush_count()), (writes, flushes));
    // What the window held is gone after a clean power cut.
    disk.crash(|_| false);
    model.crash(|_, _| false);
    for lba in 0..LBAS {
        assert_eq!(disk.read(lba), model.read(lba), "after a clean cut, {lba}");
    }
}

#[test]
fn disk_matches_the_volatile_queue_model() {
    for seed in seeds() {
        let diverged = std::panic::catch_unwind(|| run(&mut SplitMix64::new(seed))).is_err();
        assert!(!diverged, "Disk diverged from the model at seed {seed}");
    }
}

#[test]
fn crash_keeps_the_last_kept_rewrite_of_a_sector() {
    // The journal's tail sector: durable A, then B, C, D in one window.
    let (a, b, c, d) = (
        [1; SECTOR_SIZE],
        [2; SECTOR_SIZE],
        [3; SECTOR_SIZE],
        [4; SECTOR_SIZE],
    );
    for (keep, want) in [
        (vec![], a),
        (vec![0], b),
        (vec![1], c),
        (vec![0, 1], c),
        (vec![2], d),
        (vec![0, 2], d),
    ] {
        let disk = Disk::new();
        disk.write(9, &a);
        disk.flush();
        for s in [&b, &c, &d] {
            disk.write(9, s);
        }
        disk.crash(|i| keep.contains(&i));
        assert_eq!(disk.read(9), want, "kept writes {keep:?}");
    }
}
