//! Deterministic fault injection for the simulated storage stack.
//!
//! [`FaultyDisk`] wraps a [`Disk`] behind the [`BlockDevice`] trait and
//! injects faults driven by a [`FaultPlan`]: a seeded [`SplitMix64`] stream
//! makes every schedule exactly reproducible from a `u64`. Four fault
//! classes, each independently togglable:
//!
//! * **transient errors** — a read/write/flush fails this once; a retry
//!   draws fresh luck (this is what the journal's
//!   [`crate::health::RetryPolicy`] absorbs);
//! * **permanent failure** — after a budgeted number of device ops the
//!   device dies and every later op returns [`DiskError::Gone`];
//! * **torn writes** — a sector write silently persists only a prefix of
//!   the new bytes over the old contents (the record checksum is what
//!   catches this at recovery);
//! * **bit flips** — after a flush, one random bit of one random durable
//!   sector is silently inverted (media rot; again caught by checksums).
//!
//! Determinism caveat: the fault stream is serialized under one mutex, so
//! a multi-threaded workload is reproducible only up to its own thread
//! interleaving. The fault-storm tests drive single-threaded workloads.

use std::sync::Arc;

use atomfs_vfs::SplitMix64;
use parking_lot::Mutex;

use crate::device::{BlockDevice, Disk, DiskError, DiskOp, Sector, SECTOR_SIZE};

/// A per-65536 probability (0 = never, 65536 = always).
pub type Rate = u32;

/// What faults to inject, reproducible from `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seeds the fault stream; equal plans replay identical schedules.
    pub seed: u64,
    /// Transient failure rate for sector reads.
    pub transient_read: Rate,
    /// Transient failure rate for sector writes.
    pub transient_write: Rate,
    /// Transient failure rate for flush barriers.
    pub transient_flush: Rate,
    /// Rate at which a sector write silently persists only a prefix.
    pub torn_write: Rate,
    /// Rate at which a flush silently flips one durable bit.
    pub bit_flip: Rate,
    /// Device ops after which the device fails permanently.
    pub fail_after: Option<u64>,
    /// When set, faults strike only sector ops targeting LBAs in this
    /// half-open range — out-of-range ops bypass the fault layer
    /// entirely (they neither fail nor advance the fault stream), and
    /// bit-flip victims are drawn from the range. This models a
    /// *localized* media failure, e.g. one shard region of a sharded
    /// journal dying while its siblings stay healthy. Flush is a
    /// device-wide barrier with no LBA, so a region-scoped plan leaves
    /// it fault-free.
    pub region: Option<(u64, u64)>,
}

impl FaultPlan {
    /// No faults at all: the fallible plumbing with a perfect device.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_read: 0,
            transient_write: 0,
            transient_flush: 0,
            torn_write: 0,
            bit_flip: 0,
            fail_after: None,
            region: None,
        }
    }

    /// Enable transient read/write/flush errors at the given rates.
    pub fn with_transient(mut self, read: Rate, write: Rate, flush: Rate) -> Self {
        self.transient_read = read;
        self.transient_write = write;
        self.transient_flush = flush;
        self
    }

    /// Enable torn sector writes at the given rate.
    pub fn with_torn_writes(mut self, rate: Rate) -> Self {
        self.torn_write = rate;
        self
    }

    /// Enable post-flush durable bit flips at the given rate.
    pub fn with_bit_flips(mut self, rate: Rate) -> Self {
        self.bit_flip = rate;
        self
    }

    /// Kill the device permanently after `ops` device operations.
    pub fn with_permanent_failure_after(mut self, ops: u64) -> Self {
        self.fail_after = Some(ops);
        self
    }

    /// Confine every fault class to LBAs in `[start, end)` (see
    /// [`FaultPlan::region`]).
    pub fn with_region(mut self, start: u64, end: u64) -> Self {
        self.region = Some((start, end));
        self
    }

    /// A randomized storm: moderate transient rates always on, and the
    /// silent-corruption / permanent classes enabled or not depending on
    /// bits of the seed — so a seed sweep covers every combination.
    ///
    /// `corrupts_silently` tells callers whether this plan can destroy
    /// acked data (torn writes / bit flips), which weakens the durability
    /// property they may assert from *exact* to *prefix of the last
    /// surviving sync*.
    pub fn storm(seed: u64) -> Self {
        let mut s = SplitMix64::new(seed ^ 0xA076_1D64_78BD_642F);
        let mut plan = FaultPlan::none(seed).with_transient(
            s.random_range(0..2500),
            s.random_range(0..2500),
            s.random_range(0..2500),
        );
        if seed & 1 != 0 {
            plan = plan.with_torn_writes(s.random_range(200..2000));
        }
        if seed & 2 != 0 {
            plan = plan.with_bit_flips(s.random_range(500..4000));
        }
        if seed & 4 != 0 {
            plan = plan.with_permanent_failure_after(s.random_range(40..400));
        }
        plan
    }

    /// Whether the plan includes fault classes that can silently destroy
    /// already-acknowledged (flushed) data.
    pub fn corrupts_silently(&self) -> bool {
        self.torn_write > 0 || self.bit_flip > 0
    }
}

/// Counters of injected faults (and total device ops gated).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Device operations that reached the fault layer.
    pub ops: u64,
    /// Injected transient read failures.
    pub transient_reads: u64,
    /// Injected transient write failures.
    pub transient_writes: u64,
    /// Injected transient flush failures.
    pub transient_flushes: u64,
    /// Sector writes that silently persisted only a prefix.
    pub torn_writes: u64,
    /// Durable bits silently flipped after flushes.
    pub bit_flips: u64,
    /// Whether the device has failed permanently.
    pub gone: bool,
}

impl FaultStats {
    /// Total injected faults across every class.
    pub fn total_injected(&self) -> u64 {
        self.transient_reads
            + self.transient_writes
            + self.transient_flushes
            + self.torn_writes
            + self.bit_flips
    }
}

struct FaultState {
    rng: SplitMix64,
    stats: FaultStats,
    /// Highest LBA ever written through this wrapper (bit flips pick a
    /// victim in `0..=max_lba` so the choice is deterministic — durable
    /// map iteration order is not).
    max_lba: u64,
}

/// A [`BlockDevice`] that injects the faults a [`FaultPlan`] prescribes
/// into an underlying perfect [`Disk`].
pub struct FaultyDisk {
    inner: Arc<Disk>,
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

impl FaultyDisk {
    /// Wrap `inner`, injecting faults per `plan`.
    pub fn new(inner: Arc<Disk>, plan: FaultPlan) -> Self {
        FaultyDisk {
            inner,
            plan,
            state: Mutex::new(FaultState {
                rng: SplitMix64::new(plan.seed ^ 0x9E6C_63D0_876A_68EE),
                stats: FaultStats::default(),
                max_lba: 0,
            }),
        }
    }

    /// The underlying perfect disk (the "platter"): recovery after a
    /// power cycle reads it directly — the fault plan models one power
    /// session of the controller, not the medium.
    pub fn disk(&self) -> &Arc<Disk> {
        &self.inner
    }

    /// The plan this wrapper executes.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Snapshot of the injected-fault counters.
    pub fn stats(&self) -> FaultStats {
        self.state.lock().stats
    }

    /// Crash the underlying disk (see [`Disk::crash`]).
    pub fn crash(&self, keep: impl FnMut(usize) -> bool) {
        self.inner.crash(keep);
    }

    /// Permanent-failure gate: counts the op and kills the device when
    /// the plan's budget is exhausted.
    fn gate(&self, st: &mut FaultState) -> Result<(), DiskError> {
        if st.stats.gone {
            return Err(DiskError::Gone);
        }
        st.stats.ops += 1;
        if let Some(limit) = self.plan.fail_after {
            if st.stats.ops > limit {
                st.stats.gone = true;
                return Err(DiskError::Gone);
            }
        }
        Ok(())
    }

    fn roll(st: &mut FaultState, rate: Rate) -> bool {
        rate > 0 && (st.rng.next_u64() & 0xFFFF) < u64::from(rate)
    }

    /// Whether `lba` is subject to this plan's faults.
    fn in_region(&self, lba: u64) -> bool {
        self.plan.region.is_none_or(|(s, e)| lba >= s && lba < e)
    }
}

impl BlockDevice for FaultyDisk {
    fn read(&self, lba: u64) -> Result<Sector, DiskError> {
        if !self.in_region(lba) {
            return Ok(self.inner.read(lba));
        }
        let mut st = self.state.lock();
        self.gate(&mut st)?;
        if Self::roll(&mut st, self.plan.transient_read) {
            st.stats.transient_reads += 1;
            return Err(DiskError::Transient(DiskOp::Read));
        }
        Ok(self.inner.read(lba))
    }

    fn write(&self, lba: u64, data: &Sector) -> Result<(), DiskError> {
        if !self.in_region(lba) {
            self.inner.write(lba, data);
            return Ok(());
        }
        let mut st = self.state.lock();
        self.gate(&mut st)?;
        if Self::roll(&mut st, self.plan.transient_write) {
            st.stats.transient_writes += 1;
            return Err(DiskError::Transient(DiskOp::Write));
        }
        st.max_lba = st.max_lba.max(lba);
        if Self::roll(&mut st, self.plan.torn_write) {
            // Persist only a prefix of the new bytes over the old
            // contents and *report success*: the loss is silent, exactly
            // the failure mode record checksums exist to catch.
            st.stats.torn_writes += 1;
            let split = st.rng.random_range(1..SECTOR_SIZE);
            let mut torn = self.inner.read(lba);
            torn[..split].copy_from_slice(&data[..split]);
            self.inner.write(lba, &torn);
            return Ok(());
        }
        self.inner.write(lba, data);
        Ok(())
    }

    fn flush(&self) -> Result<(), DiskError> {
        let mut st = self.state.lock();
        if self.plan.region.is_none() {
            self.gate(&mut st)?;
            if Self::roll(&mut st, self.plan.transient_flush) {
                st.stats.transient_flushes += 1;
                return Err(DiskError::Transient(DiskOp::Flush));
            }
        }
        self.inner.flush();
        if Self::roll(&mut st, self.plan.bit_flip) {
            // Silent media rot: one random durable bit inverts. Victims
            // come from the written range, intersected with a region
            // when the plan is region-scoped.
            let (lo, hi) = self.plan.region.unwrap_or((0, u64::MAX));
            let hi = hi.min(st.max_lba + 1);
            if lo < hi {
                st.stats.bit_flips += 1;
                let lba = st.rng.random_range(lo..hi);
                let byte = st.rng.random_range(0..SECTOR_SIZE);
                let mask = 1u8 << st.rng.random_range(0..8);
                self.inner.corrupt_durable(lba, byte, mask);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sect(b: u8) -> Sector {
        [b; SECTOR_SIZE]
    }

    #[test]
    fn no_fault_plan_is_transparent() {
        let disk = Arc::new(Disk::new());
        let dev = FaultyDisk::new(Arc::clone(&disk), FaultPlan::none(7));
        dev.write(3, &sect(5)).unwrap();
        assert_eq!(dev.read(3).unwrap(), sect(5));
        dev.flush().unwrap();
        assert_eq!(dev.stats().total_injected(), 0);
        assert_eq!(dev.stats().ops, 3);
    }

    #[test]
    fn same_seed_replays_identical_fault_schedule() {
        let plan = FaultPlan::none(42).with_transient(20_000, 20_000, 20_000);
        let run = || {
            let dev = FaultyDisk::new(Arc::new(Disk::new()), plan);
            let mut outcomes = Vec::new();
            for i in 0..200u64 {
                outcomes.push(dev.write(i % 8, &sect(i as u8)).is_ok());
                outcomes.push(dev.read(i % 8).is_ok());
            }
            outcomes.push(dev.flush().is_ok());
            (outcomes, dev.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            let dev = FaultyDisk::new(
                Arc::new(Disk::new()),
                FaultPlan::none(seed).with_transient(30_000, 30_000, 0),
            );
            let mut v = Vec::new();
            for i in 0..64u64 {
                v.push(dev.write(i, &sect(1)).is_ok());
            }
            v
        };
        assert_ne!(mk(1), mk(2), "seeds 1 and 2 drew identical schedules");
    }

    #[test]
    fn permanent_failure_is_permanent() {
        let dev = FaultyDisk::new(
            Arc::new(Disk::new()),
            FaultPlan::none(0).with_permanent_failure_after(3),
        );
        assert!(dev.write(0, &sect(1)).is_ok());
        assert!(dev.read(0).is_ok());
        assert!(dev.flush().is_ok());
        assert_eq!(dev.write(1, &sect(2)), Err(DiskError::Gone));
        assert_eq!(dev.read(0), Err(DiskError::Gone));
        assert_eq!(dev.flush(), Err(DiskError::Gone));
        assert!(dev.stats().gone);
    }

    #[test]
    fn torn_write_persists_a_prefix() {
        let disk = Arc::new(Disk::new());
        // torn_write = 65536: every write tears.
        let dev = FaultyDisk::new(
            Arc::clone(&disk),
            FaultPlan::none(9).with_torn_writes(65_536),
        );
        disk.write(0, &sect(0xAA));
        disk.flush();
        dev.write(0, &sect(0xBB)).unwrap();
        let got = disk.read(0);
        assert_eq!(got[0], 0xBB, "a torn write still lands its prefix");
        assert_eq!(got[SECTOR_SIZE - 1], 0xAA, "the suffix keeps old bytes");
        assert_eq!(dev.stats().torn_writes, 1);
    }

    #[test]
    fn bit_flip_corrupts_one_durable_bit() {
        let disk = Arc::new(Disk::new());
        let dev = FaultyDisk::new(Arc::clone(&disk), FaultPlan::none(3).with_bit_flips(65_536));
        dev.write(0, &sect(0)).unwrap();
        dev.flush().unwrap();
        assert_eq!(dev.stats().bit_flips, 1);
        let flipped: u32 = disk.read(0).iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped");
    }

    #[test]
    fn region_scoped_plan_spares_out_of_region_lbas() {
        let disk = Arc::new(Disk::new());
        let dev = FaultyDisk::new(
            Arc::clone(&disk),
            FaultPlan::none(0)
                .with_permanent_failure_after(0)
                .with_region(100, 200),
        );
        // Out-of-region traffic bypasses the fault layer entirely...
        dev.write(5, &sect(1)).unwrap();
        assert_eq!(dev.read(5).unwrap(), sect(1));
        dev.flush().unwrap();
        // ...while the region is dead on arrival.
        assert_eq!(dev.write(150, &sect(2)), Err(DiskError::Gone));
        assert_eq!(dev.read(150), Err(DiskError::Gone));
        assert!(dev.stats().gone);
        // Bit flips scoped to a region never leave it.
        let disk = Arc::new(Disk::new());
        let dev = FaultyDisk::new(
            Arc::clone(&disk),
            FaultPlan::none(3).with_bit_flips(65_536).with_region(2, 4),
        );
        for lba in 0..6 {
            dev.write(lba, &sect(0)).unwrap();
        }
        dev.flush().unwrap();
        assert_eq!(dev.stats().bit_flips, 1);
        for lba in [0u64, 1, 4, 5] {
            assert_eq!(disk.read(lba), sect(0), "flip escaped to LBA {lba}");
        }
        let flipped: u32 = (2..4)
            .map(|l| disk.read(l).iter().map(|b| b.count_ones()).sum::<u32>())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn fault_schedule_is_pinned() {
        let storms: Vec<_> = (0..8)
            .map(|seed| {
                let p = FaultPlan::storm(seed);
                (
                    p.transient_read,
                    p.transient_write,
                    p.transient_flush,
                    p.torn_write,
                    p.bit_flip,
                    p.fail_after,
                )
            })
            .collect();
        // Values captured before the stream moved to `SplitMix64`:
        // `FAULT_STORM_SEED=k` replays the schedules it always did.
        assert_eq!(
            storms,
            [
                (891, 382, 941, 0, 0, None),
                (1120, 2306, 409, 795, 0, None),
                (1209, 2018, 2027, 0, 2500, None),
                (1370, 434, 1737, 1500, 3410, None),
                (2055, 369, 2129, 0, 0, Some(49)),
                (951, 273, 1209, 887, 0, Some(91)),
                (1602, 1532, 1693, 0, 3892, Some(311)),
                (1789, 225, 1143, 1656, 592, Some(101)),
            ]
        );
        let disk = Arc::new(Disk::new());
        let plan = FaultPlan::none(42)
            .with_transient(20_000, 20_000, 20_000)
            .with_torn_writes(20_000)
            .with_bit_flips(30_000);
        let dev = FaultyDisk::new(Arc::clone(&disk), plan);
        let mut outcomes = 0u128;
        for i in 0..40u64 {
            let ok = [
                dev.write(i % 8, &sect(i as u8 + 1)).is_ok(),
                dev.read(i % 8).is_ok(),
                dev.flush().is_ok(),
            ];
            for (k, bit) in ok.into_iter().enumerate() {
                outcomes |= u128::from(bit) << (3 * i as usize + k);
            }
        }
        let digest = (0..8)
            .flat_map(|l| disk.read(l))
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
        assert_eq!(outcomes, 0x27_ff9e_fb6d_3cc8_7138_eefe_6de0_72df);
        assert_eq!(
            digest, 0xffbc_19a8_be4a_f50d,
            "torn prefixes and flipped bits moved"
        );
        let stats = dev.stats();
        assert_eq!(
            (
                stats.ops,
                stats.transient_reads,
                stats.transient_writes,
                stats.transient_flushes
            ),
            (120, 15, 16, 14)
        );
        assert_eq!(
            (stats.torn_writes, stats.bit_flips, stats.gone),
            (7, 7, false)
        );
    }

    #[test]
    fn storm_plans_cover_all_classes_across_seeds() {
        let mut torn = false;
        let mut flips = false;
        let mut permanent = false;
        let mut clean = false;
        for seed in 0..8 {
            let p = FaultPlan::storm(seed);
            torn |= p.torn_write > 0;
            flips |= p.bit_flip > 0;
            permanent |= p.fail_after.is_some();
            clean |= !p.corrupts_silently() && p.fail_after.is_none();
        }
        assert!(torn && flips && permanent && clean);
    }
}
