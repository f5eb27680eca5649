//! A simulated block device with crash injection.
//!
//! Writes land in a volatile cache; [`Disk::flush`] makes everything
//! written so far durable; [`Disk::crash`] throws the volatile cache away
//! — optionally keeping a caller-chosen subset of unflushed sector
//! writes, modelling a drive that persisted some queued writes out of
//! order before power was lost (the adversarial reordering that journal
//! checksums exist to survive).
//!
//! The model writes through: a sector write lands in its page at once,
//! and the open flush window keeps only what a crash needs to take it
//! back — each write's LBA, and the prior content of a sector the write
//! overwrote (on the journal's commit path, the rewritten tail sector of
//! a shard's stream). A flush drops that log; a crash rebuilds each
//! touched sector from it. Each durable byte is held once.
//!
//! The journal writes through the fallible [`BlockDevice`] trait rather
//! than `Disk` directly, so a [`crate::faults::FaultyDisk`] can sit in
//! between and inject errors; `Disk` itself is the perfect device whose
//! trait impl never fails.

use std::fmt;

use parking_lot::Mutex;

/// Which device operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskOp {
    /// A sector read.
    Read,
    /// A sector write.
    Write,
    /// A flush barrier.
    Flush,
}

/// Why a device operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskError {
    /// The operation failed this time but may succeed if retried
    /// (a bus hiccup, a recoverable media error).
    Transient(DiskOp),
    /// The device has failed permanently; every future operation fails.
    Gone,
}

impl DiskError {
    /// Whether retrying the operation can possibly succeed.
    pub fn is_transient(self) -> bool {
        matches!(self, DiskError::Transient(_))
    }
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::Transient(op) => write!(f, "transient {op:?} failure"),
            DiskError::Gone => write!(f, "device failed permanently"),
        }
    }
}

impl std::error::Error for DiskError {}

/// At the [`atomfs_vfs::FileSystem`] boundary every device error that
/// defeated the retry policy surfaces as `EIO`, like a kernel FS would
/// report an exhausted block-layer retry.
impl From<DiskError> for atomfs_vfs::FsError {
    fn from(_: DiskError) -> Self {
        atomfs_vfs::FsError::Io
    }
}

/// The fallible storage interface the journal writes through.
///
/// [`Disk`] implements it infallibly; [`crate::faults::FaultyDisk`]
/// implements it with seeded fault injection.
pub trait BlockDevice: Send + Sync {
    /// Read sector `lba` (unwritten sectors read as zeroes).
    fn read(&self, lba: u64) -> Result<Sector, DiskError>;
    /// Write sector `lba` into the volatile cache.
    fn write(&self, lba: u64, data: &Sector) -> Result<(), DiskError>;
    /// Write barrier: make everything written so far durable.
    fn flush(&self) -> Result<(), DiskError>;
}

/// Bytes per sector.
pub const SECTOR_SIZE: usize = 512;

/// One sector's payload.
pub type Sector = [u8; SECTOR_SIZE];

/// Sectors per store page (one allocation, one written bitmap).
const PAGE_SECTORS: usize = 64;

/// One page of sectors: a 32 KiB block plus a bitmap telling written
/// sectors apart from never-written (zero-reading) ones. An unwritten
/// sector's bytes are zero.
struct Page {
    written: u64,
    data: Box<[Sector; PAGE_SECTORS]>,
}

impl Page {
    fn zeroed() -> Self {
        Page {
            written: 0,
            data: Box::new([[0u8; SECTOR_SIZE]; PAGE_SECTORS]),
        }
    }
}

/// Where sector `lba` lives: page index, sector index within the page.
fn locate(lba: u64) -> (usize, usize) {
    (lba as usize / PAGE_SECTORS, lba as usize % PAGE_SECTORS)
}

/// One write of the open flush window.
struct Pending {
    lba: u64,
    /// Index into [`DiskState::priors`] of what the sector held before
    /// this write; `None` when it held nothing (never written).
    prior: Option<u32>,
}

#[derive(Default)]
struct DiskState {
    /// Every sector as the drive reads it, paged by LBA: durable
    /// contents overlaid with the open window's writes (newest wins).
    /// A write is an index plus a memcpy — this sits on the journal's
    /// group-commit path, where a hashed store's per-sector probe cost
    /// was the single largest slice of the commit.
    pages: Vec<Option<Page>>,
    /// The open flush window's writes, in write order.
    window: Vec<Pending>,
    /// Prior contents of the sectors the open window overwrote.
    priors: Vec<Sector>,
    writes: u64,
    flushes: u64,
}

impl DiskState {
    fn sector(&self, lba: u64) -> Option<&Sector> {
        let (pi, si) = locate(lba);
        let page = self.pages.get(pi)?.as_ref()?;
        (page.written & (1 << si) != 0).then(|| &page.data[si])
    }

    /// Set sector `lba` to `data`, or back to never-written (zeroes).
    fn store(&mut self, lba: u64, data: Option<&Sector>) {
        let (pi, si) = locate(lba);
        if pi >= self.pages.len() {
            self.pages.resize_with(pi + 1, || None);
        }
        let page = self.pages[pi].get_or_insert_with(Page::zeroed);
        match data {
            Some(data) => {
                page.data[si] = *data;
                page.written |= 1 << si;
            }
            None => {
                page.data[si] = [0u8; SECTOR_SIZE];
                page.written &= !(1 << si);
            }
        }
    }

    /// Close the open window after a crash: each sector the window wrote
    /// goes back to the last write `kept` selects (by write index), or
    /// else to what it held before the window. The data of a write that
    /// a later write to the same sector overwrote is that later write's
    /// logged prior; the last write's data is in the page already.
    fn crash_window(&mut self, kept: &[bool]) {
        let window = std::mem::take(&mut self.window);
        let priors = std::mem::take(&mut self.priors);
        let mut order: Vec<usize> = (0..window.len()).collect();
        // Stable: each sector's writes stay in write order.
        order.sort_by_key(|&i| window[i].lba);
        for writes in order.chunk_by(|&a, &b| window[a].lba == window[b].lba) {
            let restore = match writes.iter().rposition(|&i| kept[i]) {
                Some(k) if k + 1 == writes.len() => continue,
                Some(k) => window[writes[k + 1]].prior,
                None => window[writes[0]].prior,
            };
            let lba = window[writes[0]].lba;
            self.store(lba, restore.map(|p| &priors[p as usize]));
        }
    }
}

/// The simulated device.
#[derive(Default)]
pub struct Disk {
    state: Mutex<DiskState>,
    /// Simulated cost of a non-empty flush barrier (zero by default).
    flush_latency: std::time::Duration,
}

impl Disk {
    /// A fresh, zeroed disk.
    pub fn new() -> Self {
        Self::default()
    }

    /// A disk whose flush barriers take `latency` of wall time when any
    /// writes are queued (an empty barrier stays free, like a real
    /// drive acking a flush with nothing in its cache).
    ///
    /// The default device flushes in ~zero time, which no storage does:
    /// a write barrier on real hardware costs tens to hundreds of
    /// microseconds, and that latency is precisely what group commit
    /// exists to amortize. Benchmarks comparing commit strategies use
    /// this constructor so every layout pays the same realistic barrier
    /// price; correctness tests keep the free default.
    pub fn with_flush_latency(latency: std::time::Duration) -> Self {
        Disk {
            state: Mutex::default(),
            flush_latency: latency,
        }
    }

    /// Read sector `lba` (unwritten sectors read as zeroes), observing
    /// the volatile cache like a real drive would: the newest write to
    /// the sector wins over durable data.
    pub fn read(&self, lba: u64) -> Sector {
        let st = self.state.lock();
        st.sector(lba).copied().unwrap_or([0u8; SECTOR_SIZE])
    }

    /// Write sector `lba` into the volatile cache.
    pub fn write(&self, lba: u64, data: &Sector) {
        let mut st = self.state.lock();
        let st = &mut *st;
        let prior = st.sector(lba).copied().map(|old| {
            st.priors.push(old);
            (st.priors.len() - 1) as u32
        });
        st.window.push(Pending { lba, prior });
        st.store(lba, Some(data));
        st.writes += 1;
    }

    /// Make everything written so far durable (a write barrier + flush).
    pub fn flush(&self) {
        let drained = {
            let mut st = self.state.lock();
            // The writes are in their pages already: durability is
            // forgetting how to take them back. Clear in place, so the
            // next window reuses the log's capacity.
            let drained = st.window.len();
            st.window.clear();
            st.priors.clear();
            st.flushes += 1;
            drained
        };
        // The simulated barrier latency runs outside the state lock, and
        // it sleeps rather than spins: the device is busy but the CPU is
        // not, exactly like a thread in io-wait. Writes issued while the
        // barrier is in flight queue up behind it (they stay volatile
        // until the *next* flush), like a real drive's cache accepting
        // writes while it drains.
        if drained > 0 && !self.flush_latency.is_zero() {
            std::thread::sleep(self.flush_latency);
        }
    }

    /// Crash: drop the volatile cache, except that for each queued write
    /// `keep(i)` decides whether the drive happened to persist it anyway
    /// (indices are in write order). Pass `|_| false` for a clean
    /// power-cut, or a random predicate for adversarial reordering.
    pub fn crash(&self, keep: impl FnMut(usize) -> bool) {
        let mut st = self.state.lock();
        let kept: Vec<bool> = (0..st.window.len()).map(keep).collect();
        st.crash_window(&kept);
    }

    /// Crash, keeping exactly the queued writes whose target LBA
    /// satisfies `keep` — modelling a drive that persisted one region's
    /// queued writes (one flash channel, one platter zone) but not
    /// another's. This is how the sharded-journal tests land a rename's
    /// intent durably while its seal (queued for a different shard's
    /// region) is lost.
    pub fn crash_keep_lbas(&self, mut keep: impl FnMut(u64) -> bool) {
        let mut st = self.state.lock();
        let kept: Vec<bool> = st.window.iter().map(|w| keep(w.lba)).collect();
        st.crash_window(&kept);
    }

    /// Total sector writes issued.
    pub fn write_count(&self) -> u64 {
        self.state.lock().writes
    }

    /// Total flush barriers issued.
    pub fn flush_count(&self) -> u64 {
        self.state.lock().flushes
    }

    /// Fault-injection hook: XOR `mask` into byte `byte` of the *durable*
    /// copy of sector `lba`, modelling silent media corruption (bit rot).
    /// Volatile (unflushed) writes of the sector are unaffected and still
    /// win on read, exactly like a real drive's cache would.
    pub fn corrupt_durable(&self, lba: u64, byte: usize, mask: u8) {
        let mut st = self.state.lock();
        let st = &mut *st;
        // A sector the open window wrote keeps its durable copy in the
        // log, as its first write's prior (zeroes if it had none).
        let durable = match st.window.iter().position(|w| w.lba == lba) {
            Some(first) => {
                let p = *st.window[first].prior.get_or_insert_with(|| {
                    st.priors.push([0u8; SECTOR_SIZE]);
                    (st.priors.len() - 1) as u32
                });
                &mut st.priors[p as usize]
            }
            None => {
                let old = st.sector(lba).copied().unwrap_or([0u8; SECTOR_SIZE]);
                st.store(lba, Some(&old));
                let (pi, si) = locate(lba);
                &mut st.pages[pi].as_mut().expect("just stored").data[si]
            }
        };
        durable[byte % SECTOR_SIZE] ^= mask;
    }

    /// The highest LBA that currently holds durable data, if any.
    pub fn max_durable_lba(&self) -> Option<u64> {
        let st = self.state.lock();
        // Written sectors, less those only the open window wrote.
        let unflushed_only = |lba: u64| {
            st.window
                .iter()
                .find(|w| w.lba == lba)
                .is_some_and(|w| w.prior.is_none())
        };
        for (pi, page) in st.pages.iter().enumerate().rev() {
            let mut bits = page.as_ref().map_or(0, |p| p.written);
            while bits != 0 {
                let top = 63 - bits.leading_zeros() as usize;
                let lba = (pi * PAGE_SECTORS + top) as u64;
                if !unflushed_only(lba) {
                    return Some(lba);
                }
                bits &= !(1 << top);
            }
        }
        None
    }
}

/// The perfect device: every operation succeeds.
impl BlockDevice for Disk {
    fn read(&self, lba: u64) -> Result<Sector, DiskError> {
        Ok(Disk::read(self, lba))
    }
    fn write(&self, lba: u64, data: &Sector) -> Result<(), DiskError> {
        Disk::write(self, lba, data);
        Ok(())
    }
    fn flush(&self) -> Result<(), DiskError> {
        Disk::flush(self);
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
    fn read_your_writes_before_flush() {
        let d = Disk::new();
        d.write(3, &sect(7));
        assert_eq!(d.read(3), sect(7));
        assert_eq!(d.read(4), sect(0), "unwritten sectors are zero");
    }

    #[test]
    fn clean_crash_loses_unflushed() {
        let d = Disk::new();
        d.write(1, &sect(1));
        d.flush();
        d.write(2, &sect(2));
        d.crash(|_| false);
        assert_eq!(d.read(1), sect(1), "flushed data survives");
        assert_eq!(d.read(2), sect(0), "unflushed data is gone");
    }

    #[test]
    fn adversarial_crash_keeps_arbitrary_subset() {
        let d = Disk::new();
        d.write(1, &sect(1));
        d.write(2, &sect(2));
        d.write(3, &sect(3));
        // The drive persisted only the *middle* write before dying.
        d.crash(|i| i == 1);
        assert_eq!(d.read(1), sect(0));
        assert_eq!(d.read(2), sect(2));
        assert_eq!(d.read(3), sect(0));
    }

    #[test]
    fn newest_volatile_write_wins() {
        let d = Disk::new();
        d.write(5, &sect(1));
        d.write(5, &sect(2));
        assert_eq!(d.read(5), sect(2));
        d.flush();
        assert_eq!(d.read(5), sect(2));
    }

    #[test]
    fn corrupt_durable_flips_bits_silently() {
        let d = Disk::new();
        d.write(2, &sect(0xF0));
        d.flush();
        d.corrupt_durable(2, 10, 0x01);
        let mut expect = sect(0xF0);
        expect[10] ^= 0x01;
        assert_eq!(d.read(2), expect);
        assert_eq!(d.max_durable_lba(), Some(2));
    }

    #[test]
    fn block_device_impl_is_infallible() {
        let d = Disk::new();
        let dev: &dyn BlockDevice = &d;
        dev.write(1, &sect(9)).unwrap();
        assert_eq!(dev.read(1).unwrap(), sect(9));
        dev.flush().unwrap();
    }

    #[test]
    fn counters() {
        let d = Disk::new();
        d.write(0, &sect(0));
        d.write(1, &sect(0));
        d.flush();
        assert_eq!(d.write_count(), 2);
        assert_eq!(d.flush_count(), 1);
    }
}
