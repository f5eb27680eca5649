//! Inodes and the inode-number allocator.
//!
//! Each inode is an [`InodeSlot`], one heap block behind its
//! [`InodeRef`]: the paper's per-inode lock (a `Mutex<InodeData>` held
//! inline) plus the optimistic-walk state — a sequence counter (seqlock
//! discipline: odd = write in progress), a packed metadata word for
//! lockless `stat`, and, for directories, the [`FastDir`] that is the
//! directory's only name→inode index. A [`SlotGuard`] is the owned lock
//! the lock-coupling walker carries from step to step: the borrowed
//! guard and the `InodeRef` that keeps its slot alive.
//!
//! Slots are reached by walking from the root through directory indexes,
//! never by number: a parent's index owns its children's `Arc`s. The
//! [`InodeTable`] only hands out inode numbers and keeps a live bitmap
//! that catches double frees.
//!
//! # What is shared, what is per thread
//!
//! * **Numbers** come from the core's per-thread magazine allocator
//!   (`crate::magazine`), the same one the block store uses: a thread
//!   frees into and allocates from its own bounded magazine, and only a
//!   magazine's overflow or refill takes the shared depot lock. A lone
//!   thread reuses freed numbers last-in first-out, then takes fresh ones
//!   in ascending order, so single-threaded numbering is deterministic.
//! * **The live bitmap** is one `AtomicU64` per 64 numbers, set and
//!   cleared with one atomic RMW per alloc or free. Its words come in
//!   pages of 4 096 numbers, each created on the first alloc it
//!   covers, so a table touches bitmap memory only for the numbers it
//!   has issued, not for its whole capacity. A free of a number that is
//!   not live panics.
//! * **`ENOSPC`** ([`FsError::NoSpace`]) fires when every number is live.
//!   Numbers run `1..=capacity`, the root included, and capacity is
//!   enforced where fresh numbers are issued; before failing, an
//!   allocation steals from every other thread's magazine.
//!   [`InodeTable::live`] is issued numbers minus free ones, a
//!   diagnostic, not the bound.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, MutexGuard};

use atomfs_trace::{Inum, ROOT_INUM};
use atomfs_vfs::{FileType, FsError, FsResult, Metadata};

use crate::fastdir::FastDir;
use crate::inode::InodeData;
use crate::magazine::Magazines;

/// A shared, lockable, seqlock-versioned inode.
pub type InodeRef = Arc<InodeSlot>;

/// Directory flag bit of the packed metadata word.
const META_DIR: u64 = 1 << 63;

/// One inode: contents behind the per-inode lock, plus the lockless
/// sidecar state read by the optimistic walk.
pub struct InodeSlot {
    ino: Inum,
    /// The lock-protected contents, inline in the slot.
    data: Mutex<InodeData>,
    /// Seqlock: even = stable, odd = a mutation is in progress under the
    /// inode lock. Bumped to odd at the first mutation of a critical
    /// section and back to even (with `meta`/`dir` coherent) just before
    /// the lock is released — so it stays odd across the *whole* mutation
    /// tail of a critical section, and a lockless reader can never
    /// validate across a half-done operation.
    seq: AtomicU64,
    /// Packed metadata for lockless `stat`: bit 63 = is-dir; directories
    /// pack `subdirs << 32 | len`, files pack the size (< 2^63).
    meta: AtomicU64,
    /// The directory's entries (directories only).
    dir: Option<FastDir>,
}

impl InodeSlot {
    /// Fresh empty inode of the given type.
    pub fn new(ino: Inum, ftype: FileType) -> Self {
        let is_dir = ftype.is_dir();
        InodeSlot {
            ino,
            data: Mutex::new(InodeData::new(ftype)),
            seq: AtomicU64::new(0),
            meta: AtomicU64::new(if is_dir { META_DIR } else { 0 }),
            dir: is_dir.then(FastDir::new),
        }
    }

    /// This inode's number.
    pub fn ino(&self) -> Inum {
        self.ino
    }

    /// Lock the contents for the length of a borrow of the slot (the
    /// walker keeps [`SlotGuard`]s instead: [`InodeSlot::lock_owned`]).
    pub fn lock(&self) -> MutexGuard<'_, InodeData> {
        self.data.lock()
    }

    /// Lock the contents with an owned guard, which keeps the slot alive
    /// and may outlive the borrow it was taken through.
    pub fn lock_owned(self: &Arc<Self>) -> SlotGuard {
        SlotGuard::new(self)
    }

    /// Whether any thread currently holds this inode's lock (used by the
    /// mutation fast path's ancestor probe).
    pub(crate) fn is_locked(&self) -> bool {
        self.data.is_locked()
    }

    /// The directory index, if this inode is a directory.
    pub fn dir(&self) -> Option<&FastDir> {
        self.dir.as_ref()
    }

    /// Metadata of this inode; `data` is its contents, locked by the
    /// caller (so a directory's counts are exact too).
    pub fn metadata(&self, data: &InodeData) -> Metadata {
        Self::metadata_of(self.ino, self.pack_meta(data))
    }

    /// Pack this inode's metadata into the lockless `meta` word.
    fn pack_meta(&self, data: &InodeData) -> u64 {
        match data {
            InodeData::File(f) => {
                debug_assert!(f.size() < META_DIR);
                f.size()
            }
            InodeData::Dir => {
                let d = self.dir().expect("a directory inode has an index");
                META_DIR | (u64::from(d.subdirs()) << 32) | (d.len() as u64 & 0xffff_ffff)
            }
        }
    }

    /// `Acquire`-load the sequence counter.
    pub(crate) fn seq_read(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Enter the seqlock write window (inode lock held): seq becomes odd.
    pub(crate) fn write_begin(&self) {
        let prev = self.seq.fetch_add(1, Ordering::AcqRel);
        debug_assert!(
            prev.is_multiple_of(2),
            "nested write_begin on inode {}",
            self.ino
        );
    }

    /// Leave the seqlock write window (inode lock still held): republish
    /// the packed metadata, then make seq even again.
    pub(crate) fn write_end(&self, data: &InodeData) {
        self.meta.store(self.pack_meta(data), Ordering::Release);
        let prev = self.seq.fetch_add(1, Ordering::Release);
        debug_assert!(
            prev % 2 == 1,
            "write_end without write_begin on {}",
            self.ino
        );
    }

    /// `Acquire`-load the packed metadata word (validate with the seqlock).
    pub(crate) fn meta_read(&self) -> u64 {
        self.meta.load(Ordering::Acquire)
    }

    /// Decode a packed metadata word read locklessly.
    pub(crate) fn metadata_of(ino: Inum, meta: u64) -> Metadata {
        if meta & META_DIR != 0 {
            Metadata::dir(ino, meta & 0xffff_ffff, ((meta >> 32) & 0x3fff_ffff) as u32)
        } else {
            Metadata::file(ino, meta)
        }
    }
}

impl Drop for InodeSlot {
    /// Dismantle the directory index iteratively before the field drops.
    ///
    /// A directory's `FastDir` holds `Arc`s to its live children, so a
    /// deep chain whose links are each kept alive only by the parent's
    /// index — the whole tree at FS teardown — would otherwise free
    /// itself by nested drops, one stack frame per level, and overflow on
    /// deep trees. The worklist
    /// below transfers ownership of every such descendant up front: each
    /// popped slot's own index is emptied *before* the slot drops, so the
    /// nested `Drop` recursion bottoms out immediately.
    fn drop(&mut self) {
        let Some(dir) = self.dir.as_ref() else {
            return;
        };
        // SAFETY: this inode is being dropped, and each popped child is
        // owned here alone (`Arc::into_inner`), so no thread reads their
        // indexes.
        let mut pending = unsafe { dir.drain_for_teardown() };
        while let Some(child) = pending.pop() {
            if let Some(slot) = Arc::into_inner(child) {
                if let Some(f) = slot.dir.as_ref() {
                    // SAFETY: as above; `slot` is owned here alone.
                    pending.extend(unsafe { f.drain_for_teardown() });
                }
                // `slot` drops here: re-enters this impl with an already
                // emptied index — constant depth.
            }
        }
    }
}

/// An owned lock of one inode: the guard over its contents, and the
/// [`InodeRef`] that keeps the slot holding the lock alive. Dropping it
/// unlocks, then drops the reference.
pub struct SlotGuard {
    // Declared before `slot`, so it drops (unlocks) first.
    guard: MutexGuard<'static, InodeData>,
    slot: InodeRef,
}

impl SlotGuard {
    /// Block until `slot`'s lock is held.
    fn new(slot: &InodeRef) -> Self {
        let slot = InodeRef::clone(slot);
        let guard = slot.data.lock();
        // SAFETY: the guard borrows the mutex inside the slot's `Arc`
        // allocation, which does not move and is freed only when its last
        // reference drops. `SlotGuard` keeps one such reference in
        // `slot`, never hands the `'static` guard out, and drops the
        // guard before that reference (field order), so the borrow ends
        // while the mutex is still alive.
        let guard = unsafe {
            std::mem::transmute::<MutexGuard<'_, InodeData>, MutexGuard<'static, InodeData>>(guard)
        };
        SlotGuard { guard, slot }
    }

    /// The locked slot.
    #[inline]
    pub fn slot(&self) -> &InodeRef {
        &self.slot
    }
}

impl std::ops::Deref for SlotGuard {
    type Target = InodeData;
    #[inline]
    fn deref(&self) -> &InodeData {
        &self.guard
    }
}

impl std::ops::DerefMut for SlotGuard {
    #[inline]
    fn deref_mut(&mut self) -> &mut InodeData {
        &mut self.guard
    }
}

impl std::fmt::Debug for InodeSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "InodeSlot(ino={})", self.ino)
    }
}

/// Inode numbers per page of the live bitmap.
const PAGE_BITS: usize = 4096;

/// One page of the live bitmap.
type BitPage = [AtomicU64; PAGE_BITS / 64];

/// The root inode plus the inode-number allocator.
pub struct InodeTable {
    /// Free and fresh numbers `ROOT_INUM + 1..=capacity`.
    nums: Magazines<Inum>,
    /// One bit per inode number `0..=capacity`, set while the number is
    /// live; a page is created by the first alloc in its range.
    bits: Box<[OnceLock<Box<BitPage>>]>,
    capacity: usize,
    /// The root directory; every other inode hangs off its index.
    root: InodeRef,
}

impl InodeTable {
    /// Create a table with the root directory pre-allocated at
    /// [`ROOT_INUM`], able to hold up to `capacity` live inodes.
    pub fn new(capacity: usize) -> Self {
        let first = ROOT_INUM as usize + 1;
        let t = InodeTable {
            nums: Magazines::new(first, capacity + 1),
            bits: (0..(capacity + 1).max(first).div_ceil(PAGE_BITS))
                .map(|_| OnceLock::new())
                .collect(),
            capacity,
            root: Arc::new(InodeSlot::new(ROOT_INUM, FileType::Dir)),
        };
        t.set_live(ROOT_INUM, true);
        t
    }

    /// Set `ino`'s live bit to `live`, returning its previous value. The
    /// magazine locks order a free's clear before the number's next alloc.
    /// A number past the bitmap, or in a page never created, is not live.
    fn set_live(&self, ino: Inum, live: bool) -> bool {
        let (page, bit) = (ino as usize / PAGE_BITS, 1u64 << (ino % 64));
        let word = ino as usize % PAGE_BITS / 64;
        let prev = if live {
            self.bits[page].get_or_init(|| Box::new(std::array::from_fn(|_| AtomicU64::new(0))))
                [word]
                .fetch_or(bit, Ordering::Relaxed)
        } else {
            match self.bits.get(page).and_then(OnceLock::get) {
                Some(p) => p[word].fetch_and(!bit, Ordering::Relaxed),
                None => 0,
            }
        };
        prev & bit != 0
    }

    /// Number of live inodes (including the root): issued numbers minus
    /// free ones, exact when no thread is allocating or freeing.
    pub fn live(&self) -> usize {
        1 + self.nums.in_use()
    }

    /// Maximum number of live inodes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The root directory inode.
    pub fn root(&self) -> InodeRef {
        Arc::clone(&self.root)
    }

    /// Borrow the root without touching any lock (optimistic walk entry).
    pub(crate) fn root_ref(&self) -> &InodeRef {
        &self.root
    }

    /// Allocate a fresh inode with empty contents of type `ftype`.
    pub fn alloc(&self, ftype: FileType) -> FsResult<(Inum, InodeRef)> {
        let (ino, _) = self.nums.alloc().ok_or(FsError::NoSpace)?;
        let was_live = self.set_live(ino, true);
        debug_assert!(!was_live, "inode {ino} double-allocated");
        Ok((ino, Arc::new(InodeSlot::new(ino, ftype))))
    }

    /// Free a live inode.
    ///
    /// The caller must have unlinked the inode from every directory and
    /// must hold no references it intends to use afterwards (the paper's
    /// `free(node)`; lock coupling guarantees no other thread can be
    /// waiting on the lock at this point). A recycled number gets a brand
    /// new [`InodeSlot`], so stale optimistic references can never
    /// confuse an old inode with its successor.
    pub fn free(&self, ino: Inum) {
        assert_ne!(ino, ROOT_INUM, "cannot free the root");
        assert!(self.set_live(ino, false), "double free of inode {ino}");
        self.nums.free(ino);
    }

    /// Snapshot the numbers of all live inodes (diagnostics/tests only).
    pub fn live_inums(&self) -> Vec<Inum> {
        let mut out = Vec::new();
        for (p, page) in self.bits.iter().enumerate() {
            for (w, word) in page.get().into_iter().flat_map(|p| p.iter()).enumerate() {
                let base = (p * PAGE_BITS + w * 64) as Inum;
                let bits = word.load(Ordering::Relaxed);
                out.extend((0..64).filter(|b| bits & (1 << b) != 0).map(|b| base + b));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_exists_and_is_dir() {
        let t = InodeTable::new(16);
        let root = t.root();
        assert_eq!(root.lock().ftype(), FileType::Dir);
        assert_eq!(t.live(), 1);
        assert_eq!(t.live_inums(), vec![ROOT_INUM]);
    }

    #[test]
    fn alloc_free_recycles() {
        let t = InodeTable::new(16);
        let (a, _) = t.alloc(FileType::File).unwrap();
        let (b, _) = t.alloc(FileType::Dir).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.live(), 3);
        t.free(a);
        assert_eq!(t.live(), 2);
        let (c, _) = t.alloc(FileType::File).unwrap();
        assert_eq!(c, a, "free list should recycle inums");
        assert_eq!(t.live_inums(), vec![ROOT_INUM, a, b]);
    }

    /// Deep parent→child `Arc` chains must be dismantled iteratively.
    /// Two shapes on a 128 KiB stack: a live chain (FS teardown — every
    /// link alive, each held by its parent's index) and a removed chain
    /// (every link rmdir'd deepest-first: each was retired at its rmdir,
    /// so the indexes left to drop hold tombstones, not links).
    #[test]
    fn deep_chains_drop_without_recursion() {
        use crate::{AtomFs, AtomFsConfig};
        use atomfs_vfs::FileSystem;
        for rmdir_first in [false, true] {
            let fs = AtomFs::with_config(AtomFsConfig::default());
            let mut path = String::new();
            for _ in 0..2000 {
                path.push_str("/d");
                fs.mkdir(&path).unwrap();
            }
            if rmdir_first {
                for depth in (1..=2000).rev() {
                    fs.rmdir(&"/d".repeat(depth)).unwrap();
                }
            }
            std::thread::Builder::new()
                .stack_size(128 * 1024)
                .spawn(move || drop(fs))
                .unwrap()
                .join()
                .expect("drop must not overflow the stack");
        }
    }

    #[test]
    fn capacity_enforced() {
        let t = InodeTable::new(2);
        let (_a, _) = t.alloc(FileType::File).unwrap();
        assert_eq!(t.alloc(FileType::File).unwrap_err(), FsError::NoSpace);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let t = InodeTable::new(8);
        let (a, _) = t.alloc(FileType::File).unwrap();
        t.free(a);
        t.free(a);
    }

    /// Eight threads each allocate 500 numbers, then churn batches of up
    /// to 100, enough to spill magazines into the depot and refill from
    /// it. Every number's flag must flip false→true on alloc and
    /// true→false on free: a number handed out twice at once fails the
    /// swap.
    #[test]
    fn concurrent_alloc() {
        use std::sync::atomic::AtomicBool;
        const CAP: usize = 10_000;
        let t = Arc::new(InodeTable::new(CAP));
        let live: Arc<Vec<AtomicBool>> =
            Arc::new((0..=CAP).map(|_| AtomicBool::new(false)).collect());
        let take = |t: &InodeTable, live: &[AtomicBool]| {
            let ino = t.alloc(FileType::File).unwrap().0;
            assert!(
                !live[ino as usize].swap(true, Ordering::Relaxed),
                "inode {ino} handed out twice"
            );
            ino
        };
        let handles: Vec<_> = (0..8usize)
            .map(|k| {
                let (t, live) = (Arc::clone(&t), Arc::clone(&live));
                std::thread::spawn(move || {
                    let kept: Vec<Inum> = (0..500).map(|_| take(&t, &live)).collect();
                    for round in 0..200usize {
                        let n = (k * 7 + round * 13) % 100 + 1;
                        let mine: Vec<Inum> = (0..n).map(|_| take(&t, &live)).collect();
                        for ino in mine {
                            assert!(live[ino as usize].swap(false, Ordering::Relaxed));
                            t.free(ino);
                        }
                    }
                    kept
                })
            })
            .collect();
        let mut all: Vec<Inum> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "inums must be unique");
        assert_eq!(t.live(), 4001);
        for ino in all {
            t.free(ino);
        }
        assert_eq!(t.live(), 1);
    }

    /// Run `f` on a new thread and return its result.
    fn on_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        std::thread::spawn(f).join().unwrap()
    }

    /// One thread takes every number and frees them all, leaving them in
    /// its magazine and the depot; another thread then reaches the whole
    /// capacity through depot batches and stealing.
    #[test]
    fn capacity_is_reachable_from_any_thread() {
        let t = Arc::new(InodeTable::new(1000));
        let t2 = Arc::clone(&t);
        on_thread(move || {
            let all: Vec<Inum> = (0..999)
                .map(|_| t2.alloc(FileType::File).unwrap().0)
                .collect();
            assert_eq!(t2.alloc(FileType::File).unwrap_err(), FsError::NoSpace);
            all.into_iter().for_each(|ino| t2.free(ino));
        });
        let t2 = Arc::clone(&t);
        let mut got = on_thread(move || {
            let got: Vec<Inum> = (0..999)
                .map(|_| t2.alloc(FileType::File).unwrap().0)
                .collect();
            assert_eq!(t2.alloc(FileType::File).unwrap_err(), FsError::NoSpace);
            got
        });
        got.sort_unstable();
        assert_eq!(got, (2..=1000).collect::<Vec<_>>());
        assert_eq!(t.live(), 1000);
    }

    /// Frees on one thread strand at most one magazine's worth of
    /// numbers from another thread that allocates.
    #[test]
    fn stranding_is_bounded_by_one_magazine() {
        let t = Arc::new(InodeTable::new(4096));
        let t2 = Arc::clone(&t);
        let high = on_thread(move || {
            let all: Vec<Inum> = (0..1000)
                .map(|_| t2.alloc(FileType::File).unwrap().0)
                .collect();
            let high = *all.iter().max().unwrap();
            all.into_iter().for_each(|ino| t2.free(ino));
            high
        });
        let t2 = Arc::clone(&t);
        let fresh = on_thread(move || {
            (0..1000)
                .filter(|_| t2.alloc(FileType::File).unwrap().0 > high)
                .count()
        });
        assert!(fresh <= crate::magazine::MAG_CAP, "{fresh} fresh numbers");
    }

    #[test]
    fn meta_word_roundtrips() {
        let s = InodeSlot::new(7, FileType::File);
        let m = InodeSlot::metadata_of(7, s.meta_read());
        assert_eq!(m.ino, 7);
        assert_eq!(m.size, 0);
        assert_eq!(m.ftype, FileType::File);

        let d = InodeSlot::new(9, FileType::Dir);
        {
            let g = d.lock();
            d.write_begin();
            let index = d.dir().unwrap();
            index.insert("sub", &Arc::new(InodeSlot::new(2, FileType::Dir)));
            index.insert("f", &Arc::new(InodeSlot::new(3, FileType::File)));
            d.write_end(&g);
        }
        let m = InodeSlot::metadata_of(9, d.meta_read());
        assert_eq!(m.ftype, FileType::Dir);
        assert_eq!(m.size, 2);
        assert_eq!(m.nlink, 3, "2 + one subdirectory");
        assert_eq!(d.seq_read(), 2, "one write window = +2");
    }

    #[test]
    fn seq_is_odd_inside_write_window() {
        let s = InodeSlot::new(4, FileType::Dir);
        assert_eq!(s.seq_read() % 2, 0);
        s.write_begin();
        assert_eq!(s.seq_read() % 2, 1);
        s.write_end(&s.lock());
        assert_eq!(s.seq_read() % 2, 0);
    }
}
