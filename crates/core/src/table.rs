//! Inodes and the inode-number allocator.
//!
//! Each inode is an [`InodeSlot`]: the paper's per-inode lock
//! (`Arc<Mutex<InodeData>>`, whose `lock_arc` gives the owned guards the
//! lock-coupling walker needs) plus the optimistic-walk state — a
//! sequence counter (seqlock discipline: odd = write in progress), a
//! packed metadata word for lockless `stat`, and, for directories, the
//! [`FastDir`] that is the directory's only name→inode index.
//!
//! Slots are reached by walking from the root through directory indexes,
//! never by number: a parent's index owns its children's `Arc`s. The
//! [`InodeTable`] only hands out inode numbers — recycled through a free
//! list — and keeps a live bitmap that catches double frees.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use atomfs_trace::{Inum, ROOT_INUM};
use atomfs_vfs::{FileType, FsError, FsResult, Metadata};

use crate::fastdir::FastDir;
use crate::inode::InodeData;

/// A shared, lockable, seqlock-versioned inode.
pub type InodeRef = Arc<InodeSlot>;

/// Directory flag bit of the packed metadata word.
const META_DIR: u64 = 1 << 63;

/// One inode: contents behind the per-inode lock, plus the lockless
/// sidecar state read by the optimistic walk.
pub struct InodeSlot {
    ino: Inum,
    /// The lock-protected contents. `Arc`-wrapped separately so
    /// `Mutex::lock_arc` can produce owned guards.
    pub(crate) data: Arc<Mutex<InodeData>>,
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
            data: Arc::new(Mutex::new(InodeData::new(ftype))),
            seq: AtomicU64::new(0),
            meta: AtomicU64::new(if is_dir { META_DIR } else { 0 }),
            dir: is_dir.then(FastDir::new),
        }
    }

    /// This inode's number.
    pub fn ino(&self) -> Inum {
        self.ino
    }

    /// Lock the contents (convenience for non-coupled single-inode
    /// access; the walker uses `lock_arc` on `InodeSlot::data`).
    pub fn lock(&self) -> MutexGuard<'_, InodeData> {
        self.data.lock()
    }

    /// Lock the contents with an owned (Arc-backed) guard, for walkers
    /// that need to store the guard past the borrow of the slot.
    pub fn lock_owned(&self) -> parking_lot::ArcMutexGuard<parking_lot::RawMutex, InodeData> {
        parking_lot::Mutex::lock_arc(&self.data)
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
    /// A directory's `FastDir` holds `Arc`s to its children (including
    /// tombstoned and retired-table entries), so a deep chain whose links
    /// are each kept alive only by the parent's index — the whole tree at
    /// FS teardown, or a historically rmdir'd chain pinned by tombstones
    /// at runtime — would otherwise free itself by nested drops, one
    /// stack frame per level, and overflow on deep trees. The worklist
    /// below transfers ownership of every such descendant up front: each
    /// popped slot's own index is emptied *before* the slot drops, so the
    /// nested `Drop` recursion bottoms out immediately.
    fn drop(&mut self) {
        let Some(dir) = self.dir.as_ref() else {
            return;
        };
        let mut pending = dir.drain_for_teardown();
        while let Some(child) = pending.pop() {
            if let Some(slot) = Arc::into_inner(child) {
                if let Some(f) = slot.dir.as_ref() {
                    pending.extend(f.drain_for_teardown());
                }
                // `slot` drops here: re-enters this impl with an already
                // emptied index — constant depth.
            }
        }
    }
}

impl std::fmt::Debug for InodeSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "InodeSlot(ino={})", self.ino)
    }
}

/// The root inode plus the inode-number allocator.
pub struct InodeTable {
    alloc: Mutex<AllocState>,
    capacity: usize,
    /// The root directory; every other inode hangs off its index.
    root: InodeRef,
}

struct AllocState {
    free: Vec<Inum>,
    next: Inum,
    live: usize,
    /// One bit per inode number, set while the number is allocated.
    bits: Vec<u64>,
}

impl AllocState {
    /// Set `ino`'s live bit to `live`, returning its previous value.
    fn set_live(&mut self, ino: Inum, live: bool) -> bool {
        let (word, bit) = (ino as usize / 64, 1u64 << (ino % 64));
        if self.bits.len() <= word {
            self.bits.resize(word + 1, 0);
        }
        let was = self.bits[word] & bit != 0;
        if live {
            self.bits[word] |= bit;
        } else {
            self.bits[word] &= !bit;
        }
        was
    }
}

impl InodeTable {
    /// Create a table with the root directory pre-allocated at
    /// [`ROOT_INUM`], able to hold up to `capacity` live inodes.
    pub fn new(capacity: usize) -> Self {
        let mut alloc = AllocState {
            free: Vec::new(),
            next: ROOT_INUM + 1,
            live: 1,
            bits: Vec::new(),
        };
        alloc.set_live(ROOT_INUM, true);
        InodeTable {
            alloc: Mutex::new(alloc),
            capacity,
            root: Arc::new(InodeSlot::new(ROOT_INUM, FileType::Dir)),
        }
    }

    /// Number of live inodes (including the root).
    pub fn live(&self) -> usize {
        self.alloc.lock().live
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
        let ino = {
            let mut a = self.alloc.lock();
            if a.live >= self.capacity {
                return Err(FsError::NoSpace);
            }
            a.live += 1;
            let ino = match a.free.pop() {
                Some(ino) => ino,
                None => {
                    let ino = a.next;
                    a.next += 1;
                    ino
                }
            };
            let was_live = a.set_live(ino, true);
            debug_assert!(!was_live, "inode {ino} double-allocated");
            ino
        };
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
        let mut a = self.alloc.lock();
        assert!(a.set_live(ino, false), "double free of inode {ino}");
        a.live -= 1;
        a.free.push(ino);
    }

    /// Snapshot the numbers of all live inodes (diagnostics/tests only).
    pub fn live_inums(&self) -> Vec<Inum> {
        let a = self.alloc.lock();
        (0..a.bits.len() as Inum * 64)
            .filter(|&ino| a.bits[ino as usize / 64] & (1 << (ino % 64)) != 0)
            .collect()
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
    /// link alive, each held by its parent's index) and a tombstone chain
    /// (runtime history — every link rmdir'd deepest-first, pinned only
    /// by the parent's tombstoned `FastDir` entry).
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

    #[test]
    fn concurrent_alloc() {
        let t = Arc::new(InodeTable::new(10_000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut inos = Vec::new();
                for _ in 0..500 {
                    inos.push(t.alloc(FileType::File).unwrap().0);
                }
                inos
            }));
        }
        let mut all: Vec<Inum> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "inums must be unique");
        assert_eq!(t.live(), 4001);
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
