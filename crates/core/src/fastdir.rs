//! A directory's name→inode index.
//!
//! Each directory inode carries one `FastDir`: an open-addressed,
//! linear-probed table from name hashes to child [`InodeRef`]s. It is the
//! directory's only entry store. Lock-coupled walks read it under the
//! inode's lock; optimistic readers probe it *without holding the lock*.
//! Writers always mutate it while holding the inode's mutex (inside the
//! inode's seqlock write window, in AtomFS), so writer/writer races do not
//! exist; reader/writer races are benign by construction and any torn
//! view is discarded by the caller's seqlock validation.
//!
//! The paper's prototype chains entries off a hash array (§6). The map
//! semantics are the same — one child per name, `readdir` order
//! unspecified — so the layout stays below the abstraction relation.
//!
//! # Publication protocol
//!
//! * A slot's `entry` (`OnceLock`) is written first; its `meta` word is
//!   then `Release`-stored with the child's inode number. Readers load
//!   `meta` with `Acquire`, so a non-empty `meta` guarantees the entry is
//!   fully visible.
//! * `meta == EMPTY` terminates a probe; `meta == TOMB` (deleted) is
//!   skipped and the probe continues. Tombstoned slots are **never
//!   reused** — reviving one would let a reader pair a stale `entry`
//!   (holding the *old* child's `InodeRef`) with a new inode number.
//!   Growth compacts tombstones away instead.
//! * `grow` builds a fresh table, copies live entries, and publishes it
//!   with a `Release` pointer swap. The old table is *retired*, not
//!   freed: a concurrent reader may still hold a reference into it.
//!   Retired tables are freed when the `FastDir` is dropped.
//!
//! # Memory compromise
//!
//! Tombstones and retired tables keep their child `Arc`s alive until the
//! directory itself grows (compaction) or is dropped. This is the price
//! of letting readers borrow `&InodeRef` straight out of the table with
//! no per-step reference-count traffic; the walk fast path stays free of
//! shared-cacheline RMWs. The borrow is sound because every table ever
//! published stays allocated for the life of the `FastDir`.

use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use atomfs_trace::Inum;

use crate::table::InodeRef;

/// A cheap deterministic string hash (fx-style multiply-rotate).
///
/// One rotate + xor + multiply per byte, fully deterministic across runs
/// (a directory's layout is reproducible for the differential tests and
/// the structure ablation benchmark).
#[inline]
fn hash_name(name: &str) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h: u64 = 0;
    for b in name.as_bytes() {
        h = (h.rotate_left(5) ^ u64::from(*b)).wrapping_mul(K);
    }
    // Finalize so single-byte names don't map tiny inputs to tiny outputs.
    h ^ (h >> 32)
}

/// `meta` value of a never-used slot (terminates probes). Inode 0 is
/// reserved (the table starts numbering at `ROOT_INUM == 1`), so 0 is
/// free to act as the sentinel.
const EMPTY: u64 = 0;

/// `meta` value of a deleted slot (skipped by probes, never reused).
const TOMB: u64 = u64::MAX;

/// Initial slot count (power of two).
const INITIAL_SLOTS: usize = 8;

struct Slot {
    /// `EMPTY`, `TOMB`, or the child's inode number.
    meta: AtomicU64,
    /// `(name hash, name, child ref)` — written once, before `meta`.
    entry: OnceLock<(u64, Box<str>, InodeRef)>,
}

impl Slot {
    fn new() -> Self {
        Slot {
            meta: AtomicU64::new(EMPTY),
            entry: OnceLock::new(),
        }
    }
}

struct Table {
    mask: usize,
    slots: Box<[Slot]>,
}

impl Table {
    fn with_capacity(cap: usize) -> Box<Table> {
        debug_assert!(cap.is_power_of_two());
        Box::new(Table {
            mask: cap - 1,
            slots: (0..cap).map(|_| Slot::new()).collect(),
        })
    }
}

/// The index of one directory. See the module docs for the reader/writer
/// protocol.
pub struct FastDir {
    /// Current table; readers `Acquire`-load and never write.
    cur: AtomicPtr<Table>,
    /// Live entries (writer-maintained, under the inode lock).
    live: AtomicUsize,
    /// Live entries whose child is a directory (for `nlink`).
    subdirs: AtomicU32,
    /// Tombstoned slots in the current table (writer-maintained).
    tombs: AtomicUsize,
    /// Superseded tables, kept allocated for still-running readers.
    /// Only touched by writers (under the inode lock) and `drop`.
    retired: parking_lot::Mutex<Vec<*mut Table>>,
}

// SAFETY: the raw pointers are owned by this struct (created from
// `Box::into_raw`, freed exactly once in `drop`); all mutation of the
// pointed-to tables happens through atomics or before publication.
unsafe impl Send for FastDir {}
unsafe impl Sync for FastDir {}

impl Default for FastDir {
    fn default() -> Self {
        Self::new()
    }
}

impl FastDir {
    /// An empty directory index.
    pub fn new() -> Self {
        FastDir {
            cur: AtomicPtr::new(Box::into_raw(Table::with_capacity(INITIAL_SLOTS))),
            live: AtomicUsize::new(0),
            subdirs: AtomicU32::new(0),
            tombs: AtomicUsize::new(0),
            retired: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// Current table for reading.
    ///
    /// SAFETY of the deref: tables are retired on replacement, never
    /// freed before the `FastDir` itself drops, so the pointer stays
    /// valid for `'_` (the borrow of `self`).
    fn table(&self) -> &Table {
        unsafe { &*self.cur.load(Ordering::Acquire) }
    }

    /// Number of entries. Exact under the inode lock.
    pub fn len(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Whether the directory has no entries. Exact under the inode lock.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries that are directories. Exact under the inode lock.
    pub fn subdirs(&self) -> u32 {
        self.subdirs.load(Ordering::Relaxed)
    }

    /// Look up `name`, returning the child's inode number and a borrow of
    /// its `InodeRef` (no refcount traffic).
    ///
    /// Under the inode lock the result is exact. Without it the result —
    /// including a `None` miss — is only meaningful if the caller's
    /// subsequent seqlock validation of the owning inode passes.
    pub fn lookup<'a>(&'a self, name: &str) -> Option<(Inum, &'a InodeRef)> {
        let hash = hash_name(name);
        let t = self.table();
        let mut idx = (hash as usize) & t.mask;
        loop {
            let slot = &t.slots[idx];
            match slot.meta.load(Ordering::Acquire) {
                EMPTY => return None,
                TOMB => {}
                ino => {
                    // A non-EMPTY/TOMB meta was Release-stored after the
                    // entry was set, so the entry is visible.
                    let (h, n, child) = slot.entry.get().expect("meta published before entry");
                    if *h == hash && n.as_ref() == name {
                        return Some((ino, child));
                    }
                }
            }
            idx = (idx + 1) & t.mask;
        }
    }

    /// Insert `name -> child`. Returns `false` (without modifying
    /// anything) if the name already exists. Writer-only (inode lock
    /// held).
    pub fn insert(&self, name: &str, child: &InodeRef) -> bool {
        if self.lookup(name).is_some() {
            return false;
        }
        let ino = child.ino();
        debug_assert!(
            ino != EMPTY && ino != TOMB,
            "inode number collides with sentinel"
        );
        let live = self.live.load(Ordering::Relaxed);
        let tombs = self.tombs.load(Ordering::Relaxed);
        let t = self.table();
        // Keep occupancy (live + tombstones) under half the table so
        // probes stay short and EMPTY terminators always exist.
        if (live + tombs + 1) * 2 > t.mask + 1 {
            self.grow(live);
        }
        let hash = hash_name(name);
        let t = self.table();
        let mut idx = (hash as usize) & t.mask;
        loop {
            let slot = &t.slots[idx];
            if slot.meta.load(Ordering::Relaxed) == EMPTY && slot.entry.get().is_none() {
                let claimed = slot.entry.set((hash, name.into(), InodeRef::clone(child)));
                assert!(claimed.is_ok(), "empty slot claimed once");
                slot.meta.store(ino, Ordering::Release);
                self.live.store(live + 1, Ordering::Relaxed);
                if child.dir().is_some() {
                    self.subdirs.fetch_add(1, Ordering::Relaxed);
                }
                return true;
            }
            idx = (idx + 1) & t.mask;
        }
    }

    /// Remove `name`, returning the inode number it mapped to. Writer-only
    /// (inode lock held). The slot is tombstoned, never reused; its child
    /// `Arc` stays pinned until the next growth compaction (see module
    /// docs).
    pub fn remove(&self, name: &str) -> Option<Inum> {
        let hash = hash_name(name);
        let t = self.table();
        let mut idx = (hash as usize) & t.mask;
        loop {
            let slot = &t.slots[idx];
            match slot.meta.load(Ordering::Relaxed) {
                EMPTY => return None,
                TOMB => {}
                ino => {
                    let (h, n, child) = slot.entry.get().expect("meta published before entry");
                    if *h == hash && n.as_ref() == name {
                        slot.meta.store(TOMB, Ordering::Release);
                        self.live.fetch_sub(1, Ordering::Relaxed);
                        self.tombs.fetch_add(1, Ordering::Relaxed);
                        if child.dir().is_some() {
                            self.subdirs.fetch_sub(1, Ordering::Relaxed);
                        }
                        return Some(ino);
                    }
                }
            }
            idx = (idx + 1) & t.mask;
        }
    }

    /// Entry names in unspecified order. Exact under the inode lock;
    /// without it (the `readdir` fast path), validity is subject to the
    /// caller's seq validation.
    pub fn names(&self) -> Vec<String> {
        let t = self.table();
        let mut out = Vec::new();
        for slot in t.slots.iter() {
            let meta = slot.meta.load(Ordering::Acquire);
            if meta != EMPTY && meta != TOMB {
                if let Some((_, n, _)) = slot.entry.get() {
                    out.push(n.to_string());
                }
            }
        }
        out
    }

    /// Replace the table with a compacted, larger one. Writer-only.
    fn grow(&self, live: usize) {
        let cap = ((live + 1) * 4).max(INITIAL_SLOTS).next_power_of_two();
        let new = Table::with_capacity(cap);
        let old = self.table();
        for slot in old.slots.iter() {
            let meta = slot.meta.load(Ordering::Relaxed);
            if meta == EMPTY || meta == TOMB {
                continue;
            }
            let (hash, name, child) = slot.entry.get().expect("meta published before entry");
            let mut idx = (*hash as usize) & (cap - 1);
            loop {
                let s = &new.slots[idx];
                if s.meta.load(Ordering::Relaxed) == EMPTY && s.entry.get().is_none() {
                    let claimed = s.entry.set((*hash, name.clone(), InodeRef::clone(child)));
                    assert!(claimed.is_ok(), "fresh table slot claimed once");
                    s.meta.store(meta, Ordering::Relaxed);
                    break;
                }
                idx = (idx + 1) & (cap - 1);
            }
        }
        let old_ptr = self.cur.swap(Box::into_raw(new), Ordering::AcqRel);
        self.retired.lock().push(old_ptr);
        self.tombs.store(0, Ordering::Relaxed);
    }

    /// Empty this index, returning every child `Arc` it held (live,
    /// tombstoned, and retired-table entries alike).
    ///
    /// Used by [`InodeSlot`](crate::table::InodeSlot)'s `Drop` to
    /// dismantle parent→child `Arc` chains iteratively: a deep directory
    /// chain whose links are kept alive only by their parents' indexes
    /// would otherwise be freed by nested `FastDir` drops, one stack
    /// frame per level.
    ///
    /// Caller contract: no concurrent readers. The owning inode is being
    /// dropped, so no live `InodeRef` to it remains — and lookup borrows
    /// (`&InodeRef`) are tied to the borrow of an `InodeRef` the reader
    /// still owns.
    pub(crate) fn drain_for_teardown(&self) -> Vec<InodeRef> {
        let mut tables: Vec<*mut Table> = self.retired.lock().drain(..).collect();
        tables.push(self.cur.swap(
            Box::into_raw(Table::with_capacity(INITIAL_SLOTS)),
            Ordering::AcqRel,
        ));
        self.live.store(0, Ordering::Relaxed);
        self.subdirs.store(0, Ordering::Relaxed);
        self.tombs.store(0, Ordering::Relaxed);
        let mut out = Vec::new();
        // SAFETY: each pointer came from `Box::into_raw` and was removed
        // from the struct above, so it is freed exactly once; the caller
        // guarantees no reader still borrows into these tables.
        unsafe {
            for p in tables {
                let mut t = Box::from_raw(p);
                for slot in t.slots.iter_mut() {
                    if let Some((_, _, child)) = slot.entry.take() {
                        out.push(child);
                    }
                }
            }
        }
        out
    }
}

impl Drop for FastDir {
    fn drop(&mut self) {
        // SAFETY: exclusive access (`&mut self`); every pointer here came
        // from `Box::into_raw` and is freed exactly once.
        unsafe {
            drop(Box::from_raw(self.cur.load(Ordering::Relaxed)));
            for p in self.retired.get_mut().drain(..) {
                drop(Box::from_raw(p));
            }
        }
    }
}

impl std::fmt::Debug for FastDir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FastDir(live={}, subdirs={}, tombs={})",
            self.len(),
            self.subdirs(),
            self.tombs.load(Ordering::Relaxed)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::InodeSlot;
    use atomfs_vfs::FileType;
    use std::sync::Arc;

    fn child(ino: Inum) -> InodeRef {
        Arc::new(InodeSlot::new(ino, FileType::File))
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let f = FastDir::new();
        let c1 = child(10);
        let c2 = Arc::new(InodeSlot::new(11, FileType::Dir));
        assert!(f.insert("a", &c1));
        assert!(f.insert("b", &c2));
        assert!(!f.insert("a", &child(12)), "duplicate insert must fail");
        assert_eq!(f.lookup("a").map(|(i, _)| i), Some(10));
        assert_eq!(f.lookup("b").map(|(i, _)| i), Some(11));
        assert_eq!(f.lookup("c").map(|(i, _)| i), None);
        assert_eq!((f.len(), f.subdirs()), (2, 1));
        assert_eq!(f.remove("a"), Some(10));
        assert_eq!(f.remove("a"), None);
        assert_eq!(f.lookup("a").map(|(i, _)| i), None);
        assert_eq!(f.lookup("b").map(|(i, _)| i), Some(11));
        assert_eq!(f.remove("b"), Some(11));
        assert!(f.is_empty());
        assert_eq!(f.subdirs(), 0, "removing a directory entry drops the count");
    }

    #[test]
    fn tombstones_are_not_revived() {
        let f = FastDir::new();
        let c1 = child(5);
        f.insert("x", &c1);
        f.remove("x");
        let c2 = child(7);
        f.insert("x", &c2);
        let (ino, r) = f.lookup("x").expect("reinserted name resolves");
        assert_eq!(ino, 7);
        assert_eq!(r.ino(), 7, "must see the new child, not the tombstoned one");
    }

    #[test]
    fn growth_compacts_and_preserves() {
        let f = FastDir::new();
        let kids: Vec<InodeRef> = (0..200).map(|i| child(100 + i)).collect();
        for (i, k) in kids.iter().enumerate() {
            f.insert(&format!("n{i}"), k);
        }
        // Delete half, then insert more to force growth past tombstones.
        for i in (0..200).step_by(2) {
            f.remove(&format!("n{i}"));
        }
        let more: Vec<InodeRef> = (0..100).map(|i| child(500 + i)).collect();
        for (i, k) in more.iter().enumerate() {
            f.insert(&format!("m{i}"), k);
        }
        for i in 0..200 {
            let want = (i % 2 == 1).then_some(100 + i as Inum);
            assert_eq!(f.lookup(&format!("n{i}")).map(|(x, _)| x), want);
        }
        for i in 0..100 {
            assert_eq!(
                f.lookup(&format!("m{i}")).map(|(x, _)| x),
                Some(500 + i as Inum)
            );
        }
        assert_eq!(f.names().len(), 200);
    }

    #[test]
    fn concurrent_readers_never_see_torn_entries() {
        let f = Arc::new(FastDir::new());
        let stop = Arc::new(AtomicUsize::new(0));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let f = Arc::clone(&f);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                while stop.load(Ordering::Relaxed) == 0 {
                    for i in 0..64u64 {
                        let name = format!("k{i}");
                        if let Some((ino, r)) = f.lookup(&name) {
                            // The pair must be internally consistent: the
                            // meta inum matches the entry's slot inum.
                            assert_eq!(r.ino(), ino, "torn meta/entry pair for {name}");
                        }
                    }
                }
            }));
        }
        // Writer: churn inserts/removes (distinct inums per generation).
        let mut gen: Inum = 1;
        for round in 0..300u64 {
            for i in 0..64u64 {
                let name = format!("k{i}");
                if round % 2 == 0 {
                    gen += 1;
                    f.insert(&name, &child(gen));
                } else {
                    f.remove(&name);
                }
            }
        }
        stop.store(1, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn hash_name_is_deterministic_and_spreads() {
        assert_eq!(hash_name("abc"), hash_name("abc"));
        assert_ne!(hash_name("abc"), hash_name("abd"));
        assert_ne!(hash_name("a"), hash_name("b"));
        // Single-byte inputs must not collapse into a tiny range.
        let hs: std::collections::HashSet<u64> = (b'a'..=b'z')
            .map(|c| hash_name(&(c as char).to_string()))
            .collect();
        assert_eq!(hs.len(), 26);
    }
}
