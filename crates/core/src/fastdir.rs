//! A directory's name→inode index.
//!
//! Each directory inode carries one `FastDir`: an open-addressed,
//! linear-probed table from name hashes to child [`InodeRef`]s. It is the
//! directory's only entry store. Lock-coupled walks read it under the
//! inode's lock; optimistic readers probe it *without holding the lock*.
//! Writers always mutate it while holding the inode's mutex (inside the
//! inode's seqlock write window, in AtomFS), so writer/writer races do not
//! exist; reader/writer races are benign by construction and any torn
//! view is discarded by the caller's seqlock validation. Memory safety
//! does not rest on the lock: every access to a table is pinned (see
//! below), so a caller that breaks the one-writer rule gets wrong
//! answers or a panic, never a dangling pointer.
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
//!   with a `Release` pointer swap.
//!
//! # Reclamation protocol
//!
//! Readers borrow `&InodeRef` straight out of a table, with no per-step
//! reference-count traffic, so the walk fast path stays free of
//! shared-cacheline RMWs. What keeps such a borrow valid:
//!
//! * **A guard covers every read.** [`FastDir::lookup`] takes an
//!   [`epoch::Guard`] and returns a borrow that lives as long as it,
//!   whether or not the caller holds the inode lock. Nothing a pinned
//!   reader can reach through a table is freed before it unpins: the
//!   table itself, and the child whose `Arc` the borrowed slot holds.
//!   The writer methods and [`FastDir::names`] pin for themselves; a pin
//!   inside an operation's pin only counts, so the lock holder pays next
//!   to nothing for it.
//! * **When a child is freed.** `remove` tombstones the slot and retires
//!   the index's `Arc` of the child through [`epoch::retire`]: the
//!   paper's `free(node)`, deferred until the readers pinned at the
//!   removal have left. The tombstone keeps the pointer for those
//!   readers but no longer owns it. Something else may still own the child — an open walk's
//!   `Locked`, or, after a rename, the destination's entry — and then
//!   only the count drops.
//! * **When a table is freed.** `grow` swaps in a compacted table and
//!   retires the old one, which is freed the same way. A live entry's
//!   child survives the old table: the new table holds its own `Arc`.
//! * **The bound.** A directory retains its current table, in which
//!   tombstones are at most half the slots (`grow` keeps live entries and
//!   tombstones under half the capacity) and own nothing but their names.
//!   What waits in the epoch's bags is bounded per thread (see
//!   [`crate::epoch`]), not by the number of create/unlink cycles.

use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use atomfs_trace::Inum;

use crate::epoch::{self, Guard};
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
    /// `(name hash, name, child ref)` — written once, before `meta`. The
    /// slot owns the child's `Arc` until `remove` tombstones it and
    /// retires the `Arc`; the pointer stays for readers pinned before.
    /// The name is shared with the tables `grow` copies it into.
    entry: OnceLock<(u64, Arc<str>, ManuallyDrop<InodeRef>)>,
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

impl Drop for Table {
    fn drop(&mut self) {
        for slot in self.slots.iter_mut() {
            // A tombstone's child was retired by `remove`.
            if *slot.meta.get_mut() != TOMB {
                if let Some((_, _, child)) = slot.entry.get_mut() {
                    // SAFETY: a live slot owns its `Arc`, dropped once here.
                    unsafe { ManuallyDrop::drop(child) }
                }
            }
        }
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
}

// SAFETY: the current table is owned by this struct (created from
// `Box::into_raw`, freed exactly once: retired by `grow`, or dropped in
// `drain_for_teardown` or `drop`); all mutation of the pointed-to tables
// happens through atomics or before publication.
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
        }
    }

    /// Current table, for a thread pinned by `_guard`.
    fn table<'g>(&'g self, _guard: &'g Guard) -> &'g Table {
        // SAFETY: a replaced table is retired, and retired tables outlive
        // every guard that was alive at the swap; the current table lives
        // as long as `self`.
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
    /// its `InodeRef` (no refcount traffic) that `guard` keeps valid.
    ///
    /// Under the inode lock the result is exact. Without it the result —
    /// including a `None` miss — is only meaningful if the caller's
    /// subsequent seqlock validation of the owning inode passes.
    pub fn lookup<'g>(&'g self, guard: &'g Guard, name: &str) -> Option<(Inum, &'g InodeRef)> {
        let t = self.table(guard);
        let hash = hash_name(name);
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
                        return Some((ino, &**child));
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
        let guard = epoch::pin();
        if self.lookup(&guard, name).is_some() {
            return false;
        }
        let ino = child.ino();
        debug_assert!(
            ino != EMPTY && ino != TOMB,
            "inode number collides with sentinel"
        );
        let live = self.live.load(Ordering::Relaxed);
        let tombs = self.tombs.load(Ordering::Relaxed);
        let t = self.table(&guard);
        // Keep occupancy (live + tombstones) under half the table so
        // probes stay short and EMPTY terminators always exist.
        if (live + tombs + 1) * 2 > t.mask + 1 {
            self.grow(&guard, live);
        }
        let hash = hash_name(name);
        let t = self.table(&guard);
        let mut idx = (hash as usize) & t.mask;
        loop {
            let slot = &t.slots[idx];
            if slot.meta.load(Ordering::Relaxed) == EMPTY && slot.entry.get().is_none() {
                let claimed =
                    slot.entry
                        .set((hash, name.into(), ManuallyDrop::new(InodeRef::clone(child))));
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
    /// (inode lock held). The slot is tombstoned, never reused, and the
    /// index's `Arc` of the child is retired: the child is freed once the
    /// readers pinned now have left, unless something else still owns it
    /// (see module docs).
    pub fn remove(&self, name: &str) -> Option<Inum> {
        let guard = epoch::pin();
        let hash = hash_name(name);
        let t = self.table(&guard);
        let mut idx = (hash as usize) & t.mask;
        loop {
            let slot = &t.slots[idx];
            match slot.meta.load(Ordering::Relaxed) {
                EMPTY => return None,
                TOMB => {}
                ino => {
                    let (h, n, child) = slot.entry.get().expect("meta published before entry");
                    if *h == hash && n.as_ref() == name {
                        // One remover wins the slot, and only it retires
                        // the child, even if callers break the one-writer
                        // rule.
                        if slot
                            .meta
                            .compare_exchange(ino, TOMB, Ordering::Release, Ordering::Relaxed)
                            .is_err()
                        {
                            return None;
                        }
                        self.live.fetch_sub(1, Ordering::Relaxed);
                        self.tombs.fetch_add(1, Ordering::Relaxed);
                        if child.dir().is_some() {
                            self.subdirs.fetch_sub(1, Ordering::Relaxed);
                        }
                        // SAFETY: the slot owned this `Arc` and, now a
                        // tombstone, never drops it (`Table::drop`), so
                        // ownership moves to the retired copy; the bits
                        // stay for readers pinned before the `TOMB` CAS.
                        epoch::retire(unsafe { std::ptr::read(&**child) });
                        return Some(ino);
                    }
                }
            }
            idx = (idx + 1) & t.mask;
        }
    }

    /// Entry names in unspecified order. Exact under the inode lock;
    /// without it (the `readdir` fast path), validity is subject to the
    /// caller's seq validation. Pins for the scan, so it is safe either
    /// way.
    pub fn names(&self) -> Vec<String> {
        let guard = epoch::pin();
        let t = self.table(&guard);
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

    /// Replace the table with a compacted one and retire the old one.
    /// Writer-only.
    fn grow(&self, guard: &Guard, live: usize) {
        let cap = ((live + 1) * 4).max(INITIAL_SLOTS).next_power_of_two();
        let new = Table::with_capacity(cap);
        let old = self.table(guard);
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
                    let claimed = s.entry.set((
                        *hash,
                        name.clone(),
                        ManuallyDrop::new(InodeRef::clone(child)),
                    ));
                    assert!(claimed.is_ok(), "fresh table slot claimed once");
                    s.meta.store(meta, Ordering::Relaxed);
                    break;
                }
                idx = (idx + 1) & (cap - 1);
            }
        }
        let old_ptr = self.cur.swap(Box::into_raw(new), Ordering::AcqRel);
        self.tombs.store(0, Ordering::Relaxed);
        // SAFETY: `old_ptr` came from `Box::into_raw` and the swap above
        // unlinked it, so this is its one owner; readers still probing it
        // are pinned, and `retire` frees it only after they unpin.
        epoch::retire(unsafe { Box::from_raw(old_ptr) });
    }

    /// Empty this index, returning every child `Arc` it owns (its live
    /// entries; a tombstone's child was retired by `remove`).
    ///
    /// Used by [`InodeSlot`](crate::table::InodeSlot)'s `Drop` to
    /// dismantle parent→child `Arc` chains iteratively: a deep directory
    /// chain whose links are kept alive only by their parents' indexes
    /// would otherwise be freed by nested `FastDir` drops, one stack
    /// frame per level.
    ///
    /// # Safety
    /// No thread may still read this index. That holds when its inode is
    /// being dropped: no `Arc` to the inode remains, the index entry that
    /// linked it was retired, and a retired `Arc` or table is dropped only
    /// after every reader pinned while it was reachable has unpinned.
    pub(crate) unsafe fn drain_for_teardown(&self) -> Vec<InodeRef> {
        let cur = self.cur.swap(
            Box::into_raw(Table::with_capacity(INITIAL_SLOTS)),
            Ordering::AcqRel,
        );
        self.live.store(0, Ordering::Relaxed);
        self.subdirs.store(0, Ordering::Relaxed);
        self.tombs.store(0, Ordering::Relaxed);
        let mut out = Vec::new();
        // SAFETY: the pointer came from `Box::into_raw` and was removed
        // from the struct above, so it is freed exactly once; the caller
        // guarantees no reader still borrows into the table.
        let mut t = unsafe { Box::from_raw(cur) };
        for slot in t.slots.iter_mut() {
            if *slot.meta.get_mut() != TOMB {
                if let Some((_, _, child)) = slot.entry.take() {
                    out.push(ManuallyDrop::into_inner(child));
                }
            }
        }
        out
    }
}

impl Drop for FastDir {
    fn drop(&mut self) {
        // SAFETY: exclusive access (`&mut self`); the pointer came from
        // `Box::into_raw` and is freed exactly once. No reader borrows
        // into it (see `drain_for_teardown`).
        unsafe { drop(Box::from_raw(*self.cur.get_mut())) }
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
    use std::sync::{Arc, Weak};

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
        assert_eq!(f.lookup(&epoch::pin(), "a").map(|(i, _)| i), Some(10));
        assert_eq!(f.lookup(&epoch::pin(), "b").map(|(i, _)| i), Some(11));
        assert_eq!(f.lookup(&epoch::pin(), "c").map(|(i, _)| i), None);
        assert_eq!((f.len(), f.subdirs()), (2, 1));
        assert_eq!(f.remove("a"), Some(10));
        assert_eq!(f.remove("a"), None);
        assert_eq!(f.lookup(&epoch::pin(), "a").map(|(i, _)| i), None);
        assert_eq!(f.lookup(&epoch::pin(), "b").map(|(i, _)| i), Some(11));
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
        let guard = epoch::pin();
        let (ino, r) = f.lookup(&guard, "x").expect("reinserted name resolves");
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
            assert_eq!(
                f.lookup(&epoch::pin(), &format!("n{i}")).map(|(x, _)| x),
                want
            );
        }
        for i in 0..100 {
            assert_eq!(
                f.lookup(&epoch::pin(), &format!("m{i}")).map(|(x, _)| x),
                Some(500 + i as Inum)
            );
        }
        assert_eq!(f.names().len(), 200);
    }

    /// Readers pin, borrow every child they find, and keep dereferencing
    /// those borrows (the child's number, its sequence counter and, for a
    /// directory, its own index) while the writer churns the table
    /// through many grows. A table freed before its readers unpin turns
    /// into a use-after-free here, which the sanitizer build reports.
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
                    let guard = epoch::pin();
                    let mut held = Vec::new();
                    for i in 0..64u64 {
                        let name = format!("k{i}");
                        if let Some((ino, r)) = f.lookup(&guard, &name) {
                            // The pair must be internally consistent: the
                            // meta inum matches the entry's slot inum.
                            assert_eq!(r.ino(), ino, "torn meta/entry pair for {name}");
                            held.push((ino, r));
                        }
                    }
                    for _ in 0..50 {
                        for &(ino, r) in &held {
                            assert_eq!(r.ino(), ino, "borrow changed under the pin");
                            assert_eq!(r.seq_read(), 0, "children are never written");
                            if let Some(d) = r.dir() {
                                assert!(d.is_empty() && d.lookup(&guard, "x").is_none());
                            }
                        }
                    }
                }
            }));
        }
        // Writer: churn inserts/removes (distinct inums per generation,
        // every other one a directory).
        let mut gen: Inum = 1;
        for round in 0..300u64 {
            for i in 0..64u64 {
                let name = format!("k{i}");
                if round % 2 == 0 {
                    gen += 1;
                    let ftype = if gen.is_multiple_of(2) {
                        FileType::Dir
                    } else {
                        FileType::File
                    };
                    f.insert(&name, &Arc::new(InodeSlot::new(gen, ftype)));
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

    /// Create/remove churn in one directory: `remove` retires each child,
    /// so once the epoch has moved past the removals none is left, however
    /// many cycles ran, while the tombstones in the current table keep
    /// only names.
    #[test]
    fn removed_children_are_freed() {
        let f = FastDir::new();
        let mut weak: Vec<Weak<InodeSlot>> = Vec::new();
        for i in 0..10_000u64 {
            let c = child(i + 2);
            weak.push(Arc::downgrade(&c));
            assert!(f.insert("f", &c));
            assert_eq!(f.remove("f"), Some(i + 2));
        }
        epoch::tests::flush();
        let retained = weak.iter().filter(|w| w.strong_count() > 0).count();
        assert_eq!(retained, 0, "removed children retained");
        assert!(f.tombs.load(Ordering::Relaxed) <= INITIAL_SLOTS / 2);
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
