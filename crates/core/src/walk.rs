//! Lock-coupling path traversal.
//!
//! AtomFS traverses paths hand-over-hand: it always acquires the next
//! inode's lock before releasing the current one (§5.1). This makes
//! operations *non-bypassable* — no operation can overtake another one on
//! the same path — which is the property the paper's helper proofs rely
//! on: once a rename logically linearizes (helps) an in-flight operation,
//! no other operation can slip underneath it and change the outcome it was
//! linearized with.
//!
//! Renames use a two-phase traversal (§5.2): couple down to the *last
//! common inode* of source and destination parent paths, then walk each
//! branch while keeping the common inode locked until both parent
//! directories are held. Holding the common inode pins the divergence
//! point, which is what makes concurrent renames deadlock-free: any wait
//! chain descends the tree.
//!
//! The optimistic fast path (see [`crate::optwalk`]) replaces the lock
//! handoffs with seqlock validation; this module remains the pessimistic
//! slow path every fast-path failure falls back to, and supplies the
//! [`Locked`] guard both paths mutate through. `Locked` maintains the
//! seqlock write window: the first mutable access flips the inode's seq
//! odd, and [`AtomFs::unlock`] republishes the packed metadata and flips
//! it even again *before* releasing the mutex — so lockless readers can
//! never validate across a half-finished critical section.
//!
//! Each step resolves the child in the locked directory's index
//! ([`FastDir`]), which hands back the child's `InodeRef` directly: the
//! walk never looks an inode up by number.

use parking_lot::{ArcMutexGuard, RawMutex};

use atomfs_obs::{Span, SpanKind};
use atomfs_trace::{Event, Inum, PathTag, Tid, ROOT_INUM};
use atomfs_vfs::{FsError, FsResult};

use crate::fastdir::FastDir;
use crate::fs::AtomFs;
use crate::inode::InodeData;
use crate::metrics::LockClass;
use crate::table::InodeRef;

/// An inode whose lock is held by the current thread.
///
/// Dropping a `Locked` without going through [`AtomFs::unlock`] would skip
/// the `Unlock` trace event and the seqlock republication, so operation
/// code always releases explicitly; under `debug_assertions` the embedded
/// [`LeakGuard`] turns a leaked guard into a panic.
pub(crate) struct Locked {
    /// The inode's number.
    pub ino: Inum,
    /// The slot, for seqlock/fast-index maintenance while mutating.
    pub slot: InodeRef,
    /// The owned guard over the inode's contents.
    pub guard: ArcMutexGuard<RawMutex, InodeData>,
    /// Clock reading at acquisition when this acquisition was sampled for
    /// hold-time measurement; 0 for the unsampled common case.
    hold_start: u64,
    /// Whether this critical section entered the seqlock write window
    /// (set on first mutable access; cleared by `unlock`).
    dirty: bool,
    /// Drop-flag that panics in debug builds when the guard is leaked.
    leak: LeakGuard,
}

/// Debug-build drop-flag: panics if a [`Locked`] is dropped without
/// [`AtomFs::unlock`] disarming it first. Compiles to a ZST in release.
struct LeakGuard {
    #[cfg(debug_assertions)]
    armed: bool,
}

impl LeakGuard {
    fn armed() -> Self {
        LeakGuard {
            #[cfg(debug_assertions)]
            armed: true,
        }
    }

    fn disarm(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.armed = false;
        }
    }
}

#[cfg(debug_assertions)]
impl Drop for LeakGuard {
    fn drop(&mut self) {
        if self.armed && !std::thread::panicking() {
            panic!("Locked dropped without AtomFs::unlock (Unlock event skipped)");
        }
    }
}

impl std::fmt::Debug for Locked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Locked(ino={})", self.ino)
    }
}

impl std::ops::Deref for Locked {
    type Target = InodeData;
    fn deref(&self) -> &InodeData {
        &self.guard
    }
}

impl std::ops::DerefMut for Locked {
    fn deref_mut(&mut self) -> &mut InodeData {
        self.touch();
        &mut self.guard
    }
}

impl Locked {
    /// Enter the seqlock write window if not already in it. Must be
    /// called before any mutation of the guarded data that bypasses
    /// `DerefMut` (e.g. direct `guard` access).
    pub(crate) fn touch(&mut self) {
        if !self.dirty {
            self.dirty = true;
            self.slot.write_begin();
        }
    }

    /// This locked directory's index, or `ENOTDIR`.
    pub(crate) fn dir(&self) -> FsResult<&FastDir> {
        self.slot.dir().ok_or(FsError::NotDir)
    }

    /// Insert `name -> child` into this locked directory's index inside
    /// the write window. Returns `false` (no change) if the name exists.
    pub(crate) fn dir_insert(&mut self, name: &str, child: &InodeRef) -> bool {
        self.touch();
        self.dir()
            .expect("dir_insert on a directory")
            .insert(name, child)
    }

    /// Remove `name` from this locked directory's index inside the write
    /// window, returning the inode number it mapped to.
    pub(crate) fn dir_remove(&mut self, name: &str) -> Option<Inum> {
        self.touch();
        self.dir().expect("dir_remove on a directory").remove(name)
    }
}

impl AtomFs {
    /// Acquire `ino`'s lock, emitting the `Lock` event while holding it.
    pub(crate) fn lock_inode(&self, tid: Tid, ino: Inum, iref: &InodeRef, tag: PathTag) -> Locked {
        let locked = self.lock_silent(ino, iref);
        self.emit(|| Event::Lock { tid, ino, tag });
        locked
    }

    /// Acquire `ino`'s lock without a trace event. The optimistic fast
    /// path announces its lock only once its chain validates: a walker on
    /// a retired directory index may hold a freed incarnation of a
    /// recycled inode number, whose lock must never reach the trace.
    ///
    /// Metrics discipline: `try_lock` first, so the uncontended fast path
    /// never reads the clock — wait time is only measured when the
    /// acquisition actually blocked. The lock class (root/dir/file) is
    /// attributed after acquisition, when the file type can be read under
    /// the lock.
    pub(crate) fn lock_silent(&self, ino: Inum, iref: &InodeRef) -> Locked {
        match self.m() {
            None => Locked {
                ino,
                slot: InodeRef::clone(iref),
                guard: parking_lot::Mutex::lock_arc(&iref.data),
                hold_start: 0,
                dirty: false,
                leak: LeakGuard::armed(),
            },
            Some(m) => {
                let (guard, waited) = match parking_lot::Mutex::try_lock_arc(&iref.data) {
                    Some(g) => (g, None),
                    None => {
                        // Blocked acquisition: spanned (uncontended takes
                        // are not), so a sampled op's trace shows exactly
                        // where it waited and for how long.
                        let _sp = Span::child(SpanKind::Lock, "lock_wait");
                        let t0 = m.now();
                        let g = parking_lot::Mutex::lock_arc(&iref.data);
                        (g, Some(m.now().saturating_sub(t0)))
                    }
                };
                let class = LockClass::of(ino, guard.ftype());
                match waited {
                    None => m.lock_fast(class),
                    Some(w) => m.lock_slow(class, w),
                }
                // `.max(1)` keeps a sampled acquisition at virtual time 0
                // distinguishable from the unsampled sentinel.
                let hold_start = if m.sample_hold() { m.now().max(1) } else { 0 };
                Locked {
                    ino,
                    slot: InodeRef::clone(iref),
                    guard,
                    hold_start,
                    dirty: false,
                    leak: LeakGuard::armed(),
                }
            }
        }
    }

    /// Release a held inode lock, emitting `Unlock` while still holding it.
    pub(crate) fn unlock(&self, tid: Tid, locked: Locked) {
        self.emit(|| Event::Unlock {
            tid,
            ino: locked.ino,
        });
        self.release(locked);
    }

    /// Release a lock without a trace event (the counterpart of
    /// [`AtomFs::lock_silent`] for a lock never announced). If the
    /// critical section mutated the inode, the seqlock write window is
    /// closed here — packed metadata republished, seq flipped even —
    /// strictly before the mutex is released.
    pub(crate) fn release(&self, mut locked: Locked) {
        if locked.dirty {
            locked.slot.write_end(&locked.guard);
            locked.dirty = false;
        }
        if locked.hold_start != 0 {
            if let Some(m) = self.m() {
                let class = LockClass::of(locked.ino, locked.guard.ftype());
                m.lock_held(class, m.now().saturating_sub(locked.hold_start));
            }
        }
        locked.leak.disarm();
        drop(locked);
    }

    /// Walk from the root through `comps` with lock coupling, returning the
    /// final inode locked.
    ///
    /// On failure the deepest lock still held is returned alongside the
    /// error so the caller can place its linearization point at the instant
    /// the failure was decided, then release.
    pub(crate) fn walk(
        &self,
        tid: Tid,
        comps: &[&str],
        tag: PathTag,
    ) -> Result<Locked, (FsError, Locked)> {
        let root = self.table.root();
        let mut cur = self.lock_inode(tid, ROOT_INUM, &root, tag);
        for name in comps {
            match self.step(tid, &cur, name, tag) {
                Ok(child) => {
                    self.unlock(tid, cur);
                    cur = child;
                }
                Err(e) => return Err((e, cur)),
            }
        }
        if let Some(m) = self.m() {
            m.walk_depth(comps.len() as u64 + 1);
        }
        Ok(cur)
    }

    /// Walk down `comps` starting below `start`, which remains locked and
    /// untouched (the rename branch walk of §5.2).
    ///
    /// Returns `None` when `comps` is empty (the branch ends at `start`).
    /// On failure, returns the deepest *branch* lock still held (or `None`
    /// if the failure was decided while only `start` was held).
    pub(crate) fn branch_walk(
        &self,
        tid: Tid,
        start: &Locked,
        comps: &[&str],
        tag: PathTag,
    ) -> Result<Option<Locked>, (FsError, Option<Locked>)> {
        let Some((first, rest)) = comps.split_first() else {
            return Ok(None);
        };
        let mut cur = match self.step(tid, start, first, tag) {
            Ok(child) => child,
            Err(e) => return Err((e, None)),
        };
        for name in rest {
            match self.step(tid, &cur, name, tag) {
                Ok(child) => {
                    self.unlock(tid, cur);
                    cur = child;
                }
                Err(e) => return Err((e, Some(cur))),
            }
        }
        if let Some(m) = self.m() {
            m.walk_depth(comps.len() as u64);
        }
        Ok(Some(cur))
    }

    /// Lock the child `name` of the locked directory `cur`.
    fn step(&self, tid: Tid, cur: &Locked, name: &str, tag: PathTag) -> Result<Locked, FsError> {
        let (child_ino, child) = cur.dir()?.lookup(name).ok_or(FsError::NotFound)?;
        Ok(self.lock_inode(tid, child_ino, child, tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomfs_trace::current_tid;
    use atomfs_vfs::FileSystem;

    #[test]
    fn walk_reaches_nested_dirs() {
        let fs = AtomFs::new();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        let tid = current_tid();
        let locked = fs.walk(tid, &["a", "b"], PathTag::Common).unwrap();
        assert!(locked.dir().is_ok());
        let ino = locked.ino;
        fs.unlock(tid, locked);
        assert_ne!(ino, ROOT_INUM);
    }

    #[test]
    fn walk_missing_component_fails_with_lock_held() {
        let fs = AtomFs::new();
        fs.mkdir("/a").unwrap();
        let tid = current_tid();
        let (err, held) = fs
            .walk(tid, &["a", "missing", "x"], PathTag::Common)
            .unwrap_err();
        assert_eq!(err, FsError::NotFound);
        // The deepest lock held is /a, where the failure was decided.
        assert!(held.dir().is_ok());
        fs.unlock(tid, held);
    }

    #[test]
    fn walk_through_file_is_notdir() {
        let fs = AtomFs::new();
        fs.mknod("/f").unwrap();
        let tid = current_tid();
        let (err, held) = fs.walk(tid, &["f", "x"], PathTag::Common).unwrap_err();
        assert_eq!(err, FsError::NotDir);
        fs.unlock(tid, held);
    }

    #[test]
    fn branch_walk_keeps_start_locked() {
        let fs = AtomFs::new();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        let tid = current_tid();
        let start = fs.walk(tid, &[], PathTag::Common).unwrap(); // root
        let end = fs
            .branch_walk(tid, &start, &["a", "b"], PathTag::Src)
            .unwrap()
            .unwrap();
        // Both root and /a/b are held simultaneously.
        assert!(start.dir().is_ok());
        assert!(end.dir().is_ok());
        fs.unlock(tid, end);
        fs.unlock(tid, start);
    }

    #[test]
    fn branch_walk_empty_is_none() {
        let fs = AtomFs::new();
        let tid = current_tid();
        let start = fs.walk(tid, &[], PathTag::Common).unwrap();
        assert!(fs
            .branch_walk(tid, &start, &[], PathTag::Dst)
            .unwrap()
            .is_none());
        fs.unlock(tid, start);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn leaked_lock_guard_panics_in_debug() {
        let res = std::panic::catch_unwind(|| {
            let fs = AtomFs::new();
            let tid = current_tid();
            let locked = fs.walk(tid, &[], PathTag::Common).unwrap();
            drop(locked); // bypasses AtomFs::unlock
        });
        let err = res.expect_err("leaking a Locked must panic under debug_assertions");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("without AtomFs::unlock"),
            "unexpected panic message: {msg}"
        );
    }

    #[test]
    fn unlock_republishes_seqlock_state() {
        let fs = AtomFs::new();
        fs.mkdir("/d").unwrap();
        let tid = current_tid();
        let slot = {
            let mut locked = fs.walk(tid, &["d"], PathTag::Common).unwrap();
            let seq_before = locked.slot.seq_read();
            // Mutating through the guard enters the write window...
            let child = fs.table.alloc(atomfs_vfs::FileType::File).unwrap().1;
            assert!(locked.dir_insert("f", &child));
            let slot = InodeRef::clone(&locked.slot);
            assert_eq!(slot.seq_read(), seq_before + 1, "seq odd inside window");
            fs.unlock(tid, locked);
            assert_eq!(slot.seq_read(), seq_before + 2, "seq even after unlock");
            slot
        };
        // ...and the packed meta word reflects the insert.
        let meta = crate::table::InodeSlot::metadata_of(slot.ino(), slot.meta_read());
        assert_eq!(meta.size, 1);
    }
}
