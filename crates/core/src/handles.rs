//! Inode handles — the paper's proposed real FD support (§5.4 discussion).
//!
//! AtomFS proper resolves every FD-based call by path, which is what makes
//! those interfaces linearizable but costs a full traversal per I/O. The
//! paper sketches the alternative it would need for true file descriptors:
//! reference-count each inode so `del` does not free an opened inode, and
//! let FD-based accesses go straight to the inode. This module implements
//! that sketch:
//!
//! * [`AtomFs::open_handle`] walks the path once (lock coupling, so the
//!   open itself is linearizable) and pins the inode with a reference
//!   count;
//! * [`Handle`] I/O locks the inode directly — no path, no traversal, and
//!   therefore no path inter-dependency: handle operations linearize at
//!   their own lock acquisitions and never need helping, exactly as §5.4
//!   argues;
//! * `unlink`/`rename` no longer destroy an opened file's data: the inode
//!   is marked unlinked and its blocks are freed when the last handle
//!   closes — POSIX unlinked-but-open semantics (what FUSE's temporary
//!   files emulate for the paper's prototype).
//!
//! **Verification status.** This is the paper's *future work*, outside its
//! verified core, and outside the checked trace protocol here too: handle
//! I/O emits no trace events, and deleting a file with open handles defers
//! the clear in a way the abstract specification does not model. Use
//! handles on untraced instances (debug builds assert this).

use atomfs_trace::{current_tid, Inum, PathTag};
use atomfs_vfs::path::normalize_ref;
use atomfs_vfs::{FsResult, Metadata};

use crate::fs::AtomFs;
use crate::table::InodeRef;

/// An open, reference-counted handle to a file inode.
///
/// The handle stays valid across concurrent `rename`s of any ancestor
/// (it addresses the inode, not the path) and across `unlink` (the data
/// is retained until the last handle closes). Close explicitly with
/// [`AtomFs::close_handle`]; dropping a handle without closing leaks the
/// pin until process exit (mirroring a leaked OS file descriptor).
#[derive(Debug)]
pub struct Handle {
    ino: Inum,
    iref: InodeRef,
}

impl Handle {
    /// The inode this handle addresses.
    pub fn ino(&self) -> Inum {
        self.ino
    }
}

impl AtomFs {
    /// Open a handle to the regular file at `path`.
    ///
    /// The walk uses lock coupling like every path operation, so the open
    /// is linearizable; the returned handle then bypasses paths entirely.
    ///
    /// # Panics
    ///
    /// Debug builds panic on traced instances — handles are outside the
    /// checked protocol (see the module docs).
    pub fn open_handle(&self, path: &str) -> FsResult<Handle> {
        debug_assert!(
            !self.is_traced(),
            "inode handles are an unverified extension; use an untraced AtomFs"
        );
        let comps = normalize_ref(path)?;
        let tid = current_tid();
        let mut node = self
            .walk(tid, &comps, PathTag::Common)
            .map_err(|(e, held)| {
                self.unlock(tid, held);
                e
            })?;
        let result = match node.as_file_mut() {
            Ok(f) => {
                f.pin();
                Ok(())
            }
            Err(e) => Err(e),
        };
        let ino = node.ino;
        let iref = InodeRef::clone(&node.slot);
        self.unlock(tid, node);
        result.map(|()| Handle { ino, iref })
    }

    /// Duplicate a handle (`dup(2)`): the inode gains another pin.
    pub fn dup_handle(&self, handle: &Handle) -> Handle {
        let mut guard = handle.iref.lock();
        guard
            .as_file_mut()
            .expect("handles only address files")
            .pin();
        Handle {
            ino: handle.ino,
            iref: InodeRef::clone(&handle.iref),
        }
    }

    /// Read through a handle at `offset`. Works after `unlink`.
    pub fn read_handle(&self, handle: &Handle, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        let guard = handle.iref.lock();
        let f = guard.as_file()?;
        Ok(f.read(&self.store, offset, buf))
    }

    /// Write through a handle at `offset`. Works after `unlink`.
    ///
    /// Handle mutations bypass [`crate::walk::Locked`], so they open and
    /// close the inode's seqlock write window themselves — otherwise a
    /// concurrent optimistic `stat` would keep serving the stale packed
    /// metadata word.
    pub fn write_handle(&self, handle: &Handle, offset: u64, data: &[u8]) -> FsResult<usize> {
        let mut guard = handle.iref.lock();
        guard.as_file()?; // type-check before opening the write window
        handle.iref.write_begin();
        let r = guard
            .as_file_mut()
            .expect("checked")
            .write(&self.store, offset, data);
        handle.iref.write_end(&guard);
        r
    }

    /// Resize through a handle.
    pub fn truncate_handle(&self, handle: &Handle, size: u64) -> FsResult<()> {
        let mut guard = handle.iref.lock();
        guard.as_file()?;
        handle.iref.write_begin();
        let r = guard
            .as_file_mut()
            .expect("checked")
            .truncate(&self.store, size);
        handle.iref.write_end(&guard);
        r
    }

    /// Metadata through a handle. `nlink` is 0 once the file is unlinked.
    pub fn stat_handle(&self, handle: &Handle) -> FsResult<Metadata> {
        let guard = handle.iref.lock();
        let f = guard.as_file()?;
        let mut meta = Metadata::file(handle.ino, f.size());
        if f.is_unlinked() {
            meta.nlink = 0;
        }
        Ok(meta)
    }

    /// Close a handle, releasing its pin. The last close of an unlinked
    /// file frees its data blocks (the deferred half of `unlink`).
    pub fn close_handle(&self, handle: Handle) {
        let mut guard = handle.iref.lock();
        let clear = guard.as_file_mut().is_ok_and(|f| f.unpin());
        if clear {
            // The deferred unlink finally destroys data: republish
            // through the seqlock like any other mutation.
            handle.iref.write_begin();
            guard.as_file_mut().expect("checked").clear(&self.store);
            handle.iref.write_end(&guard);
        }
    }

    /// Whether the inode at `path` currently has open handles (test aid).
    pub fn handle_count(&self, path: &str) -> FsResult<u32> {
        let comps = normalize_ref(path)?;
        let tid = current_tid();
        let node = self
            .walk(tid, &comps, PathTag::Common)
            .map_err(|(e, held)| {
                self.unlock(tid, held);
                e
            })?;
        let n = node.as_file().map(|f| f.handle_count());
        self.unlock(tid, node);
        n
    }
}

/// Pin bookkeeping lives on [`crate::inode::FileData`]; these are thin
/// wrappers kept here so the handle story reads in one place.
impl crate::inode::FileData {
    /// Add a handle pin.
    pub(crate) fn pin(&mut self) {
        self.set_handles(self.handle_count() + 1);
    }

    /// Drop a handle pin; returns `true` when this was the last pin of an
    /// unlinked file (the caller must clear the blocks).
    pub(crate) fn unpin(&mut self) -> bool {
        let n = self.handle_count().saturating_sub(1);
        self.set_handles(n);
        n == 0 && self.is_unlinked()
    }
}

/// Free or defer an unlink victim's file data: with open handles the data
/// survives (marked unlinked); without, the blocks are freed immediately.
/// Returns `true` if the data was cleared now.
pub(crate) fn release_or_defer(
    data: &mut crate::inode::InodeData,
    store: &crate::blocks::BlockStore,
) -> bool {
    match data.as_file_mut() {
        Ok(f) => {
            if f.handle_count() > 0 {
                f.set_unlinked(true);
                false
            } else {
                f.clear(store);
                true
            }
        }
        Err(_) => true, // directories have no data to clear
    }
}

#[cfg(test)]
mod tests {
    use crate::AtomFs;
    use atomfs_vfs::{FileSystem, FsError};

    #[test]
    fn handle_io_roundtrip() {
        let fs = AtomFs::new();
        fs.mknod("/f").unwrap();
        let h = fs.open_handle("/f").unwrap();
        assert_eq!(fs.write_handle(&h, 0, b"by handle").unwrap(), 9);
        let mut buf = [0u8; 9];
        assert_eq!(fs.read_handle(&h, 0, &mut buf).unwrap(), 9);
        assert_eq!(&buf, b"by handle");
        fs.truncate_handle(&h, 2).unwrap();
        assert_eq!(fs.stat_handle(&h).unwrap().size, 2);
        fs.close_handle(h);
    }

    #[test]
    fn open_handle_errors() {
        let fs = AtomFs::new();
        fs.mkdir("/d").unwrap();
        assert_eq!(fs.open_handle("/d").unwrap_err(), FsError::IsDir);
        assert_eq!(fs.open_handle("/missing").unwrap_err(), FsError::NotFound);
        assert_eq!(
            fs.open_handle("relative").unwrap_err(),
            FsError::InvalidArgument
        );
    }

    #[test]
    fn handle_survives_rename() {
        // Unlike path-backed descriptors (FdTable), a handle addresses the
        // inode: moving the file or its ancestors does not disturb it.
        let fs = AtomFs::new();
        fs.mkdir("/a").unwrap();
        fs.mknod("/a/f").unwrap();
        let h = fs.open_handle("/a/f").unwrap();
        fs.write_handle(&h, 0, b"pinned").unwrap();
        fs.rename("/a", "/b").unwrap();
        fs.rename("/b/f", "/b/g").unwrap();
        let mut buf = [0u8; 6];
        assert_eq!(fs.read_handle(&h, 0, &mut buf).unwrap(), 6);
        assert_eq!(&buf, b"pinned");
        fs.close_handle(h);
    }

    #[test]
    fn unlinked_open_file_keeps_data_until_last_close() {
        let fs = AtomFs::new();
        fs.mknod("/f").unwrap();
        fs.write("/f", 0, &vec![7u8; 10_000]).unwrap();
        let blocks_before = fs.allocated_blocks();
        assert!(blocks_before >= 3);

        let h1 = fs.open_handle("/f").unwrap();
        let h2 = fs.dup_handle(&h1);
        fs.unlink("/f").unwrap();
        assert_eq!(fs.stat("/f"), Err(FsError::NotFound), "path is gone");
        assert_eq!(
            fs.allocated_blocks(),
            blocks_before,
            "data survives while handles are open"
        );
        let mut buf = [0u8; 4];
        assert_eq!(fs.read_handle(&h1, 0, &mut buf).unwrap(), 4);
        assert_eq!(buf, [7u8; 4]);
        assert_eq!(fs.stat_handle(&h2).unwrap().nlink, 0, "unlinked");

        fs.close_handle(h1);
        assert_eq!(fs.allocated_blocks(), blocks_before, "h2 still pins");
        fs.close_handle(h2);
        assert_eq!(fs.allocated_blocks(), 0, "last close frees the blocks");
    }

    #[test]
    fn rename_victim_with_open_handle_keeps_data() {
        let fs = AtomFs::new();
        fs.mknod("/victim").unwrap();
        fs.write("/victim", 0, b"old data").unwrap();
        fs.mknod("/new").unwrap();
        fs.write("/new", 0, b"new").unwrap();
        let h = fs.open_handle("/victim").unwrap();
        // Rename over the victim: the path now shows the new file, but the
        // handle still reads the victim's bytes.
        fs.rename("/new", "/victim").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(fs.read_handle(&h, 0, &mut buf).unwrap(), 8);
        assert_eq!(&buf, b"old data");
        let mut buf2 = [0u8; 3];
        fs.read("/victim", 0, &mut buf2).unwrap();
        assert_eq!(&buf2, b"new");
        fs.close_handle(h);
    }

    #[test]
    fn handle_count_tracks() {
        let fs = AtomFs::new();
        fs.mknod("/f").unwrap();
        assert_eq!(fs.handle_count("/f").unwrap(), 0);
        let h1 = fs.open_handle("/f").unwrap();
        let h2 = fs.open_handle("/f").unwrap();
        assert_eq!(fs.handle_count("/f").unwrap(), 2);
        fs.close_handle(h1);
        assert_eq!(fs.handle_count("/f").unwrap(), 1);
        fs.close_handle(h2);
        assert_eq!(fs.handle_count("/f").unwrap(), 0);
    }

    #[test]
    fn concurrent_handle_io_with_path_churn() {
        use std::sync::Arc;
        let fs = Arc::new(AtomFs::new());
        fs.mkdir("/dir").unwrap();
        fs.mknod("/dir/f").unwrap();
        let h = Arc::new(fs.open_handle("/dir/f").unwrap());
        let mut tasks = Vec::new();
        for t in 0..4u8 {
            let fs = Arc::clone(&fs);
            let h = Arc::clone(&h);
            tasks.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    fs.write_handle(&h, (u64::from(t)) * 256 + i, &[t]).unwrap();
                    let mut buf = [0u8; 1];
                    fs.read_handle(&h, u64::from(t) * 256, &mut buf).unwrap();
                }
            }));
        }
        // Meanwhile the path thrashes around the pinned inode.
        let fs2 = Arc::clone(&fs);
        let churn = std::thread::spawn(move || {
            for i in 0..50 {
                fs2.rename("/dir", &format!("/dir{i}")).unwrap();
                fs2.rename(&format!("/dir{i}"), "/dir").unwrap();
            }
        });
        for t in tasks {
            t.join().unwrap();
        }
        churn.join().unwrap();
        let h = Arc::into_inner(h).expect("io threads joined");
        assert!(fs.stat_handle(&h).unwrap().size > 0);
        fs.close_handle(h);
    }
}
