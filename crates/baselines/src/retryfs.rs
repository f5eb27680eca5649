//! Traversal-retry file system — the Linux VFS alternative to lock
//! coupling (§5.1).
//!
//! Linux does not lock-couple path walks; instead it lets operations
//! bypass each other during traversal and *revalidates*: a global rename
//! seqlock is read before the walk and re-checked once the target is
//! locked — if any rename ran in between, the whole lookup is redone.
//! Deleted inodes are flagged (the dentry-unhashed analogue) so a walker
//! that raced an unlink retries instead of mutating a ghost node. The
//! paper argues this obeys the same non-bypassable criterion at higher
//! implementation complexity; [`RetryFs`] exists to measure that
//! trade-off (the `ablation_sync` benchmark) and to reproduce the §3.2
//! path-inter-dependency study on a retry-based design.
//!
//! Concurrency structure:
//!
//! * walks lock one inode at a time (no coupling) — bypassable;
//! * every operation, after locking its target, re-checks the rename
//!   sequence counter it read at the start and retries on change;
//! * renames serialize on a global rename mutex (Linux:
//!   `s_vfs_rename_mutex`) and make the sequence counter odd while they
//!   run, stalling concurrent walks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use atomfs_vfs::path::normalize;
use atomfs_vfs::{FileSystem, FileType, FsError, FsResult, Metadata};

use crlh::afs::{truncate_bytes, write_bytes};
use crlh::state::Node;

const ROOT: u64 = 1;

struct RNode {
    /// Set once the inode is unlinked; racing walkers must retry.
    deleted: bool,
    node: Node,
}

/// The traversal-retry file system.
pub struct RetryFs {
    table: RwLock<HashMap<u64, Arc<Mutex<RNode>>>>,
    next: AtomicU64,
    /// Rename sequence counter: odd while a rename is in flight.
    seq: AtomicU64,
    /// Serializes renames (Linux's per-superblock rename mutex).
    rename_lock: Mutex<()>,
}

impl Default for RetryFs {
    fn default() -> Self {
        Self::new()
    }
}

impl RetryFs {
    /// Create an empty file system.
    pub fn new() -> Self {
        let mut table = HashMap::new();
        table.insert(
            ROOT,
            Arc::new(Mutex::new(RNode {
                deleted: false,
                node: Node::new(FileType::Dir),
            })),
        );
        RetryFs {
            table: RwLock::new(table),
            next: AtomicU64::new(ROOT + 1),
            seq: AtomicU64::new(0),
            rename_lock: Mutex::new(()),
        }
    }

    fn get(&self, id: u64) -> Option<Arc<Mutex<RNode>>> {
        self.table.read().get(&id).cloned()
    }

    fn alloc(&self, node: Node) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.table.write().insert(
            id,
            Arc::new(Mutex::new(RNode {
                deleted: false,
                node,
            })),
        );
        id
    }

    fn free(&self, id: u64) {
        self.table.write().remove(&id);
    }

    /// Read an even sequence value, spinning past in-flight renames.
    fn read_seq(&self) -> u64 {
        loop {
            let s = self.seq.load(Ordering::Acquire);
            if s.is_multiple_of(2) {
                return s;
            }
            std::hint::spin_loop();
        }
    }

    fn seq_changed(&self, start: u64) -> bool {
        self.seq.load(Ordering::Acquire) != start
    }

    /// Lock-free (uncoupled) walk: lock each inode briefly to read one
    /// link, releasing before taking the next. Bypassable by design.
    fn walk(&self, comps: &[String]) -> FsResult<u64> {
        let mut cur = ROOT;
        for name in comps {
            let iref = self.get(cur).ok_or(FsError::NotFound)?;
            let guard = iref.lock();
            if guard.deleted {
                return Err(FsError::NotFound);
            }
            cur = match &guard.node {
                Node::Dir(d) => *d.get(name).ok_or(FsError::NotFound)?,
                Node::File(_) => return Err(FsError::NotDir),
            };
        }
        Ok(cur)
    }

    /// Run `f` with the node at `comps` locked, retrying the whole lookup
    /// whenever a rename intervened or the node was deleted underneath us.
    fn with_node<T>(
        &self,
        comps: &[String],
        mut f: impl FnMut(&mut Node) -> FsResult<T>,
    ) -> FsResult<T> {
        loop {
            let start = self.read_seq();
            let id = match self.walk(comps) {
                Ok(id) => id,
                Err(e) => {
                    if self.seq_changed(start) {
                        continue; // revalidation failed: redo the lookup
                    }
                    return Err(e);
                }
            };
            let Some(iref) = self.get(id) else { continue };
            let mut guard = iref.lock();
            if guard.deleted || self.seq_changed(start) {
                continue;
            }
            return f(&mut guard.node);
        }
    }

    /// Like [`RetryFs::with_node`] but for the *parent* directory of the
    /// path, passing the final name.
    fn with_parent<T>(
        &self,
        comps: &[String],
        root_err: FsError,
        mut f: impl FnMut(&Self, &mut Node, &str) -> FsResult<T>,
    ) -> FsResult<T> {
        let Some((name, parent)) = comps.split_last() else {
            return Err(root_err);
        };
        loop {
            let start = self.read_seq();
            let pid = match self.walk(parent) {
                Ok(id) => id,
                Err(e) => {
                    if self.seq_changed(start) {
                        continue;
                    }
                    return Err(e);
                }
            };
            let Some(pref) = self.get(pid) else { continue };
            let mut pguard = pref.lock();
            if pguard.deleted || self.seq_changed(start) {
                continue;
            }
            if !matches!(pguard.node, Node::Dir(_)) {
                return Err(FsError::NotDir);
            }
            return f(self, &mut pguard.node, name);
        }
    }
}

impl FileSystem for RetryFs {
    fn name(&self) -> &'static str {
        "retryfs"
    }

    fn mknod(&self, path: &str) -> FsResult<()> {
        self.create(&normalize(path)?, FileType::File)
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.create(&normalize(path)?, FileType::Dir)
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        self.remove(&normalize(path)?, false)
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.remove(&normalize(path)?, true)
    }

    fn rename(&self, src: &str, dst: &str) -> FsResult<()> {
        let src = normalize(src)?;
        let dst = normalize(dst)?;
        if src.is_empty() || dst.is_empty() {
            return Err(FsError::Busy);
        }
        if src.len() < dst.len() && dst[..src.len()] == src[..] {
            return Err(FsError::InvalidArgument);
        }
        let dst_is_ancestor = dst.len() < src.len() && src[..dst.len()] == dst[..];
        let (sn, sp) = src.split_last().expect("nonempty");
        let (dn, dp) = dst.split_last().expect("nonempty");

        // Renames are globally serialized; the odd counter stalls walkers.
        let _g = self.rename_lock.lock();
        self.seq.fetch_add(1, Ordering::AcqRel);
        let result = self.rename_locked(sn, sp, dn, dp, &src, &dst, dst_is_ancestor);
        self.seq.fetch_add(1, Ordering::AcqRel);
        result
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        let comps = normalize(path)?;
        // Reuse with_node for the deleted/seq checks; compute metadata in place.
        loop {
            let start = self.read_seq();
            let id = match self.walk(&comps) {
                Ok(id) => id,
                Err(e) => {
                    if self.seq_changed(start) {
                        continue;
                    }
                    return Err(e);
                }
            };
            let Some(iref) = self.get(id) else { continue };
            let guard = iref.lock();
            if guard.deleted || self.seq_changed(start) {
                continue;
            }
            return Ok(match &guard.node {
                Node::File(f) => Metadata::file(id, f.len() as u64),
                Node::Dir(d) => {
                    // Count child directories for the link count; a child
                    // racing deletion is simply skipped (its unlink will
                    // invalidate this stat's seq check anyway).
                    let children: Vec<u64> = d.values().copied().collect();
                    drop(guard);
                    let subdirs = children
                        .iter()
                        .filter_map(|c| self.get(*c))
                        .filter(|n| {
                            let g = n.lock();
                            !g.deleted && matches!(g.node, Node::Dir(_))
                        })
                        .count() as u32;
                    Metadata::dir(id, children.len() as u64, subdirs)
                }
            });
        }
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        self.with_node(&normalize(path)?, |node| match node {
            Node::Dir(d) => Ok(d.keys().cloned().collect()),
            Node::File(_) => Err(FsError::NotDir),
        })
    }

    fn read(&self, path: &str, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.with_node(&normalize(path)?, |node| match node {
            Node::File(f) => {
                let off = offset as usize;
                if off >= f.len() {
                    return Ok(0);
                }
                let n = buf.len().min(f.len() - off);
                buf[..n].copy_from_slice(&f[off..off + n]);
                Ok(n)
            }
            Node::Dir(_) => Err(FsError::IsDir),
        })
    }

    fn write(&self, path: &str, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.with_node(&normalize(path)?, |node| match node {
            Node::File(f) => write_bytes(f, offset, data),
            Node::Dir(_) => Err(FsError::IsDir),
        })
    }

    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        self.with_node(&normalize(path)?, |node| match node {
            Node::File(f) => truncate_bytes(f, size),
            Node::Dir(_) => Err(FsError::IsDir),
        })
    }
}

impl RetryFs {
    fn create(&self, comps: &[String], ftype: FileType) -> FsResult<()> {
        self.with_parent(comps, FsError::Exists, |fs, pnode, name| {
            let Node::Dir(d) = pnode else {
                unreachable!("checked")
            };
            if d.contains_key(name) {
                return Err(FsError::Exists);
            }
            let id = fs.alloc(Node::new(ftype));
            d.insert(name.to_string(), id);
            Ok(())
        })
    }

    fn remove(&self, comps: &[String], want_dir: bool) -> FsResult<()> {
        let root_err = if want_dir {
            FsError::Busy
        } else {
            FsError::IsDir
        };
        self.with_parent(comps, root_err, |fs, pnode, name| {
            let Node::Dir(d) = pnode else {
                unreachable!("checked")
            };
            let Some(&child) = d.get(name) else {
                return Err(FsError::NotFound);
            };
            let cref = fs.get(child).ok_or(FsError::NotFound)?;
            let mut cguard = cref.lock();
            if cguard.deleted {
                return Err(FsError::NotFound);
            }
            match (&cguard.node, want_dir) {
                (Node::File(_), true) => return Err(FsError::NotDir),
                (Node::Dir(_), false) => return Err(FsError::IsDir),
                (Node::Dir(sub), true) if !sub.is_empty() => return Err(FsError::NotEmpty),
                _ => {}
            }
            cguard.deleted = true;
            drop(cguard);
            d.remove(name);
            fs.free(child);
            Ok(())
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn rename_locked(
        &self,
        sn: &str,
        sp: &[String],
        dn: &str,
        dp: &[String],
        src: &[String],
        dst: &[String],
        dst_is_ancestor: bool,
    ) -> FsResult<()> {
        if src == dst {
            let pid = self.walk(sp)?;
            let pref = self.get(pid).ok_or(FsError::NotFound)?;
            let pguard = pref.lock();
            return match &pguard.node {
                Node::Dir(d) if d.contains_key(sn) => Ok(()),
                Node::Dir(_) => Err(FsError::NotFound),
                Node::File(_) => Err(FsError::NotDir),
            };
        }
        let sdir = self.walk(sp)?;
        let ddir = self.walk(dp)?;
        // Lock parents in tree order (ancestor first), falling back to id
        // order for disjoint subtrees; no other rename runs concurrently.
        let sref = self.get(sdir).ok_or(FsError::NotFound)?;
        let dref = self.get(ddir).ok_or(FsError::NotFound)?;
        let same = sdir == ddir;
        let sp_first = atomfs_vfs::path::is_prefix(sp, dp)
            || (!atomfs_vfs::path::is_prefix(dp, sp) && sdir < ddir);
        let (mut sguard, mut dguard) = if same {
            (sref.lock(), None)
        } else if sp_first {
            let s = sref.lock();
            let d = dref.lock();
            (s, Some(d))
        } else {
            let d = dref.lock();
            let s = sref.lock();
            (s, Some(d))
        };
        if sguard.deleted || dguard.as_ref().is_some_and(|g| g.deleted) {
            return Err(FsError::NotFound);
        }
        let sdir_entries = match &sguard.node {
            Node::Dir(d) => d,
            Node::File(_) => return Err(FsError::NotDir),
        };
        if let Some(g) = &dguard {
            if !matches!(g.node, Node::Dir(_)) {
                return Err(FsError::NotDir);
            }
        }
        let Some(&snode) = sdir_entries.get(sn) else {
            return Err(FsError::NotFound);
        };
        if dst_is_ancestor {
            return Err(FsError::NotEmpty);
        }
        let ddir_entries = match dguard.as_ref().map(|g| &g.node).unwrap_or(&sguard.node) {
            Node::Dir(d) => d,
            Node::File(_) => unreachable!("checked"),
        };
        let dnode = ddir_entries.get(dn).copied();
        if dnode == Some(snode) {
            return Ok(());
        }
        let snode_ref = self.get(snode).ok_or(FsError::NotFound)?;
        let s_is_dir = matches!(snode_ref.lock().node, Node::Dir(_));
        if let Some(d) = dnode {
            let dref2 = self.get(d).ok_or(FsError::NotFound)?;
            let mut dg = dref2.lock();
            let d_is_dir = matches!(dg.node, Node::Dir(_));
            if s_is_dir && !d_is_dir {
                return Err(FsError::NotDir);
            }
            if !s_is_dir && d_is_dir {
                return Err(FsError::IsDir);
            }
            if let Node::Dir(sub) = &dg.node {
                if !sub.is_empty() {
                    return Err(FsError::NotEmpty);
                }
            }
            dg.deleted = true;
            drop(dg);
            self.free(d);
        }
        // Perform the link surgery.
        if let Node::Dir(dd) = dguard
            .as_mut()
            .map(|g| &mut g.node)
            .unwrap_or(&mut sguard.node)
        {
            dd.remove(dn);
        }
        if let Node::Dir(sd) = &mut sguard.node {
            sd.remove(sn);
        }
        if let Node::Dir(dd) = dguard
            .as_mut()
            .map(|g| &mut g.node)
            .unwrap_or(&mut sguard.node)
        {
            dd.insert(dn.to_string(), snode);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomfs_vfs::fs::FileSystemExt;
    use std::sync::Arc;

    #[test]
    fn basic_semantics() {
        let fs = RetryFs::new();
        fs.mkdir("/a").unwrap();
        fs.mknod("/a/f").unwrap();
        fs.write("/a/f", 0, b"retry").unwrap();
        assert_eq!(fs.read_to_vec("/a/f").unwrap(), b"retry");
        fs.rename("/a/f", "/a/g").unwrap();
        assert_eq!(fs.stat("/a/f"), Err(FsError::NotFound));
        assert_eq!(fs.rename("/a", "/a/x"), Err(FsError::InvalidArgument));
        fs.unlink("/a/g").unwrap();
        fs.rmdir("/a").unwrap();
    }

    #[test]
    fn rename_error_cases_match_atomfs() {
        let fs = RetryFs::new();
        fs.mkdir("/d").unwrap();
        fs.mkdir("/d/sub").unwrap();
        fs.mknod("/f").unwrap();
        assert_eq!(fs.rename("/d", "/f"), Err(FsError::NotDir));
        assert_eq!(fs.rename("/f", "/d"), Err(FsError::IsDir));
        assert_eq!(fs.rename("/d/sub", "/d"), Err(FsError::NotEmpty));
        assert_eq!(fs.rename("/", "/x"), Err(FsError::Busy));
        fs.rename("/d", "/d").unwrap();
    }

    #[test]
    fn concurrent_create_delete_churn() {
        let fs = Arc::new(RetryFs::new());
        fs.mkdir("/w").unwrap();
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let p = format!("/w/f{t}_{i}");
                    fs.mknod(&p).unwrap();
                    fs.write(&p, 0, b"x").unwrap();
                    fs.unlink(&p).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(fs.readdir("/w").unwrap().is_empty());
    }

    #[test]
    fn renames_race_walkers_without_deadlock() {
        let fs = Arc::new(RetryFs::new());
        fs.mkdir("/a").unwrap();
        fs.mkdir("/b").unwrap();
        for i in 0..10 {
            fs.mknod(&format!("/a/f{i}")).unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                for i in 0..10 {
                    let _ = fs.rename(&format!("/a/f{i}"), &format!("/b/g{i}_{t}"));
                    let _ = fs.stat(&format!("/b/g{i}_{t}"));
                    let _ = fs.readdir("/a");
                    let _ = fs.rename(&format!("/b/g{i}_{t}"), &format!("/a/f{i}"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = fs.readdir("/a").unwrap().len() + fs.readdir("/b").unwrap().len();
        assert_eq!(total, 10);
    }

    #[test]
    fn crossing_renames_with_nested_dirs() {
        let fs = Arc::new(RetryFs::new());
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        fs.mknod("/a/x").unwrap();
        // Rename between a dir and its subdirectory (ancestor ordering).
        fs.rename("/a/x", "/a/b/y").unwrap();
        assert!(fs.stat("/a/b/y").is_ok());
        fs.rename("/a/b/y", "/a/x").unwrap();
        assert!(fs.stat("/a/x").is_ok());
    }
}
