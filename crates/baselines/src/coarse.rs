//! Coarse-grained comparison file systems.
//!
//! * [`SeqFs`] — the CRL-H sequential specification ([`crlh::afs`] over
//!   [`FsState`]) behind one global mutex. This is the DFSCQ stand-in: a
//!   correct-by-construction sequential file system that cannot exploit
//!   multicore concurrency, and the oracle of the POSIX differential
//!   tests. The benchmarks wrap it in `OverheadFs` with the
//!   managed-runtime profile (`atomfs_bench::setups`) to model the
//!   Haskell extraction cost the paper attributes DFSCQ's slowdown to.
//! * [`RwTreeFs`] — the same specification behind a readers/writer lock:
//!   `stat`, `readdir` and `read` share the read lock. This is the tmpfs
//!   stand-in for the single-threaded application experiments.
//! * [`BigLockFs`] — a wrapper adding one global lock around *any* file
//!   system; `BigLockFs<AtomFs>` is the paper's **AtomFS-biglock**
//!   (§7.3), where every operation holds the big lock from start to
//!   finish.
//!
//! [`SpecFs`] makes no decision of its own: each operation normalizes its
//! path and hands it to [`crlh::afs`], so the stand-ins return exactly
//! what the checker's specification returns. Mutations run [`afs::step`]
//! on an [`OpDesc`], which edits the state in place, and `readdir` runs
//! [`afs::decide`]; `read` and `write` lend the caller's buffer and bytes
//! to [`afs::read`] and [`afs::write`], so a file's bytes are copied only
//! into the file or into the caller's buffer.

use parking_lot::{Mutex, RwLock};

use atomfs_trace::{OpDesc, OpRet};
use atomfs_vfs::path::normalize;
use atomfs_vfs::{FileSystem, FsError, FsResult, Metadata};
use crlh::afs;
use crlh::state::{FsState, Node, StateView};

/// The CRL-H specification run as a file system, behind the lock `L`.
pub struct SpecFs<L> {
    state: L,
}

/// Sequential file system: the specification behind one mutex, no
/// concurrency (DFSCQ-sim).
pub type SeqFs = SpecFs<Mutex<FsState>>;

/// Readers/writer file system (tmpfs-sim): the specification with
/// concurrent readers and exclusive writers.
pub type RwTreeFs = SpecFs<RwLock<FsState>>;

/// A lock around the specification state.
pub trait SpecLock: Send + Sync {
    /// The name the file system reports.
    const NAME: &'static str;

    /// Lock `state`.
    fn new(state: FsState) -> Self;

    /// Run `f` on the state, shared with other readers where the lock
    /// allows it.
    fn read<R>(&self, f: impl FnOnce(&FsState) -> R) -> R;

    /// Run `f` on the state alone.
    fn write<R>(&self, f: impl FnOnce(&mut FsState) -> R) -> R;
}

impl SpecLock for Mutex<FsState> {
    const NAME: &'static str = "seqfs";
    fn new(state: FsState) -> Self {
        Mutex::new(state)
    }
    fn read<R>(&self, f: impl FnOnce(&FsState) -> R) -> R {
        f(&self.lock())
    }
    fn write<R>(&self, f: impl FnOnce(&mut FsState) -> R) -> R {
        f(&mut self.lock())
    }
}

impl SpecLock for RwLock<FsState> {
    const NAME: &'static str = "rwtreefs";
    fn new(state: FsState) -> Self {
        RwLock::new(state)
    }
    fn read<R>(&self, f: impl FnOnce(&FsState) -> R) -> R {
        f(&self.read())
    }
    fn write<R>(&self, f: impl FnOnce(&mut FsState) -> R) -> R {
        f(&mut self.write())
    }
}

impl<L: SpecLock> Default for SpecFs<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: SpecLock> SpecFs<L> {
    /// Create an empty file system.
    pub fn new() -> Self {
        SpecFs {
            state: L::new(FsState::new()),
        }
    }

    /// Run a mutating `op` under the exclusive lock.
    fn step(&self, op: OpDesc) -> FsResult<OpRet> {
        into_result(self.state.write(|s| afs::step(s, &op)))
    }

    /// Decide a read-only `op` under the shared lock.
    fn decide(&self, op: OpDesc) -> FsResult<OpRet> {
        into_result(self.state.read(|s| afs::decide(s, &op).0))
    }
}

fn into_result(ret: OpRet) -> FsResult<OpRet> {
    match ret {
        OpRet::Err(e) => Err(e),
        ok => Ok(ok),
    }
}

impl<L: SpecLock> FileSystem for SpecFs<L> {
    fn name(&self) -> &'static str {
        L::NAME
    }
    fn mknod(&self, path: &str) -> FsResult<()> {
        let path = normalize(path)?;
        self.step(OpDesc::Mknod { path }).map(drop)
    }
    fn mkdir(&self, path: &str) -> FsResult<()> {
        let path = normalize(path)?;
        self.step(OpDesc::Mkdir { path }).map(drop)
    }
    fn unlink(&self, path: &str) -> FsResult<()> {
        let path = normalize(path)?;
        self.step(OpDesc::Unlink { path }).map(drop)
    }
    fn rmdir(&self, path: &str) -> FsResult<()> {
        let path = normalize(path)?;
        self.step(OpDesc::Rmdir { path }).map(drop)
    }
    fn rename(&self, src: &str, dst: &str) -> FsResult<()> {
        let (src, dst) = (normalize(src)?, normalize(dst)?);
        self.step(OpDesc::Rename { src, dst }).map(drop)
    }
    /// The metadata of the node the walk reaches; `nlink` counts a
    /// directory's child directories.
    fn stat(&self, path: &str) -> FsResult<Metadata> {
        let path = normalize(path)?;
        self.state.read(|s| {
            let ino = s.walk(&path)?;
            Ok(match s.node(ino).ok_or(FsError::NotFound)? {
                Node::File(f) => Metadata::file(ino, f.len() as u64),
                Node::Dir(d) => {
                    let subdirs = d
                        .values()
                        .filter(|c| matches!(s.node(**c), Some(Node::Dir(_))))
                        .count() as u32;
                    Metadata::dir(ino, d.len() as u64, subdirs)
                }
            })
        })
    }
    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        let path = normalize(path)?;
        match self.decide(OpDesc::Readdir { path })? {
            OpRet::Names(names) => Ok(names),
            other => unreachable!("readdir returned {other}"),
        }
    }
    fn read(&self, path: &str, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        let path = normalize(path)?;
        self.state.read(|s| afs::read(s, &path, offset, buf))
    }
    fn write(&self, path: &str, offset: u64, data: &[u8]) -> FsResult<usize> {
        let path = normalize(path)?;
        self.state.write(|s| afs::write(s, &path, offset, data))
    }
    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        let path = normalize(path)?;
        self.step(OpDesc::Truncate { path, size }).map(drop)
    }
}

/// One global lock around any file system — the AtomFS-biglock variant:
/// "all file system operations first acquire a big-lock and do not
/// release the lock until the operations finish" (§7.3).
pub struct BigLockFs<F> {
    inner: F,
    big: Mutex<()>,
}

impl<F: FileSystem> BigLockFs<F> {
    /// Wrap `inner` with a global lock.
    pub fn new(inner: F) -> Self {
        BigLockFs {
            inner,
            big: Mutex::new(()),
        }
    }

    /// The wrapped file system.
    pub fn inner(&self) -> &F {
        &self.inner
    }
}

impl<F: FileSystem> FileSystem for BigLockFs<F> {
    fn name(&self) -> &'static str {
        "biglock"
    }
    fn mknod(&self, path: &str) -> FsResult<()> {
        let _g = self.big.lock();
        self.inner.mknod(path)
    }
    fn mkdir(&self, path: &str) -> FsResult<()> {
        let _g = self.big.lock();
        self.inner.mkdir(path)
    }
    fn unlink(&self, path: &str) -> FsResult<()> {
        let _g = self.big.lock();
        self.inner.unlink(path)
    }
    fn rmdir(&self, path: &str) -> FsResult<()> {
        let _g = self.big.lock();
        self.inner.rmdir(path)
    }
    fn rename(&self, src: &str, dst: &str) -> FsResult<()> {
        let _g = self.big.lock();
        self.inner.rename(src, dst)
    }
    fn stat(&self, path: &str) -> FsResult<Metadata> {
        let _g = self.big.lock();
        self.inner.stat(path)
    }
    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        let _g = self.big.lock();
        self.inner.readdir(path)
    }
    fn read(&self, path: &str, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        let _g = self.big.lock();
        self.inner.read(path, offset, buf)
    }
    fn write(&self, path: &str, offset: u64, data: &[u8]) -> FsResult<usize> {
        let _g = self.big.lock();
        self.inner.write(path, offset, data)
    }
    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        let _g = self.big.lock();
        self.inner.truncate(path, size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomfs_vfs::fs::FileSystemExt;
    use std::sync::Arc;

    fn exercise(fs: &dyn FileSystem) {
        fs.mkdir("/d").unwrap();
        fs.mknod("/d/f").unwrap();
        fs.write("/d/f", 0, b"hello").unwrap();
        let mut buf = [0u8; 5];
        assert_eq!(fs.read("/d/f", 0, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"hello");
        fs.rename("/d/f", "/d/g").unwrap();
        assert_eq!(fs.stat("/d/f"), Err(FsError::NotFound));
        assert_eq!(fs.readdir("/d").unwrap(), vec!["g"]);
        fs.truncate("/d/g", 2).unwrap();
        assert_eq!(fs.read_to_vec("/d/g").unwrap(), b"he");
        fs.unlink("/d/g").unwrap();
        fs.rmdir("/d").unwrap();
    }

    #[test]
    fn seqfs_full_cycle() {
        exercise(&SeqFs::new());
    }

    #[test]
    fn rwtree_full_cycle() {
        exercise(&RwTreeFs::new());
    }

    #[test]
    fn biglock_over_atomfs_full_cycle() {
        exercise(&BigLockFs::new(atomfs::AtomFs::new()));
    }

    #[test]
    fn rwtree_concurrent_readers() {
        let fs = Arc::new(RwTreeFs::new());
        fs.mknod("/f").unwrap();
        fs.write("/f", 0, b"shared").unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let mut buf = [0u8; 6];
                    assert_eq!(fs.read("/f", 0, &mut buf).unwrap(), 6);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn biglock_serializes_but_is_correct() {
        let fs = Arc::new(BigLockFs::new(atomfs::AtomFs::new()));
        fs.mkdir("/d").unwrap();
        let mut handles = Vec::new();
        for t in 0..8 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    fs.mknod(&format!("/d/f{t}_{i}")).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fs.readdir("/d").unwrap().len(), 400);
    }
}
