//! A deliberately *non*-linearizable file system — the negative control.
//!
//! [`BypassFs`] is AtomFS with the one property the paper proves essential
//! removed: lock coupling. Its walks release the current inode's lock
//! *before* acquiring the next one, so operations can bypass each other on
//! the same path, violating the non-bypassable criterion (§5.1, Figure 8).
//! It emits the same instrumentation events as AtomFS, which lets the
//! integration tests demonstrate that the CRL-H checker actually *detects*
//! broken file systems: staged Figure-8 interleavings produce
//! `UnhelpedNonBypassable` and `ReturnMismatch` violations (and
//! occasionally observable lost updates).
//!
//! Never use this file system for anything but checker validation.

use std::collections::HashMap;
use std::sync::Arc;

use atomfs::blocks::BlockStore;
use atomfs::epoch;
use atomfs::fastdir::FastDir;
use atomfs::table::{InodeRef, InodeTable, SlotGuard};
use atomfs_trace::{
    current_tid, Event, Inum, MicroOp, OpDesc, OpRet, PathTag, StatRet, Tid, TraceSink, ROOT_INUM,
};
use atomfs_vfs::path::normalize;
use atomfs_vfs::{FileSystem, FileType, FsError, FsResult, Metadata};

/// Called in the bypass window of a walk — after the current inode's
/// lock is released and before the next one is taken — with the walking
/// thread and the inode it is about to lock. Tests park here to stage
/// Figure 8.
pub type WalkHook = Arc<dyn Fn(Tid, Inum) + Send + Sync>;

/// AtomFS without lock coupling. See the module docs.
pub struct BypassFs {
    table: InodeTable,
    /// Every live inode by number. A bypassing walk resumes at the inode
    /// *number* it read before releasing its lock — whatever inode holds
    /// that number by then, which is how Figure 8's recycled number
    /// catches it. (A lock-coupled walk never needs this: it holds the
    /// parent, so the child it read stays linked.)
    inodes: parking_lot::Mutex<HashMap<Inum, InodeRef>>,
    store: BlockStore,
    sink: Option<Arc<dyn TraceSink>>,
    walk_hook: parking_lot::Mutex<Option<WalkHook>>,
}

struct Held {
    guard: SlotGuard,
}

impl Held {
    fn ino(&self) -> Inum {
        self.guard.slot().ino()
    }

    /// The held directory's index, or `ENOTDIR`.
    fn dir(&self) -> FsResult<&FastDir> {
        self.guard.slot().dir().ok_or(FsError::NotDir)
    }
}

impl BypassFs {
    /// Create an untraced instance.
    pub fn new() -> Self {
        Self::with_sink(None)
    }

    /// Create an instrumented instance.
    pub fn traced(sink: Arc<dyn TraceSink>) -> Self {
        Self::with_sink(Some(sink))
    }

    fn with_sink(sink: Option<Arc<dyn TraceSink>>) -> Self {
        let table = InodeTable::new(1 << 20);
        let inodes = HashMap::from([(ROOT_INUM, table.root())]);
        BypassFs {
            table,
            inodes: parking_lot::Mutex::new(inodes),
            store: BlockStore::new(1 << 16),
            sink,
            walk_hook: parking_lot::Mutex::new(None),
        }
    }

    /// Install a [`WalkHook`] invoked in every bypass window.
    pub fn set_walk_hook(&self, hook: WalkHook) {
        *self.walk_hook.lock() = Some(hook);
    }

    fn emit(&self, ev: impl FnOnce() -> Event) {
        if let Some(s) = &self.sink {
            s.emit(ev());
        }
    }

    /// Lock whatever live inode currently has number `ino`.
    fn lock(&self, tid: Tid, ino: Inum, tag: PathTag) -> Option<Held> {
        let slot = self.inodes.lock().get(&ino).cloned()?;
        let guard = slot.lock_owned();
        self.emit(|| Event::Lock { tid, ino, tag });
        Some(Held { guard })
    }

    fn unlock(&self, tid: Tid, held: Held) {
        self.emit(|| Event::Unlock {
            tid,
            ino: held.ino(),
        });
        drop(held.guard);
    }

    /// The broken walk: releases each inode before locking the next.
    fn walk(&self, tid: Tid, comps: &[String]) -> FsResult<Held> {
        let mut cur = self
            .lock(tid, ROOT_INUM, PathTag::Common)
            .ok_or(FsError::NotFound)?;
        for name in comps {
            let child = match cur.dir() {
                Ok(d) => d.lookup(&epoch::pin(), name).map(|(ino, _)| ino),
                Err(e) => {
                    self.emit(|| Event::Lp { tid });
                    self.unlock(tid, cur);
                    return Err(e);
                }
            };
            let Some(child) = child else {
                self.emit(|| Event::Lp { tid });
                self.unlock(tid, cur);
                return Err(FsError::NotFound);
            };
            // THE BUG: release before acquiring — a concurrent operation
            // can slip underneath us here.
            self.unlock(tid, cur);
            let hook = self.walk_hook.lock().clone();
            if let Some(hook) = hook {
                hook(tid, child);
            }
            cur = match self.lock(tid, child, PathTag::Common) {
                Some(h) => h,
                None => {
                    // The child was freed while we held nothing.
                    self.emit(|| Event::Lp { tid });
                    return Err(FsError::NotFound);
                }
            };
        }
        Ok(cur)
    }

    fn finish<T>(&self, tid: Tid, result: &FsResult<T>, ret: impl FnOnce(&T) -> OpRet) {
        self.emit(|| Event::OpEnd {
            tid,
            ret: match result {
                Ok(v) => ret(v),
                Err(e) => OpRet::Err(*e),
            },
        });
    }
}

impl Default for BypassFs {
    fn default() -> Self {
        Self::new()
    }
}

impl FileSystem for BypassFs {
    fn name(&self) -> &'static str {
        "bypassfs"
    }

    fn mknod(&self, path: &str) -> FsResult<()> {
        self.create(path, FileType::File)
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.create(path, FileType::Dir)
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        self.remove(path, false)
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.remove(path, true)
    }

    fn rename(&self, src: &str, dst: &str) -> FsResult<()> {
        // Only top-level renames are supported — enough for the staged
        // scenarios; the real implementation is in `atomfs`.
        let src = normalize(src)?;
        let dst = normalize(dst)?;
        let tid = current_tid();
        self.emit(|| Event::OpBegin {
            tid,
            op: OpDesc::Rename {
                src: src.clone(),
                dst: dst.clone(),
            },
        });
        let result = self.rename_inner(tid, &src, &dst);
        self.finish(tid, &result, |_| OpRet::Ok);
        result
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        let comps = normalize(path)?;
        let tid = current_tid();
        self.emit(|| Event::OpBegin {
            tid,
            op: OpDesc::Stat {
                path: comps.clone(),
            },
        });
        let result = (|| {
            let node = self.walk(tid, &comps)?;
            let meta = node.guard.slot().metadata(&node.guard);
            self.emit(|| Event::Lp { tid });
            self.unlock(tid, node);
            Ok(meta)
        })();
        self.finish(tid, &result, |m| OpRet::Stat(StatRet::from_metadata(m)));
        result
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        let comps = normalize(path)?;
        let tid = current_tid();
        self.emit(|| Event::OpBegin {
            tid,
            op: OpDesc::Readdir {
                path: comps.clone(),
            },
        });
        let result = (|| {
            let node = self.walk(tid, &comps)?;
            let names = node.dir().map(FastDir::names);
            self.emit(|| Event::Lp { tid });
            self.unlock(tid, node);
            names
        })();
        self.finish(tid, &result, |n| OpRet::names(n.clone()));
        result
    }

    fn read(&self, path: &str, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        let comps = normalize(path)?;
        let tid = current_tid();
        self.emit(|| Event::OpBegin {
            tid,
            op: OpDesc::Read {
                path: comps.clone(),
                offset,
                len: buf.len(),
            },
        });
        let result = (|| {
            let node = self.walk(tid, &comps)?;
            let r = match node.guard.as_file() {
                Ok(f) => Ok(f.read(&self.store, offset, buf)),
                Err(e) => Err(e),
            };
            self.emit(|| Event::Lp { tid });
            self.unlock(tid, node);
            r
        })();
        self.finish(tid, &result, |n| OpRet::Data(buf[..*n].to_vec()));
        result
    }

    fn write(&self, path: &str, offset: u64, data: &[u8]) -> FsResult<usize> {
        let comps = normalize(path)?;
        let tid = current_tid();
        self.emit(|| Event::OpBegin {
            tid,
            op: OpDesc::Write {
                path: comps.clone(),
                offset,
                data: data.to_vec(),
            },
        });
        let traced = self.sink.is_some();
        let result = (|| {
            let mut node = self.walk(tid, &comps)?;
            let ino = node.ino();
            let r = match node.guard.as_file_mut() {
                Ok(f) => {
                    let extent = traced.then(|| {
                        MicroOp::write_extent(ino, f.size(), offset, data, |r| {
                            f.copy_range(&self.store, r)
                        })
                    });
                    match f.write(&self.store, offset, data) {
                        Ok(n) => {
                            if let Some(mop) = extent {
                                self.emit(|| Event::Mutate { tid, mop });
                            }
                            Ok(n)
                        }
                        Err(e) => Err(e),
                    }
                }
                Err(e) => Err(e),
            };
            self.emit(|| Event::Lp { tid });
            self.unlock(tid, node);
            r
        })();
        self.finish(tid, &result, |n| OpRet::Written(*n));
        result
    }

    fn truncate(&self, _path: &str, _size: u64) -> FsResult<()> {
        Err(FsError::Unsupported)
    }
}

impl BypassFs {
    fn create(&self, path: &str, ftype: FileType) -> FsResult<()> {
        let comps = normalize(path)?;
        let tid = current_tid();
        self.emit(|| Event::OpBegin {
            tid,
            op: match ftype {
                FileType::File => OpDesc::Mknod {
                    path: comps.clone(),
                },
                FileType::Dir => OpDesc::Mkdir {
                    path: comps.clone(),
                },
            },
        });
        let result = self.create_inner(tid, &comps, ftype);
        self.finish(tid, &result, |()| OpRet::Ok);
        result
    }

    fn create_inner(&self, tid: Tid, comps: &[String], ftype: FileType) -> FsResult<()> {
        let Some((name, parent)) = comps.split_last() else {
            self.emit(|| Event::Lp { tid });
            return Err(FsError::Exists);
        };
        let p = self.walk(tid, parent)?;
        let outcome = match p.dir() {
            Err(e) => Err(e),
            Ok(d) if d.lookup(&epoch::pin(), name).is_some() => Err(FsError::Exists),
            Ok(_) => Ok(()),
        };
        if let Err(e) = outcome {
            self.emit(|| Event::Lp { tid });
            self.unlock(tid, p);
            return Err(e);
        }
        let (ino, iref) = match self.table.alloc(ftype) {
            Ok(x) => x,
            Err(e) => {
                self.emit(|| Event::Lp { tid });
                self.unlock(tid, p);
                return Err(e);
            }
        };
        self.emit(|| Event::Mutate {
            tid,
            mop: MicroOp::Create { ino, ftype },
        });
        self.inodes.lock().insert(ino, InodeRef::clone(&iref));
        let pino = p.ino();
        p.dir().expect("checked").insert(name, &iref);
        self.emit(|| Event::Mutate {
            tid,
            mop: MicroOp::Ins {
                parent: pino,
                name: name.clone(),
                child: ino,
            },
        });
        self.emit(|| Event::Lp { tid });
        self.unlock(tid, p);
        Ok(())
    }

    fn remove(&self, path: &str, want_dir: bool) -> FsResult<()> {
        let comps = normalize(path)?;
        let tid = current_tid();
        self.emit(|| Event::OpBegin {
            tid,
            op: if want_dir {
                OpDesc::Rmdir {
                    path: comps.clone(),
                }
            } else {
                OpDesc::Unlink {
                    path: comps.clone(),
                }
            },
        });
        let result = self.remove_inner(tid, &comps, want_dir);
        self.finish(tid, &result, |()| OpRet::Ok);
        result
    }

    fn remove_inner(&self, tid: Tid, comps: &[String], want_dir: bool) -> FsResult<()> {
        let Some((name, parent)) = comps.split_last() else {
            self.emit(|| Event::Lp { tid });
            return Err(if want_dir {
                FsError::Busy
            } else {
                FsError::IsDir
            });
        };
        let p = self.walk(tid, parent)?;
        let child_ino = match p.dir() {
            Ok(d) => d.lookup(&epoch::pin(), name).map(|(ino, _)| ino),
            Err(e) => {
                self.emit(|| Event::Lp { tid });
                self.unlock(tid, p);
                return Err(e);
            }
        };
        let Some(child_ino) = child_ino else {
            self.emit(|| Event::Lp { tid });
            self.unlock(tid, p);
            return Err(FsError::NotFound);
        };
        let Some(mut c) = self.lock(tid, child_ino, PathTag::Common) else {
            self.emit(|| Event::Lp { tid });
            self.unlock(tid, p);
            return Err(FsError::NotFound);
        };
        let cftype = c.guard.ftype();
        let type_err = if want_dir && cftype == FileType::File {
            Some(FsError::NotDir)
        } else if !want_dir && cftype == FileType::Dir {
            Some(FsError::IsDir)
        } else if want_dir && !c.dir().expect("dir").is_empty() {
            Some(FsError::NotEmpty)
        } else {
            None
        };
        if let Some(e) = type_err {
            self.emit(|| Event::Lp { tid });
            self.unlock(tid, c);
            self.unlock(tid, p);
            return Err(e);
        }
        let pino = p.ino();
        p.dir().expect("checked").remove(name);
        self.emit(|| Event::Mutate {
            tid,
            mop: MicroOp::Del {
                parent: pino,
                name: name.clone(),
                child: child_ino,
            },
        });
        self.emit(|| Event::Lp { tid });
        self.unlock(tid, p);
        let traced = self.sink.is_some();
        if let Ok(f) = c.guard.as_file_mut() {
            let clear = (traced && f.size() > 0).then(|| {
                MicroOp::resize_extent(child_ino, f.size(), 0, |r| f.copy_range(&self.store, r))
            });
            f.clear(&self.store);
            if let Some(mop) = clear {
                self.emit(|| Event::Mutate { tid, mop });
            }
        }
        self.emit(|| Event::Mutate {
            tid,
            mop: MicroOp::Remove {
                ino: child_ino,
                ftype: cftype,
            },
        });
        self.unlock(tid, c);
        self.inodes.lock().remove(&child_ino);
        self.table.free(child_ino);
        Ok(())
    }

    fn rename_inner(&self, tid: Tid, src: &[String], dst: &[String]) -> FsResult<()> {
        // Minimal single-directory rename: both parents must be the root.
        let ([sn], [dn]) = (src, dst) else {
            self.emit(|| Event::Lp { tid });
            return Err(FsError::Unsupported);
        };
        let p = self
            .lock(tid, ROOT_INUM, PathTag::Common)
            .ok_or(FsError::NotFound)?;
        let dir = p.dir().expect("root is a dir");
        let guard = epoch::pin();
        let Some((snode, snode_ref)) = dir.lookup(&guard, sn) else {
            self.emit(|| Event::Lp { tid });
            self.unlock(tid, p);
            return Err(FsError::NotFound);
        };
        if dir.lookup(&guard, dn).is_some() {
            self.emit(|| Event::Lp { tid });
            self.unlock(tid, p);
            return Err(FsError::Exists);
        }
        let snode_ref = InodeRef::clone(snode_ref);
        let sguard = snode_ref.lock_owned();
        self.emit(|| Event::Lock {
            tid,
            ino: snode,
            tag: PathTag::Src,
        });
        dir.remove(sn);
        self.emit(|| Event::Mutate {
            tid,
            mop: MicroOp::Del {
                parent: ROOT_INUM,
                name: sn.clone(),
                child: snode,
            },
        });
        dir.insert(dn, &snode_ref);
        self.emit(|| Event::Mutate {
            tid,
            mop: MicroOp::Ins {
                parent: ROOT_INUM,
                name: dn.clone(),
                child: snode,
            },
        });
        self.emit(|| Event::Lp { tid });
        self.emit(|| Event::Unlock { tid, ino: snode });
        drop(sguard);
        self.unlock(tid, p);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequentially_it_behaves() {
        // Without concurrency the missing coupling is invisible.
        let fs = BypassFs::new();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        fs.mknod("/a/b/f").unwrap();
        assert!(fs.stat("/a/b/f").unwrap().ftype.is_file());
        fs.rename("/a", "/i").unwrap();
        assert!(fs.stat("/i/b/f").is_ok());
        fs.unlink("/i/b/f").unwrap();
        fs.rmdir("/i/b").unwrap();
        fs.rmdir("/i").unwrap();
    }

    #[test]
    fn unsupported_renames_are_reported() {
        let fs = BypassFs::new();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        assert_eq!(fs.rename("/a/b", "/c"), Err(FsError::Unsupported));
    }
}
