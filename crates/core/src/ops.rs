//! The POSIX-like operations of AtomFS (Figure 2 of the paper, completed
//! with error handling and the data-path interfaces).
//!
//! Every operation follows the same instrumentation protocol, which is
//! what the CRL-H checker replays:
//!
//! 1. `OpBegin` with the abstract operation description;
//! 2. `Lock`/`Unlock` events for the lock-coupling walk — or one
//!    `OptValidate { chain, locked, ok }` per optimistic attempt, whose
//!    `ok: true` also announces the fast-path lock when `locked`
//!    (see the `optwalk` module);
//! 3. `Mutate` events for each inode-granularity change, emitted inside
//!    the critical section;
//! 4. exactly one `Lp` event, emitted **at the instant the outcome is
//!    decided while the deciding locks are still held** — after the last
//!    mutation for successful updates (Figure 2's LP markers), or at the
//!    failure point for errors. Fully lockless fast-path completions have
//!    no separate `Lp`: their successful `OptValidate` *is* the
//!    linearization point;
//! 5. `OpEnd` with the concrete result.
//!
//! Operations that fail before touching any shared state (unparseable
//! paths) emit no events at all: they never observe or modify the file
//! system, so they are trivially linearizable.
//!
//! `rename` is the interesting case: its traversal follows §5.2 — lock
//! couple to the last common inode of the two parent paths, hold it while
//! walking both branches, release it only once both parent directories are
//! locked, then lock target inodes (destination first, Figure 2), mutate,
//! and pass the LP at which the checker runs the `linothers` helper.
//! Renames never take the fast path: they are the helper-mechanism case
//! and keep the full two-phase pessimistic traversal.

use atomfs_obs::{Span, SpanKind};
use atomfs_trace::{current_tid, Event, MicroOp, OpDesc, OpRet, PathTag, StatRet, Tid};
use atomfs_vfs::path::normalize_ref;
use atomfs_vfs::{FileSystem, FileType, FsError, FsResult, Metadata};

use crate::epoch;
use crate::fs::AtomFs;
use crate::metrics::{FsMetrics, OpKind};
use crate::walk::Locked;

/// Materialize borrowed path components for an event payload (only built
/// inside `emit` closures, so untraced instances never allocate here).
pub(crate) fn owned(comps: &[&str]) -> Vec<String> {
    comps.iter().map(|s| s.to_string()).collect()
}

impl AtomFs {
    /// Begin a metered operation: sample-gate it and read the clock if
    /// observed (sentinel when unmetered — the value is only consumed by
    /// [`AtomFs::op_end`], which checks again), and open the operation's
    /// root span. The span is itself sampled (or joins an enclosing
    /// span, e.g. a `MeteredFs` wrapper's), so phase children recorded
    /// deeper in the walk/journal attach to this id.
    #[inline]
    fn op_start(&self, op: OpKind) -> (u64, Span) {
        let sp = Span::op_root(SpanKind::Op, op.label());
        (self.m().map_or(FsMetrics::UNTIMED, |m| m.op_begin()), sp)
    }

    /// Record a finished operation's latency and error status, and close
    /// its span.
    #[inline]
    fn op_end<T>(&self, op: OpKind, start: u64, mut span: Span, result: &FsResult<T>) {
        if result.is_err() {
            span.fail();
        }
        drop(span);
        if let Some(m) = self.m() {
            m.op_done(op, start, result.is_err());
        }
    }

    /// Emit the failure LP at the current decision point, release every
    /// held lock, and propagate the error.
    ///
    /// Takes any iterator of held locks so the common one- and two-lock
    /// failure paths pass a stack array instead of heap-allocating a
    /// `Vec` — failures are routine under the contended mixes the
    /// scalability experiments run (EEXIST/ENOENT are expected results),
    /// so this path is hot.
    pub(crate) fn fail(
        &self,
        tid: Tid,
        err: FsError,
        held: impl IntoIterator<Item = Locked>,
    ) -> FsError {
        // `ReadOnly` arises only from sink admission (a quarantined shard
        // range or a degraded mount) — an environment abort, not a result
        // this operation decided against the abstract state. There is no
        // linearization point to emit for it; the checker accepts the
        // refusal as an environment step precisely because none was.
        if err != FsError::ReadOnly {
            self.emit(|| Event::Lp { tid });
        }
        for l in held {
            self.unlock(tid, l);
        }
        err
    }

    /// Emit a stateless LP (for operations whose outcome is decided by the
    /// arguments alone, e.g. `mkdir("/")`).
    fn stateless_lp(&self, tid: Tid) {
        self.emit(|| Event::Lp { tid });
    }

    fn create_entry(&self, path: &str, ftype: FileType) -> FsResult<()> {
        let comps = normalize_ref(path)?;
        let tid = current_tid();
        self.emit(|| Event::OpBegin {
            tid,
            op: match ftype {
                FileType::File => OpDesc::Mknod {
                    path: owned(&comps),
                },
                FileType::Dir => OpDesc::Mkdir {
                    path: owned(&comps),
                },
            },
        });
        let result = self.create_inner(tid, &comps, ftype);
        self.emit(|| Event::OpEnd {
            tid,
            ret: match &result {
                Ok(()) => OpRet::Ok,
                Err(e) => OpRet::Err(*e),
            },
        });
        result
    }

    fn create_inner(&self, tid: Tid, comps: &[&str], ftype: FileType) -> FsResult<()> {
        let Some((name, parent)) = comps.split_last() else {
            // Creating "/" always fails: the root exists.
            self.stateless_lp(tid);
            return Err(FsError::Exists);
        };
        if let Some(result) = self.opt_create(tid, parent, name, ftype) {
            return result;
        }
        let p = self
            .walk(tid, parent, PathTag::Common)
            .map_err(|(e, held)| self.fail(tid, e, [held]))?;
        if p.dir().is_err() {
            return Err(self.fail(tid, FsError::NotDir, [p]));
        }
        self.finish(tid, p, |p| self.create_tail(tid, name, p, ftype))
    }

    /// The locked tail of `mknod`/`mkdir`: `p` is the locked parent
    /// directory (verified). Shared by the pessimistic walk and the
    /// optimistic fast path (which claims its validation chain before
    /// calling this). On error the caller emits the failure LP and
    /// releases `p`.
    pub(crate) fn create_tail(
        &self,
        tid: Tid,
        name: &str,
        p: &mut Locked,
        ftype: FileType,
    ) -> FsResult<()> {
        let guard = epoch::pin();
        if p.dir()
            .expect("caller verified")
            .lookup(&guard, name)
            .is_some()
        {
            return Err(FsError::Exists);
        }
        self.hint(tid, p.ino)?;
        let (ino, iref) = self.table.alloc(ftype)?;
        self.emit(|| Event::Mutate {
            tid,
            mop: MicroOp::Create { ino, ftype },
        });
        let pino = p.ino;
        let inserted = p.dir_insert(name, &iref);
        debug_assert!(inserted, "existence was checked under the same lock");
        debug_assert!(p.slot().seq_read() % 2 == 1, "seq moves before the Ins");
        self.emit(|| Event::Mutate {
            tid,
            mop: MicroOp::Ins {
                parent: pino,
                name: name.to_string(),
                child: ino,
            },
        });
        Ok(())
    }

    fn remove_entry(&self, path: &str, want_dir: bool) -> FsResult<()> {
        let comps = normalize_ref(path)?;
        let tid = current_tid();
        self.emit(|| Event::OpBegin {
            tid,
            op: if want_dir {
                OpDesc::Rmdir {
                    path: owned(&comps),
                }
            } else {
                OpDesc::Unlink {
                    path: owned(&comps),
                }
            },
        });
        let result = self.remove_inner(tid, &comps, want_dir);
        self.emit(|| Event::OpEnd {
            tid,
            ret: match &result {
                Ok(()) => OpRet::Ok,
                Err(e) => OpRet::Err(*e),
            },
        });
        result
    }

    fn remove_inner(&self, tid: Tid, comps: &[&str], want_dir: bool) -> FsResult<()> {
        let Some((name, parent)) = comps.split_last() else {
            self.stateless_lp(tid);
            return Err(if want_dir {
                FsError::Busy // rmdir("/")
            } else {
                FsError::IsDir // unlink("/")
            });
        };
        if let Some(result) = self.opt_remove(tid, parent, name, want_dir) {
            return result;
        }
        let p = self
            .walk(tid, parent, PathTag::Common)
            .map_err(|(e, held)| self.fail(tid, e, [held]))?;
        if p.dir().is_err() {
            return Err(self.fail(tid, FsError::NotDir, [p]));
        }
        self.remove_tail(tid, name, p, want_dir)
    }

    /// The locked tail of `unlink`/`rmdir`: `p` is the locked parent
    /// directory (verified). Continues lock coupling into the victim,
    /// mutates, emits the LP, and releases everything — including the
    /// failure paths (unlike [`AtomFs::create_tail`], this consumes `p`
    /// because the lock-release order interleaves with the mutations).
    pub(crate) fn remove_tail(
        &self,
        tid: Tid,
        name: &str,
        mut p: Locked,
        want_dir: bool,
    ) -> FsResult<()> {
        if let Err(e) = self.hint(tid, p.ino) {
            return Err(self.fail(tid, e, [p]));
        }
        let guard = epoch::pin();
        let Some((child_ino, child)) = p.dir().expect("caller verified").lookup(&guard, name)
        else {
            return Err(self.fail(tid, FsError::NotFound, [p]));
        };
        // Lock coupling continues into the victim (Figure 2's `lock(node)`).
        let mut c = self.lock_inode(tid, child_ino, child, PathTag::Common);
        drop(guard);
        let cftype = c.ftype();
        if want_dir && cftype == FileType::File {
            return Err(self.fail(tid, FsError::NotDir, [c, p]));
        }
        if !want_dir && cftype == FileType::Dir {
            return Err(self.fail(tid, FsError::IsDir, [c, p]));
        }
        if want_dir && !c.dir().expect("checked").is_empty() {
            return Err(self.fail(tid, FsError::NotEmpty, [c, p]));
        }
        let pino = p.ino;
        let removed = p.dir_remove(name);
        debug_assert_eq!(removed, Some(child_ino));
        debug_assert!(p.slot().seq_read() % 2 == 1, "seq moves before the Del");
        self.emit(|| Event::Mutate {
            tid,
            mop: MicroOp::Del {
                parent: pino,
                name: name.to_string(),
                child: child_ino,
            },
        });
        self.emit(|| Event::Lp { tid });
        self.unlock(tid, p);
        // Free the victim while still holding its lock, then release and
        // recycle the inode.
        self.free_victim(tid, &mut c);
        self.unlock(tid, c);
        self.table.free(child_ino);
        Ok(())
    }

    /// Free a victim that its parent no longer names — the paper's
    /// `free(node)`, shared by `unlink`/`rmdir` and `rename` over an
    /// existing destination. `v` stays locked; the caller unlocks it and
    /// recycles the inode. The clear is itself a mutation: reporting it
    /// (a `SetData` to empty for a non-empty file, before the `Remove`)
    /// keeps every recorded effect invertible, which the checker's
    /// roll-back requires.
    fn free_victim(&self, tid: Tid, v: &mut Locked) {
        let (ino, ftype) = (v.ino, v.ftype());
        let clear = match v.as_file() {
            Ok(f) if self.is_traced() && f.size() > 0 => {
                Some(MicroOp::resize_extent(ino, f.size(), 0, |r| {
                    f.copy_range(&self.store, r)
                }))
            }
            _ => None,
        };
        v.touch();
        if let Ok(f) = v.guard.as_file_mut() {
            f.clear(&self.store);
        }
        if let Some(mop) = clear {
            self.emit(|| Event::Mutate { tid, mop });
        }
        self.emit(|| Event::Mutate {
            tid,
            mop: MicroOp::Remove { ino, ftype },
        });
    }

    fn rename_inner(&self, tid: Tid, src: &[&str], dst: &[&str]) -> FsResult<()> {
        if src.is_empty() || dst.is_empty() {
            self.emit(|| Event::Lp { tid });
            return Err(FsError::Busy);
        }
        if src.len() < dst.len() && dst[..src.len()] == src[..] {
            // Renaming a directory into its own subtree.
            self.emit(|| Event::Lp { tid });
            return Err(FsError::InvalidArgument);
        }
        let dst_is_ancestor_of_src = dst.len() < src.len() && src[..dst.len()] == dst[..];
        let (sn, sp) = src.split_last().expect("nonempty");
        let (dn, dp) = dst.split_last().expect("nonempty");

        if src == dst {
            // POSIX: renaming a path to itself succeeds iff it exists.
            let p = self
                .walk(tid, sp, PathTag::Common)
                .map_err(|(e, held)| self.fail(tid, e, [held]))?;
            let exists = match p.dir() {
                Ok(d) => d.lookup(&epoch::pin(), sn).is_some(),
                Err(e) => return Err(self.fail(tid, e, [p])),
            };
            if !exists {
                return Err(self.fail(tid, FsError::NotFound, [p]));
            }
            self.emit(|| Event::Lp { tid });
            self.unlock(tid, p);
            return Ok(());
        }

        // Phase 1: lock couple to the last common inode of the parents.
        let clen = sp.iter().zip(dp.iter()).take_while(|(a, b)| a == b).count();
        let common = self
            .walk(tid, &sp[..clen], PathTag::Common)
            .map_err(|(e, held)| self.fail(tid, e, [held]))?;

        // Phase 2: walk both branches while `common` stays locked.
        let send = match self.branch_walk(tid, &common, &sp[clen..], PathTag::Src) {
            Ok(x) => x,
            Err((e, held)) => {
                let mut locks: Vec<Locked> = held.into_iter().collect();
                locks.push(common);
                return Err(self.fail(tid, e, locks));
            }
        };
        let dend = match self.branch_walk(tid, &common, &dp[clen..], PathTag::Dst) {
            Ok(x) => x,
            Err((e, held)) => {
                let mut locks: Vec<Locked> = held.into_iter().collect();
                locks.extend(send);
                locks.push(common);
                return Err(self.fail(tid, e, locks));
            }
        };

        // Phase 3: identify sdir/ddir; release `common` only once both
        // parent directories are locked (§5.2 deadlock-freedom).
        // `ddir` is `None` when source and destination share the parent.
        let (mut sdir, mut ddir): (Locked, Option<Locked>) = match (send, dend) {
            (None, None) => (common, None),
            (Some(s), None) => (s, Some(common)),
            (None, Some(d)) => (common, Some(d)),
            (Some(s), Some(d)) => {
                self.unlock(tid, common);
                (s, Some(d))
            }
        };

        macro_rules! held {
            () => {{
                let mut v = Vec::new();
                v.push(sdir);
                v.extend(ddir);
                v
            }};
        }

        if sdir.dir().is_err() || ddir.as_ref().is_some_and(|d| d.dir().is_err()) {
            return Err(self.fail(tid, FsError::NotDir, held!()));
        }
        let guard = epoch::pin();
        let Some((snode_ino, snode_ref)) = sdir.dir().expect("checked").lookup(&guard, sn) else {
            return Err(self.fail(tid, FsError::NotFound, held!()));
        };
        if dst_is_ancestor_of_src {
            // The destination is a directory on the source's own path; it
            // necessarily exists and is non-empty.
            return Err(self.fail(tid, FsError::NotEmpty, held!()));
        }
        let dnode_entry = ddir
            .as_ref()
            .unwrap_or(&sdir)
            .dir()
            .expect("checked")
            .lookup(&guard, dn);
        if dnode_entry.is_some_and(|(ino, _)| ino == snode_ino) {
            // Same inode under both names (only possible with hard links,
            // which AtomFS does not support; kept for POSIX conformance).
            self.emit(|| Event::Lp { tid });
            for l in held!() {
                self.unlock(tid, l);
            }
            return Ok(());
        }

        // Phase 4: lock destination victim then source node (Figure 2).
        let dnode = dnode_entry.map(|(ino, r)| self.lock_inode(tid, ino, r, PathTag::Dst));
        let snode = self.lock_inode(tid, snode_ino, snode_ref, PathTag::Src);

        let s_is_dir = snode.ftype().is_dir();
        if let Some(d) = &dnode {
            let d_is_dir = d.ftype().is_dir();
            let err = if s_is_dir && !d_is_dir {
                Some(FsError::NotDir)
            } else if !s_is_dir && d_is_dir {
                Some(FsError::IsDir)
            } else if d_is_dir && !d.dir().expect("checked").is_empty() {
                Some(FsError::NotEmpty)
            } else {
                None
            };
            if let Some(e) = err {
                let mut locks = vec![snode];
                locks.extend(dnode);
                locks.push(sdir);
                locks.extend(ddir);
                return Err(self.fail(tid, e, locks));
            }
        }

        // Phase 5: mutate. All touched inodes are locked, so the
        // abstraction relation is relaxed until the unlocks below.
        let sdir_ino = sdir.ino;
        let ddir_ino = ddir.as_ref().map(|d| d.ino).unwrap_or(sdir_ino);
        // A sharded journal routes the whole rename to the source parent's
        // shard (the destination shard only receives the seal record) —
        // but *both* parents' shards must be live: the destination shard
        // gets the seal, and a rename admitted over a quarantined
        // destination could never close its intent.
        if let Err(e) = self.admit(ddir_ino).and_then(|()| self.hint(tid, sdir_ino)) {
            let mut locks = vec![snode];
            locks.extend(dnode);
            locks.push(sdir);
            locks.extend(ddir);
            return Err(self.fail(tid, e, locks));
        }
        let mut dnode_freed = None;
        if let Some(mut d) = dnode {
            let removed = ddir.as_mut().unwrap_or(&mut sdir).dir_remove(dn);
            debug_assert_eq!(removed, Some(d.ino));
            debug_assert!(ddir.as_ref().unwrap_or(&sdir).slot().seq_read() % 2 == 1);
            self.emit(|| Event::Mutate {
                tid,
                mop: MicroOp::Del {
                    parent: ddir_ino,
                    name: dn.to_string(),
                    child: d.ino,
                },
            });
            self.free_victim(tid, &mut d);
            dnode_freed = Some(d);
        }
        let removed = sdir.dir_remove(sn);
        debug_assert_eq!(removed, Some(snode_ino));
        debug_assert!(sdir.slot().seq_read() % 2 == 1);
        self.emit(|| Event::Mutate {
            tid,
            mop: MicroOp::Del {
                parent: sdir_ino,
                name: sn.to_string(),
                child: snode_ino,
            },
        });
        let inserted = ddir
            .as_mut()
            .unwrap_or(&mut sdir)
            .dir_insert(dn, snode.slot());
        debug_assert!(inserted, "destination entry was removed or absent");
        debug_assert!(ddir.as_ref().unwrap_or(&sdir).slot().seq_read() % 2 == 1);
        self.emit(|| Event::Mutate {
            tid,
            mop: MicroOp::Ins {
                parent: ddir_ino,
                name: dn.to_string(),
                child: snode_ino,
            },
        });

        // The LP: here the checker runs `linothers`, helping every thread
        // whose traversed path this rename just broke (§3.4).
        self.emit(|| Event::Lp { tid });

        // Phase 6: release (Figure 2's unlock order), then free the victim.
        self.unlock(tid, snode);
        self.unlock(tid, sdir);
        if let Some(d) = ddir {
            self.unlock(tid, d);
        }
        if let Some(d) = dnode_freed {
            let dino = d.ino;
            self.unlock(tid, d);
            self.table.free(dino);
        }
        Ok(())
    }

    /// Walk the full path and apply `f` to the locked final inode; emits
    /// the LP after `f` decides the outcome.
    fn with_node<T>(
        &self,
        tid: Tid,
        comps: &[&str],
        f: impl FnOnce(&mut Locked) -> FsResult<T>,
    ) -> FsResult<T> {
        let node = self
            .walk(tid, comps, PathTag::Common)
            .map_err(|(e, held)| self.fail(tid, e, [held]))?;
        self.finish(tid, node, f)
    }

    /// Apply `f` to the locked `node`, emit the LP at the outcome it
    /// decides, and release (through [`AtomFs::fail`] on error).
    pub(crate) fn finish<T>(
        &self,
        tid: Tid,
        mut node: Locked,
        f: impl FnOnce(&mut Locked) -> FsResult<T>,
    ) -> FsResult<T> {
        match f(&mut node) {
            Ok(v) => {
                self.emit(|| Event::Lp { tid });
                self.unlock(tid, node);
                Ok(v)
            }
            Err(e) => Err(self.fail(tid, e, [node])),
        }
    }
}

impl FileSystem for AtomFs {
    fn name(&self) -> &'static str {
        "atomfs"
    }

    fn mknod(&self, path: &str) -> FsResult<()> {
        let (t0, sp) = self.op_start(OpKind::Mknod);
        let result = self.create_entry(path, FileType::File);
        self.op_end(OpKind::Mknod, t0, sp, &result);
        result
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        let (t0, sp) = self.op_start(OpKind::Mkdir);
        let result = self.create_entry(path, FileType::Dir);
        self.op_end(OpKind::Mkdir, t0, sp, &result);
        result
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        let (t0, sp) = self.op_start(OpKind::Unlink);
        let result = self.remove_entry(path, false);
        self.op_end(OpKind::Unlink, t0, sp, &result);
        result
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        let (t0, sp) = self.op_start(OpKind::Rmdir);
        let result = self.remove_entry(path, true);
        self.op_end(OpKind::Rmdir, t0, sp, &result);
        result
    }

    fn rename(&self, src: &str, dst: &str) -> FsResult<()> {
        let (t0, sp) = self.op_start(OpKind::Rename);
        let result = self.rename_outer(src, dst);
        self.op_end(OpKind::Rename, t0, sp, &result);
        result
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        let (t0, sp) = self.op_start(OpKind::Stat);
        let result = self.stat_outer(path);
        self.op_end(OpKind::Stat, t0, sp, &result);
        result
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        let (t0, sp) = self.op_start(OpKind::Readdir);
        let result = self.readdir_outer(path);
        self.op_end(OpKind::Readdir, t0, sp, &result);
        result
    }

    fn read(&self, path: &str, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        let (t0, sp) = self.op_start(OpKind::Read);
        let result = self.read_outer(path, offset, buf);
        self.op_end(OpKind::Read, t0, sp, &result);
        result
    }

    fn write(&self, path: &str, offset: u64, data: &[u8]) -> FsResult<usize> {
        let (t0, sp) = self.op_start(OpKind::Write);
        let result = self.write_outer(path, offset, data);
        self.op_end(OpKind::Write, t0, sp, &result);
        result
    }

    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        let (t0, sp) = self.op_start(OpKind::Truncate);
        let result = self.truncate_outer(path, size);
        self.op_end(OpKind::Truncate, t0, sp, &result);
        result
    }
}

/// The trace-emitting operation bodies, unchanged by the metrics layer:
/// the `FileSystem` impl above wraps each in one latency timer.
impl AtomFs {
    fn rename_outer(&self, src: &str, dst: &str) -> FsResult<()> {
        let src = normalize_ref(src)?;
        let dst = normalize_ref(dst)?;
        let tid = current_tid();
        self.emit(|| Event::OpBegin {
            tid,
            op: OpDesc::Rename {
                src: owned(&src),
                dst: owned(&dst),
            },
        });
        let result = self.rename_inner(tid, &src, &dst);
        self.emit(|| Event::OpEnd {
            tid,
            ret: match &result {
                Ok(()) => OpRet::Ok,
                Err(e) => OpRet::Err(*e),
            },
        });
        result
    }

    fn stat_outer(&self, path: &str) -> FsResult<Metadata> {
        let comps = normalize_ref(path)?;
        let tid = current_tid();
        self.emit(|| Event::OpBegin {
            tid,
            op: OpDesc::Stat {
                path: owned(&comps),
            },
        });
        let result = match self.opt_stat(tid, &comps) {
            Some(r) => r,
            None => self.with_node(tid, &comps, |node| Ok(node.slot().metadata(&node.guard))),
        };
        self.emit(|| Event::OpEnd {
            tid,
            ret: match &result {
                Ok(m) => OpRet::Stat(StatRet::from_metadata(m)),
                Err(e) => OpRet::Err(*e),
            },
        });
        result
    }

    fn readdir_outer(&self, path: &str) -> FsResult<Vec<String>> {
        let comps = normalize_ref(path)?;
        let tid = current_tid();
        self.emit(|| Event::OpBegin {
            tid,
            op: OpDesc::Readdir {
                path: owned(&comps),
            },
        });
        let result = match self.opt_readdir(tid, &comps) {
            Some(r) => r,
            None => self.with_node(tid, &comps, |node| Ok(node.dir()?.names())),
        };
        self.emit(|| Event::OpEnd {
            tid,
            ret: match &result {
                Ok(names) => OpRet::names(names.clone()),
                Err(e) => OpRet::Err(*e),
            },
        });
        result
    }

    fn read_outer(&self, path: &str, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        let comps = normalize_ref(path)?;
        let tid = current_tid();
        self.emit(|| Event::OpBegin {
            tid,
            op: OpDesc::Read {
                path: owned(&comps),
                offset,
                len: buf.len(),
            },
        });
        let result = match self.opt_read(tid, &comps, offset, buf) {
            Some(r) => r,
            None => self.with_node(tid, &comps, |node| {
                let f = node.as_file()?;
                Ok(f.read(&self.store, offset, buf))
            }),
        };
        self.emit(|| Event::OpEnd {
            tid,
            ret: match &result {
                Ok(n) => OpRet::Data(buf[..*n].to_vec()),
                Err(e) => OpRet::Err(*e),
            },
        });
        result
    }

    fn write_outer(&self, path: &str, offset: u64, data: &[u8]) -> FsResult<usize> {
        let comps = normalize_ref(path)?;
        let tid = current_tid();
        self.emit(|| Event::OpBegin {
            tid,
            op: OpDesc::Write {
                path: owned(&comps),
                offset,
                data: data.to_vec(),
            },
        });
        let traced = self.is_traced();
        let body = |fs: &AtomFs, node: &mut Locked| {
            let ino = node.ino;
            let f = node.as_file_mut()?;
            fs.hint(tid, ino)?;
            let extent = traced.then(|| {
                MicroOp::write_extent(ino, f.size(), offset, data, |r| f.copy_range(&fs.store, r))
            });
            let n = f.write(&fs.store, offset, data)?;
            if let Some(mop) = extent {
                fs.emit(|| Event::Mutate { tid, mop });
            }
            Ok(n)
        };
        let result = match self.opt_file_mutation(tid, &comps, &body) {
            Some(r) => r,
            None => self.with_node(tid, &comps, |node| body(self, node)),
        };
        self.emit(|| Event::OpEnd {
            tid,
            ret: match &result {
                Ok(n) => OpRet::Written(*n),
                Err(e) => OpRet::Err(*e),
            },
        });
        result
    }

    fn truncate_outer(&self, path: &str, size: u64) -> FsResult<()> {
        let comps = normalize_ref(path)?;
        let tid = current_tid();
        self.emit(|| Event::OpBegin {
            tid,
            op: OpDesc::Truncate {
                path: owned(&comps),
                size,
            },
        });
        let traced = self.is_traced();
        let body = |fs: &AtomFs, node: &mut Locked| {
            let ino = node.ino;
            let f = node.as_file_mut()?;
            fs.hint(tid, ino)?;
            let extent = traced.then(|| {
                MicroOp::resize_extent(ino, f.size(), size, |r| f.copy_range(&fs.store, r))
            });
            f.truncate(&fs.store, size)?;
            if let Some(mop) = extent {
                fs.emit(|| Event::Mutate { tid, mop });
            }
            Ok(())
        };
        let result = match self.opt_file_mutation(tid, &comps, &body) {
            Some(r) => r,
            None => self.with_node(tid, &comps, |node| body(self, node)),
        };
        self.emit(|| Event::OpEnd {
            tid,
            ret: match &result {
                Ok(()) => OpRet::Ok,
                Err(e) => OpRet::Err(*e),
            },
        });
        result
    }
}
