//! The optimistic (rcu-walk-style) path traversal fast path.
//!
//! A pessimistic walk serializes every traversal through the root's lock.
//! The fast path instead traverses root→target with **zero lock
//! acquisitions**, reading each directory's lock-free index
//! ([`crate::fastdir::FastDir`]) and validating with the per-inode
//! sequence counters ([`crate::table::InodeSlot`]'s seqlock): every
//! resolved step re-checks the parent's sequence number *after* reading
//! the child pointer (hand-over-hand validation), and the whole recorded
//! chain of `(inode, sequence)` pairs is re-validated at the end. Any
//! mismatch abandons the attempt; after [`MAX_OPT_ATTEMPTS`] failures the
//! operation falls back to the pessimistic lock-coupled walk, so the fast
//! path is a pure optimization — never a liveness hazard.
//!
//! The walk itself emits nothing: its reads change no state. In a traced
//! build each attempt is one event, `OptValidate { chain, locked, ok }`,
//! carrying the inode numbers the walk resolved (root first). An attempt
//! abandoned mid-walk records the prefix it reached with `ok: false`.
//!
//! # Completion modes
//!
//! * **Fully lockless** — `stat` and `readdir`, plus any operation whose
//!   outcome is already decided by the lockless walk (`ENOENT`/`ENOTDIR`
//!   on the way down, `EISDIR` at a file): read the answer from the
//!   atomically published metadata word / index, then *claim* it. The
//!   successful `OptValidate` event is the operation's linearization
//!   point — there is no separate `Lp`.
//! * **Target-locked** — `read`/`write`/`truncate` lock just the terminal
//!   file (never the directories above it) and re-validate the chain
//!   under that lock.
//! * **Parent-locked** — `mknod`/`mkdir`/`unlink`/`rmdir` use the fast
//!   path to *reach* the parent, lock only it, re-validate, and then run
//!   the same locked tail as the pessimistic path. `rename` never takes
//!   the fast path: it is the helper-mechanism case (§5.2) and keeps its
//!   full two-phase pessimistic traversal.
//!
//! # Why the claim is decided inside its stamp
//!
//! In a traced build the claim is an event with a place in the trace's
//! total order, and the CRL-H checker admits the validated chain as the
//! descriptor's LockPath witness *at that place*. The sink therefore
//! fixes the claim's place first — its stamp, or its serialising lock —
//! and only then runs the validation that decides `ok`
//! ([`atomfs_trace::TraceSink::claim`]). Sequence counters only grow, the
//! walk read them before the stamp, and the validation reads them after
//! it, so equality proves the chain unchanged *at* the stamp. The
//! checker's shadow state there agrees with it because **a directory's
//! sequence counter changes before its `Mutate` is emitted**: the
//! `Ins`/`Del` of a mutation stamped earlier on a chain directory has
//! already made that directory's counter odd (asserted at each emit site). So an
//! `OptValidate{ok:true}` is final — the claim is a lock acquire decided
//! at its own stamp, a right-mover: a rename helping it later helps an
//! operation that never takes it back, and nothing has to hold renames
//! off. Untraced builds run the same validation once, with no stamp.
//!
//! A claim that holds the chain's last node announces that lock itself
//! (`locked`), and only an `ok` claim takes it into the trace. A walker
//! on a retired directory index may hold a freed incarnation of a
//! recycled inode number, whose lock must never reach the trace; a chain
//! valid at the stamp proves every slot in it still linked, and a held
//! slot cannot be freed, so the announced number names the incarnation
//! actually locked. A refused claim releases its lock silently.
//!
//! # Why mutations probe ancestor locks and reads do not
//!
//! A mutation's linearization point comes *after* its claim (at its `Lp`,
//! under the parent lock). In that window an in-flight pessimistic
//! operation pinned on some chain ancestor — one a concurrent `rename`
//! may have already helped, i.e. logically linearized *in the past* —
//! could still be about to apply an effect our locked tail's decision
//! depends on (its sequence counters are still even: it has not mutated
//! yet). Bypassing it would reorder us after a linearization we
//! concretely preceded. The probe (`is_locked` on every strict ancestor
//! of the locked node, part of the claim's validation) forces the fast
//! path to fall back exactly when such a thread may exist, restoring the
//! non-bypassable criterion (§5.1). Fully lockless *reads* linearize at
//! the claim itself and commute with everything that linearizes later,
//! so they skip the probe — that asymmetry is what makes the read path
//! zero-cost under lock contention. Lock state is not monotone, so the
//! stamp argument above does not cover this probe.

use std::sync::atomic::{fence, Ordering};

use atomfs_obs::{Span, SpanKind};
use atomfs_trace::{Event, Inum, Tid};
use atomfs_vfs::{FileType, FsError, FsResult, Metadata};

use crate::fs::AtomFs;
use crate::table::{InodeRef, InodeSlot};
use crate::walk::Locked;

/// How many optimistic attempts an operation makes before falling back
/// to the pessimistic walk. Retries are cheap (a failed attempt holds no
/// locks), but under heavy write interference the pessimistic walk makes
/// guaranteed progress, so the bound is small.
pub(crate) const MAX_OPT_ATTEMPTS: usize = 3;

/// One optimistic walk: each resolved inode with the (even) sequence
/// number it was observed at. `chain[0]` is the root; `chain[i]` was
/// read from `chain[i-1]`'s directory index.
type Chain<'a> = Vec<(&'a InodeRef, u64)>;

/// The inode numbers of `chain`, root first: what a claim records.
fn inos(chain: &Chain<'_>) -> Vec<Inum> {
    chain.iter().map(|&(slot, _)| slot.ino()).collect()
}

/// [`inos`], lent to `f` from the stack when the chain is no deeper than
/// typical paths, so a claim allocates only in a sink that records it.
fn with_inos<R>(chain: &Chain<'_>, f: impl FnOnce(&[Inum]) -> R) -> R {
    let mut buf = [0; 16];
    match buf.get_mut(..chain.len()) {
        Some(head) => {
            for (ino, &(slot, _)) in head.iter_mut().zip(chain) {
                *ino = slot.ino();
            }
            f(head)
        }
        None => f(&inos(chain)),
    }
}

/// Re-check every recorded sequence counter. Sequence numbers are
/// recorded even (no writer inside) and only ever increase, so equality
/// means each inode's published state is exactly what the walk read.
fn validate_chain(chain: &Chain<'_>) -> bool {
    fence(Ordering::Acquire);
    chain.iter().all(|&(slot, seq)| slot.seq_read() == seq)
}

/// The mutation-only probe: no strict ancestor of the (locked) final
/// chain node may be locked by anyone (module docs). The final node is
/// excluded — the caller itself holds that lock.
fn ancestors_unlocked(chain: &Chain<'_>) -> bool {
    chain[..chain.len() - 1]
        .iter()
        .all(|&(slot, _)| !slot.is_locked())
}

impl AtomFs {
    /// One optimistic walk attempt ([`Self::opt_resolve`]). An attempt
    /// abandoned mid-walk is recorded as one refused claim of the prefix
    /// it reached, and yields `None`.
    fn opt_walk<'a>(&'a self, tid: Tid, comps: &[&str]) -> Option<(Chain<'a>, Option<FsError>)> {
        // Phase span: one optimistic walk attempt under the (sampled)
        // operation root; a mid-walk validation failure marks it failed.
        let mut sp = Span::child(SpanKind::OptWalk, "opt_resolve");
        match self.opt_resolve(comps) {
            Ok(walked) => Some(walked),
            Err(prefix) => {
                sp.fail();
                self.emit(|| Event::OptValidate {
                    tid,
                    chain: inos(&prefix),
                    locked: false,
                    ok: false,
                });
                self.count_retry();
                None
            }
        }
    }

    /// Walk `comps` locklessly from the root. Returns the observed chain
    /// plus `Some(error)` when the walk itself decided the outcome
    /// (missing entry, file used as directory), or `Err` with the prefix
    /// it reached when a hand-over-hand validation failed mid-walk.
    fn opt_resolve<'a>(
        &'a self,
        comps: &[&str],
    ) -> Result<(Chain<'a>, Option<FsError>), Chain<'a>> {
        let root = self.table.root_ref();
        let rseq = root.seq_read();
        let mut chain: Chain<'a> = Vec::with_capacity(comps.len() + 1);
        chain.push((root, rseq));
        if rseq & 1 == 1 {
            return Err(chain);
        }
        for name in comps {
            let &(cur, cur_seq) = chain.last().expect("chain starts at root");
            let Some(index) = cur.dir() else {
                // A file on the path: `ENOTDIR`, decided locklessly. The
                // slot's type never changes, so this holds whenever the
                // chain validates.
                return Ok((chain, Some(FsError::NotDir)));
            };
            match index.lookup(name) {
                None => {
                    // Missing entry: trustworthy iff `cur` hasn't changed,
                    // which the final chain validation re-checks.
                    return Ok((chain, Some(FsError::NotFound)));
                }
                Some((_, child)) => {
                    let cseq = child.seq_read();
                    // Hand-over-hand: re-check the parent *after* reading
                    // the child pointer and its sequence. An odd child
                    // sequence means a writer is mid-update in it.
                    fence(Ordering::Acquire);
                    if cseq & 1 == 1 || cur.seq_read() != cur_seq {
                        return Err(chain);
                    }
                    chain.push((child, cseq));
                }
            }
        }
        Ok((chain, None))
    }

    /// Claim a fast-path completion, decided by a validation at the
    /// claim's own order point; a `mutation` claim also requires every
    /// strict ancestor of the final chain node to be unlocked (module docs).
    ///
    /// `held` is the chain's last node, locked silently: the claim itself
    /// announces it (`locked`), and only an `ok` claim does. On refusal
    /// `held` is released silently, and the caller retries or falls back.
    fn opt_claim(
        &self,
        tid: Tid,
        chain: &Chain<'_>,
        mutation: bool,
        held: Option<Locked>,
    ) -> Result<Option<Locked>, ()> {
        let valid = || validate_chain(chain) && (!mutation || ancestors_unlocked(chain));
        let ok = match &self.sink {
            Some(sink) => with_inos(chain, |inos| sink.claim(tid, inos, held.is_some(), &valid)),
            None => valid(),
        };
        if ok {
            return Ok(held);
        }
        self.count_retry();
        if let Some(l) = held {
            self.release(l);
        }
        Err(())
    }

    #[inline]
    fn count_attempt(&self) {
        if let Some(m) = self.m() {
            m.opt_attempt();
        }
    }

    #[inline]
    fn count_hit(&self) {
        if let Some(m) = self.m() {
            m.opt_hit();
        }
    }

    #[inline]
    fn count_retry(&self) {
        if let Some(m) = self.m() {
            m.opt_retry();
        }
    }

    #[inline]
    fn count_fallback(&self) {
        if let Some(m) = self.m() {
            m.opt_fallback();
        }
    }

    /// Lockless `stat`: the answer is one atomic load of the packed
    /// metadata word.
    pub(crate) fn opt_stat(&self, tid: Tid, comps: &[&str]) -> Option<FsResult<Metadata>> {
        if !self.opt_enabled() {
            return None;
        }
        self.count_attempt();
        for _ in 0..MAX_OPT_ATTEMPTS {
            let Some((chain, end)) = self.opt_walk(tid, comps) else {
                continue;
            };
            let out = match end {
                Some(e) => Err(e),
                None => {
                    let &(target, _) = chain.last().expect("nonempty");
                    Ok(InodeSlot::metadata_of(target.ino(), target.meta_read()))
                }
            };
            if self.opt_claim(tid, &chain, false, None).is_ok() {
                self.count_hit();
                return Some(out);
            }
        }
        self.count_fallback();
        None
    }

    /// Lockless `readdir`: scan the target's lock-free index, then
    /// validate. The scan is only coherent if the directory did not
    /// change during it — which is exactly what the claim checks.
    pub(crate) fn opt_readdir(&self, tid: Tid, comps: &[&str]) -> Option<FsResult<Vec<String>>> {
        if !self.opt_enabled() {
            return None;
        }
        self.count_attempt();
        for _ in 0..MAX_OPT_ATTEMPTS {
            let Some((chain, end)) = self.opt_walk(tid, comps) else {
                continue;
            };
            let out = match end {
                Some(e) => Err(e),
                None => {
                    let &(target, _) = chain.last().expect("nonempty");
                    match target.dir() {
                        Some(index) => Ok(index.names()),
                        None => Err(FsError::NotDir),
                    }
                }
            };
            if self.opt_claim(tid, &chain, false, None).is_ok() {
                self.count_hit();
                return Some(out);
            }
        }
        self.count_fallback();
        None
    }

    /// `read` fast path: lockless walk, then lock *only* the terminal
    /// file — directories above it are never locked. The data is read
    /// under that lock before the claim, so the bytes returned are the
    /// file's content at the claim instant.
    pub(crate) fn opt_read(
        &self,
        tid: Tid,
        comps: &[&str],
        offset: u64,
        buf: &mut [u8],
    ) -> Option<FsResult<usize>> {
        if !self.opt_enabled() {
            return None;
        }
        self.count_attempt();
        for _ in 0..MAX_OPT_ATTEMPTS {
            let Some((chain, end)) = self.opt_walk(tid, comps) else {
                continue;
            };
            let lockless_err = match end {
                Some(e) => Some(e),
                None => {
                    let &(target, _) = chain.last().expect("nonempty");
                    target.dir().is_some().then_some(FsError::IsDir)
                }
            };
            if let Some(e) = lockless_err {
                if self.opt_claim(tid, &chain, false, None).is_ok() {
                    self.count_hit();
                    return Some(Err(e));
                }
                continue;
            }
            let &(target, _) = chain.last().expect("nonempty");
            let locked = self.lock_silent(target.ino(), target);
            let n = locked
                .as_file()
                .expect("dir() is None, so this slot holds a file")
                .read(&self.store, offset, buf);
            if let Ok(Some(locked)) = self.opt_claim(tid, &chain, false, Some(locked)) {
                self.unlock(tid, locked);
                self.count_hit();
                return Some(Ok(n));
            }
        }
        self.count_fallback();
        None
    }

    /// `write`/`truncate` fast path: lock the terminal file, then run
    /// `body` under the lock with a conventional `Lp`.
    pub(crate) fn opt_file_mutation<T>(
        &self,
        tid: Tid,
        comps: &[&str],
        body: &impl Fn(&AtomFs, &mut Locked) -> FsResult<T>,
    ) -> Option<FsResult<T>> {
        self.opt_mutation(tid, comps, false, |f| {
            self.finish(tid, f, |f| body(self, f))
        })
    }

    /// `mknod`/`mkdir` fast path: lock only the *parent*, then run the
    /// same locked tail as the pessimistic path.
    pub(crate) fn opt_create(
        &self,
        tid: Tid,
        parent: &[&str],
        name: &str,
        ftype: FileType,
    ) -> Option<FsResult<()>> {
        self.opt_mutation(tid, parent, true, |p| {
            self.finish(tid, p, |p| self.create_tail(tid, name, p, ftype))
        })
    }

    /// `unlink`/`rmdir` fast path: like [`Self::opt_create`], but the
    /// locked tail continues lock coupling into the victim.
    pub(crate) fn opt_remove(
        &self,
        tid: Tid,
        parent: &[&str],
        name: &str,
        want_dir: bool,
    ) -> Option<FsResult<()>> {
        self.opt_mutation(tid, parent, true, |p| {
            self.remove_tail(tid, name, p, want_dir)
        })
    }

    /// The mutation fast path: lockless walk to `comps`' last node — a
    /// directory if `dir` (a create's or remove's parent), else a file —
    /// lock only that node, claim it with the ancestor probe, and hand the
    /// lock to `tail`, which emits the `Lp` and releases. There is no
    /// admission check before the claim: the claim only admits a lock
    /// path, and the tails' `hint` refuses a quarantined range under the
    /// lock, before any mutation, as on the pessimistic path.
    fn opt_mutation<T>(
        &self,
        tid: Tid,
        comps: &[&str],
        dir: bool,
        tail: impl FnOnce(Locked) -> FsResult<T>,
    ) -> Option<FsResult<T>> {
        if !self.opt_enabled() {
            return None;
        }
        self.count_attempt();
        for _ in 0..MAX_OPT_ATTEMPTS {
            let Some((chain, end)) = self.opt_walk(tid, comps) else {
                continue;
            };
            let &(node, _) = chain.last().expect("nonempty");
            let lockless_err = end.or_else(|| match (dir, node.dir().is_some()) {
                (true, false) => Some(FsError::NotDir),
                (false, true) => Some(FsError::IsDir),
                _ => None,
            });
            if let Some(e) = lockless_err {
                if self.opt_claim(tid, &chain, false, None).is_ok() {
                    self.count_hit();
                    return Some(Err(e));
                }
                continue;
            }
            let locked = self.lock_silent(node.ino(), node);
            let Ok(Some(locked)) = self.opt_claim(tid, &chain, true, Some(locked)) else {
                continue;
            };
            self.count_hit();
            return Some(tail(locked));
        }
        self.count_fallback();
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomfs_trace::{current_tid, BufferSink, TraceSink};
    use atomfs_vfs::FileSystem;
    use std::sync::Arc;

    fn fs() -> AtomFs {
        AtomFs::new()
    }

    /// The inode linked as `/name`.
    fn root_child(fs: &AtomFs, name: &str) -> InodeRef {
        let root = fs.table.root_ref().dir().unwrap();
        InodeRef::clone(root.lookup(name).unwrap().1)
    }

    #[test]
    fn lockless_ops_resolve_without_locks() {
        let fs = fs();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        fs.mknod("/a/b/f").unwrap();
        fs.write("/a/b/f", 0, b"xyz").unwrap();
        let tid = current_tid();
        let st = fs.opt_stat(tid, &["a", "b", "f"]).expect("fast path");
        assert_eq!(st.unwrap().size, 3);
        let names = fs.opt_readdir(tid, &["a", "b"]).expect("fast path");
        assert_eq!(names.unwrap(), vec!["f".to_string()]);
        let mut buf = [0u8; 3];
        let n = fs
            .opt_read(tid, &["a", "b", "f"], 0, &mut buf)
            .expect("fast path");
        assert_eq!(n.unwrap(), 3);
        assert_eq!(&buf, b"xyz");
    }

    #[test]
    fn lockless_errors_are_decided_without_locks() {
        let fs = fs();
        fs.mkdir("/a").unwrap();
        fs.mknod("/a/f").unwrap();
        let tid = current_tid();
        assert_eq!(
            fs.opt_stat(tid, &["a", "missing"]).expect("fast path"),
            Err(FsError::NotFound)
        );
        // Walking *through* a file.
        assert_eq!(
            fs.opt_stat(tid, &["a", "f", "x"]).expect("fast path"),
            Err(FsError::NotDir)
        );
        let mut buf = [0u8; 1];
        assert_eq!(
            fs.opt_read(tid, &["a"], 0, &mut buf).expect("fast path"),
            Err(FsError::IsDir)
        );
        assert_eq!(
            fs.opt_readdir(tid, &["a", "f"]).expect("fast path"),
            Err(FsError::NotDir)
        );
    }

    #[test]
    fn fast_path_respects_config_knob() {
        let cfg = crate::AtomFsConfig {
            optimistic: false,
            ..Default::default()
        };
        let fs = AtomFs::with_config(cfg);
        fs.mkdir("/a").unwrap();
        let tid = current_tid();
        assert!(fs.opt_stat(tid, &["a"]).is_none());
        // The public interface still works via the pessimistic walk.
        assert!(fs.stat("/a").unwrap().ino > 1);
    }

    #[test]
    fn probe_forces_fallback_while_ancestor_is_locked() {
        let fs = fs();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        fs.mknod("/a/b/f").unwrap();
        let tid = current_tid();
        // Hold /a's lock (an ancestor of the mutation's parent /a/b).
        let a_ref = root_child(&fs, "a");
        let guard = a_ref.lock();
        // Mutations must refuse the fast path...
        assert!(fs
            .opt_create(tid, &["a", "b"], "g", FileType::File)
            .is_none());
        assert!(fs.opt_remove(tid, &["a", "b"], "f", false).is_none());
        // ...while lockless reads still complete (no probe, and the lock
        // holder has not touched any sequence counter).
        assert!(fs.opt_stat(tid, &["a", "b", "f"]).is_some());
        drop(guard);
        // With the lock released the mutation fast path works again.
        assert!(fs
            .opt_create(tid, &["a", "b"], "g", FileType::File)
            .is_some());
    }

    /// An attempt abandoned mid-walk is one refused claim of the prefix
    /// it reached: with `/a` inside a write window, every attempt stops
    /// at the root, and the operation falls back.
    #[test]
    fn mid_walk_failure_records_one_refusal_per_attempt() {
        let sink = Arc::new(BufferSink::new());
        let fs = AtomFs::traced(Arc::clone(&sink) as Arc<dyn TraceSink>);
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        fs.mknod("/a/b/f").unwrap();
        let a = root_child(&fs, "a");
        sink.take();
        let guard = a.lock();
        a.write_begin();
        assert!(fs.opt_stat(current_tid(), &["a", "b", "f"]).is_none());
        a.write_end(&guard);
        let refusal = Event::OptValidate {
            tid: current_tid(),
            chain: vec![atomfs_trace::ROOT_INUM],
            locked: false,
            ok: false,
        };
        assert_eq!(sink.take(), vec![refusal; MAX_OPT_ATTEMPTS]);
    }

    #[test]
    fn full_ops_still_work_end_to_end_via_fast_path() {
        let fs = fs();
        fs.mkdir("/d").unwrap();
        fs.mknod("/d/f").unwrap();
        assert_eq!(fs.write("/d/f", 0, b"hello").unwrap(), 5);
        let mut buf = [0u8; 5];
        assert_eq!(fs.read("/d/f", 0, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"hello");
        assert_eq!(fs.stat("/d/f").unwrap().size, 5);
        fs.truncate("/d/f", 2).unwrap();
        assert_eq!(fs.stat("/d/f").unwrap().size, 2);
        fs.unlink("/d/f").unwrap();
        assert_eq!(fs.stat("/d/f"), Err(FsError::NotFound));
        fs.rmdir("/d").unwrap();
        assert_eq!(fs.readdir("/").unwrap(), Vec::<String>::new());
    }
}
