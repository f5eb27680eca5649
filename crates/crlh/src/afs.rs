//! Abstract operations (Aops) — the relational specifications of Figure 6.
//!
//! Each file system operation has one atomic specification over the
//! abstract state: a precondition deciding success, the successful state
//! transition, and the return value. The paper writes these as relations
//! (`mkdirSpec : AFS -> Args -> AFS -> Ret -> Prop`); here they are
//! executable functions whose *decision order matches the concrete AtomFS
//! implementation exactly*, so that an operation linearized at its LP
//! computes the same result (including the same errno) as the concrete
//! code — the return-value obligation of the simulation proof.
//!
//! A spec reads the state through [`StateView`] and reports the
//! transition it decides on, one inode-granularity effect at a time, to a
//! sink that owns that state. Every caller runs the same spec; only the
//! sink differs:
//!
//! * [`apply_aop`], the checker's step, records the effects as the list of
//!   invertible [`MicroOp`]s that roll-back undoes, then applies them
//!   through [`FsState::apply_micro`], which detects diverged levels;
//! * [`step`], a sequential file system's step, edits the state in place;
//! * [`decide`], a claim's decision, notes only whether any effect was
//!   reported.
//!
//! A `stat`, `readdir` or `read` reports no effect: it hands back what it
//! read ([`read`] into the caller's buffer).
//!
//! Inode allocation is delegated to the checker through a callback: for
//! an operation linearized at its *own* LP the checker passes the inode
//! number its concrete `Create` already used, while for a *helped*
//! operation (linearized before its concrete mutations exist) the checker
//! mints a provisional id and binds it when the concrete `Create` arrives.

use std::borrow::Cow;

use atomfs_trace::{Inum, MicroOp, OpDesc, OpRet, StatRet};
use atomfs_vfs::{FileType, FsError};

use crate::state::{FsState, Node, StateView};

/// The maximum file size shared with the concrete AtomFS
/// (`atomfs::blocks::MAX_FILE_SIZE` = 16384 × 4096 bytes). An
/// integration test asserts the two constants agree.
///
/// Note: the abstract state is otherwise *unbounded* — it models no
/// inode-table or block-store capacity, so `ENOSPC` never occurs
/// abstractly. Checked (traced) file system instances must therefore be
/// built with the default (effectively unlimited) capacities; tracing a
/// capacity-limited instance to exhaustion would surface concrete
/// `ENOSPC` results as `ReturnMismatch` verdicts.
pub const MAX_FILE_SIZE: u64 = 16 * 1024 * 4096;

/// Apply the abstract operation `op` to `state`.
///
/// On success the returned effects have been applied to `state` (in
/// order); on failure `state` is unchanged and the effect list is empty.
/// `alloc` provides the id for each inode the operation creates.
///
/// The third component is normally `None`; it reports the (first)
/// micro-effect that could not be applied, which can only happen when a
/// caller-provided id collides with live abstract state — i.e. when the
/// checker is replaying a trace whose levels have already diverged (a
/// deliberately broken file system). The abstract state is then left at
/// the point of divergence and the caller reports a violation.
pub fn apply_aop(
    state: &mut FsState,
    op: &OpDesc,
    alloc: &mut dyn FnMut(FileType) -> Inum,
) -> (Vec<MicroOp>, OpRet, Option<crate::state::StateError>) {
    let mut rec = Record {
        state: &*state,
        alloc,
        effects: Vec::new(),
    };
    let ret = run(&mut rec, op);
    let effects = rec.effects;
    for e in &effects {
        if let Err(err) = state.apply_micro(e) {
            return (effects, ret, Some(err));
        }
    }
    (effects, ret, None)
}

/// Decide `op` against `state` without applying it: its return value,
/// and whether it would change the state. Reads only the nodes the
/// operation's paths name, so a view rolled back to concrete time
/// serves as well as the abstract state itself.
pub fn decide<S: StateView + ?Sized>(state: &S, op: &OpDesc) -> (OpRet, bool) {
    let mut fx = Discard(state, false);
    let ret = run(&mut fx, op);
    (ret, fx.1)
}

/// Run `op` on `state` as one step of a sequential file system: the
/// specification executed directly, with no checker around it. A created
/// inode takes the next unused id; no file's bytes are copied. The state
/// and the result are those [`apply_aop`] leaves and returns.
pub fn step(state: &mut FsState, op: &OpDesc) -> OpRet {
    run(&mut Apply(state), op)
}

/// [`step`] for a `Write` of bytes the caller lends: the count written.
pub fn write(
    state: &mut FsState,
    path: &[String],
    offset: u64,
    data: &[u8],
) -> Result<usize, FsError> {
    edit_spec(&mut Apply(state), path, Edit::write(offset, data)).map(|()| data.len())
}

/// [`decide`] for a `Read` into the caller's `buf`: the count read.
pub fn read<S: StateView + ?Sized>(
    state: &S,
    path: &[String],
    offset: u64,
    buf: &mut [u8],
) -> Result<usize, FsError> {
    read_spec(state, path, offset, buf.len(), |bytes| {
        buf[..bytes.len()].copy_from_slice(bytes);
        bytes.len()
    })
}

/// The smallest id above every live inode. One operation creates at
/// most one inode, so it is fresh for the whole operation.
fn fresh_id(state: &FsState) -> Inum {
    state.map.keys().next_back().map_or(state.root, |&id| id) + 1
}

/// Write `data` into a file's bytes `f` at `offset`, zero-filling any
/// hole, and return the count written. An empty write returns 0 and
/// changes nothing (the concrete write returns early); a write ending
/// past [`MAX_FILE_SIZE`], or past `u64::MAX`, is `EFBIG` and changes
/// nothing.
pub fn write_bytes(f: &mut Vec<u8>, offset: u64, data: &[u8]) -> Result<usize, FsError> {
    if let Some(edit) = Edit::write(offset, data)? {
        edit.apply(f);
    }
    Ok(data.len())
}

/// Resize a file's bytes `f` to `size`, zero-filling growth. A size past
/// [`MAX_FILE_SIZE`] is `EFBIG` and changes nothing.
pub fn truncate_bytes(f: &mut Vec<u8>, size: u64) -> Result<(), FsError> {
    Edit::truncate(size)?.apply(f);
    Ok(())
}

/// An edit of a file's bytes that a spec has decided on.
enum Edit<'a> {
    /// Write non-empty bytes at an offset, zero-filling any hole.
    Write(usize, &'a [u8]),
    /// Resize, zero-filling growth.
    Truncate(usize),
}

impl<'a> Edit<'a> {
    /// The edit a write of `data` at `offset` makes: none for an empty
    /// write, `EFBIG` for one ending past [`MAX_FILE_SIZE`] or `u64::MAX`.
    fn write(offset: u64, data: &'a [u8]) -> Result<Option<Self>, FsError> {
        match offset.checked_add(data.len() as u64) {
            _ if data.is_empty() => Ok(None),
            Some(end) if end <= MAX_FILE_SIZE => Ok(Some(Edit::Write(offset as usize, data))),
            _ => Err(FsError::FileTooBig),
        }
    }

    /// The edit a truncate to `size` makes: `EFBIG` past
    /// [`MAX_FILE_SIZE`].
    fn truncate(size: u64) -> Result<Self, FsError> {
        if size > MAX_FILE_SIZE {
            return Err(FsError::FileTooBig);
        }
        Ok(Edit::Truncate(size as usize))
    }

    fn apply(self, f: &mut Vec<u8>) {
        match self {
            Edit::Write(at, data) => {
                let end = at + data.len();
                if f.len() < end {
                    f.resize(end, 0);
                }
                f[at..end].copy_from_slice(data);
            }
            Edit::Truncate(size) => f.resize(size, 0),
        }
    }

    /// This edit of file `ino`, whose bytes are `f`, as the extent that
    /// records it.
    fn extent(self, ino: Inum, f: &[u8]) -> MicroOp {
        let read = |r: std::ops::Range<u64>| f[r.start as usize..r.end as usize].to_vec();
        let len = f.len() as u64;
        match self {
            Edit::Write(at, data) => MicroOp::write_extent(ino, len, at as u64, data, read),
            Edit::Truncate(size) => MicroOp::resize_extent(ino, len, size as u64, read),
        }
    }
}

/// One effect of a transition, as a spec reports it to its sink.
enum Effect<'a> {
    /// Link a child into a directory: `(dir, name, child)`.
    Ins(Inum, &'a str, Inum),
    /// Unlink a name, which names the child, from a directory.
    Del(Inum, &'a str, Inum),
    /// Remove an unlinked inode, emptying it first if it is a non-empty
    /// file.
    Remove(Inum),
    /// Edit a file's bytes.
    Edit(Inum, Edit<'a>),
}

/// Where a spec reports the transition it decided on. The sink owns the
/// state the spec reads, and a spec reports only after its last read and
/// only on success, so every report is made against the state it was
/// decided on.
trait Effects {
    type View: StateView + ?Sized;

    /// The state the spec decides on.
    fn view(&self) -> &Self::View;

    /// Create an empty inode of type `ftype`; returns its id.
    fn create(&mut self, ftype: FileType) -> Inum;

    /// Make one effect on inodes that exist.
    fn report(&mut self, effect: Effect<'_>);
}

/// The checker's sink: the effects as invertible micro-ops, left for
/// [`apply_aop`] to apply. A non-empty file is emptied by a `SetData`
/// before its `Remove`, matching the concrete trace protocol.
struct Record<'a> {
    state: &'a FsState,
    alloc: &'a mut dyn FnMut(FileType) -> Inum,
    effects: Vec<MicroOp>,
}

impl Effects for Record<'_> {
    type View = FsState;

    fn view(&self) -> &FsState {
        self.state
    }

    fn create(&mut self, ftype: FileType) -> Inum {
        let ino = (self.alloc)(ftype);
        self.effects.push(MicroOp::Create { ino, ftype });
        ino
    }

    fn report(&mut self, effect: Effect<'_>) {
        let node = |ino| self.state.node(ino).expect("the spec read it");
        let op = match effect {
            Effect::Ins(parent, name, child) => MicroOp::Ins {
                parent,
                name: name.to_owned(),
                child,
            },
            Effect::Del(parent, name, child) => MicroOp::Del {
                parent,
                name: name.to_owned(),
                child,
            },
            Effect::Remove(ino) => {
                if let Some(f) = node(ino).as_file().filter(|f| !f.is_empty()) {
                    self.effects.push(Edit::Truncate(0).extent(ino, f));
                }
                let ftype = node(ino).ftype();
                MicroOp::Remove { ino, ftype }
            }
            Effect::Edit(ino, edit) => {
                edit.extent(ino, node(ino).as_file().expect("the spec read a file"))
            }
        };
        self.effects.push(op);
    }
}

/// The sequential sink: each effect edits the state in place, and a
/// created inode takes [`fresh_id`].
struct Apply<'a>(&'a mut FsState);

impl Effects for Apply<'_> {
    type View = FsState;

    fn view(&self) -> &FsState {
        self.0
    }

    fn create(&mut self, ftype: FileType) -> Inum {
        let ino = fresh_id(self.0);
        self.0.map.insert(ino, Node::new(ftype));
        ino
    }

    fn report(&mut self, effect: Effect<'_>) {
        let map = &mut self.0.map;
        match effect {
            Effect::Ins(dir, name, child) => {
                let Some(Node::Dir(d)) = map.get_mut(&dir) else {
                    unreachable!("the spec resolved a directory")
                };
                d.insert(name.to_owned(), child);
            }
            Effect::Del(dir, name, _) => {
                let Some(Node::Dir(d)) = map.get_mut(&dir) else {
                    unreachable!("the spec resolved a directory")
                };
                d.remove(name);
            }
            Effect::Remove(ino) => drop(map.remove(&ino)),
            Effect::Edit(ino, edit) => {
                let Some(Node::File(f)) = map.get_mut(&ino) else {
                    unreachable!("the spec resolved a file")
                };
                edit.apply(f);
            }
        }
    }
}

/// The claim sink over a view: whether the spec reported any effect.
struct Discard<'a, S: ?Sized>(&'a S, bool);

impl<S: StateView + ?Sized> Effects for Discard<'_, S> {
    type View = S;

    fn view(&self) -> &S {
        self.0
    }

    fn create(&mut self, _: FileType) -> Inum {
        self.1 = true;
        0
    }

    fn report(&mut self, _: Effect<'_>) {
        self.1 = true;
    }
}

/// Resolve the parent components with walk semantics, then return the
/// parent id if it is a directory.
fn walk_dir<S: StateView + ?Sized>(state: &S, comps: &[String]) -> Result<Inum, FsError> {
    let id = state.walk(comps)?;
    is_dir(state, id).then_some(id).ok_or(FsError::NotDir)
}

fn is_dir<S: StateView + ?Sized>(state: &S, id: Inum) -> bool {
    matches!(state.get(id).as_deref(), Some(Node::Dir(_)))
}

fn lookup<S: StateView + ?Sized>(state: &S, dir: Inum, name: &str) -> Option<Inum> {
    let node = state.get(dir)?;
    node.as_dir().and_then(|d| d.get(name).copied())
}

/// Run the spec of `op`, reporting its effects to `fx`. A node a walk
/// reached but the state cannot produce (a dangling link, or a node whose
/// roll-back failed) decides `ENOENT`; the caller diagnoses the state.
fn run<E: Effects>(fx: &mut E, op: &OpDesc) -> OpRet {
    let ret = match op {
        OpDesc::Mknod { path } => create_spec(fx, path, FileType::File),
        OpDesc::Mkdir { path } => create_spec(fx, path, FileType::Dir),
        OpDesc::Unlink { path } => remove_spec(fx, path, false),
        OpDesc::Rmdir { path } => remove_spec(fx, path, true),
        OpDesc::Rename { src, dst } => rename_spec(fx, src, dst),
        OpDesc::Stat { path } => stat_spec(fx.view(), path).map(OpRet::Stat),
        OpDesc::Readdir { path } => readdir_spec(fx.view(), path).map(OpRet::names),
        OpDesc::Read { path, offset, len } => {
            read_spec(fx.view(), path, *offset, *len, <[u8]>::to_vec).map(OpRet::Data)
        }
        OpDesc::Write { path, offset, data } => {
            edit_spec(fx, path, Edit::write(*offset, data)).map(|()| OpRet::Written(data.len()))
        }
        OpDesc::Truncate { path, size } => {
            edit_spec(fx, path, Edit::truncate(*size).map(Some)).map(|()| OpRet::Ok)
        }
    };
    ret.unwrap_or_else(OpRet::Err)
}

/// Walk `comps` and fetch the node reached.
fn resolve_node<'s, S: StateView + ?Sized>(
    state: &'s S,
    comps: &[String],
) -> Result<(Inum, Cow<'s, Node>), FsError> {
    let id = state.walk(comps)?;
    let node = state.get(id).ok_or(FsError::NotFound)?;
    Ok((id, node))
}

fn create_spec<E: Effects>(fx: &mut E, comps: &[String], ft: FileType) -> Result<OpRet, FsError> {
    let (name, parent) = comps.split_last().ok_or(FsError::Exists)?; // creating "/"
    let pid = walk_dir(fx.view(), parent)?;
    if lookup(fx.view(), pid, name).is_some() {
        return Err(FsError::Exists);
    }
    let ino = fx.create(ft);
    fx.report(Effect::Ins(pid, name, ino));
    Ok(OpRet::Ok)
}

fn remove_spec<E: Effects>(fx: &mut E, comps: &[String], want_dir: bool) -> Result<OpRet, FsError> {
    let Some((name, parent)) = comps.split_last() else {
        return Err(if want_dir {
            FsError::Busy
        } else {
            FsError::IsDir
        });
    };
    let state = fx.view();
    let pid = walk_dir(state, parent)?;
    let child = lookup(state, pid, name).ok_or(FsError::NotFound)?;
    match state.get(child).as_deref() {
        None => return Err(FsError::NotFound),
        Some(Node::File(_)) if want_dir => return Err(FsError::NotDir),
        Some(Node::Dir(_)) if !want_dir => return Err(FsError::IsDir),
        Some(Node::Dir(d)) if !d.is_empty() => return Err(FsError::NotEmpty),
        Some(_) => {}
    }
    fx.report(Effect::Del(pid, name, child));
    fx.report(Effect::Remove(child));
    Ok(OpRet::Ok)
}

fn rename_spec<E: Effects>(fx: &mut E, src: &[String], dst: &[String]) -> Result<OpRet, FsError> {
    if src.is_empty() || dst.is_empty() {
        return Err(FsError::Busy);
    }
    if src.len() < dst.len() && dst[..src.len()] == src[..] {
        return Err(FsError::InvalidArgument);
    }
    let dst_is_ancestor_of_src = dst.len() < src.len() && src[..dst.len()] == dst[..];
    let (sn, sp) = src.split_last().expect("nonempty");
    let (dn, dp) = dst.split_last().expect("nonempty");
    let state = fx.view();

    if src == dst {
        let pid = walk_dir(state, sp)?;
        lookup(state, pid, sn).ok_or(FsError::NotFound)?;
        return Ok(OpRet::Ok);
    }

    // The concrete traversal resolves the common prefix, then the source
    // branch, then the destination branch; errors surface in that order.
    let clen = sp.iter().zip(dp.iter()).take_while(|(a, b)| a == b).count();
    let common = state.walk(&sp[..clen])?;
    let branch = |start: Inum, comps: &[String]| -> Result<Inum, FsError> {
        let mut cur = start;
        for name in comps {
            let node = state.get(cur);
            let dir = node.as_deref().and_then(Node::as_dir);
            cur = *dir
                .ok_or(FsError::NotDir)?
                .get(name)
                .ok_or(FsError::NotFound)?;
        }
        Ok(cur)
    };
    let sdir = branch(common, &sp[clen..])?;
    let ddir = branch(common, &dp[clen..])?;
    if !is_dir(state, sdir) || !is_dir(state, ddir) {
        return Err(FsError::NotDir);
    }
    let snode = lookup(state, sdir, sn).ok_or(FsError::NotFound)?;
    if dst_is_ancestor_of_src {
        return Err(FsError::NotEmpty);
    }
    let dnode = lookup(state, ddir, dn);
    if dnode == Some(snode) {
        return Ok(OpRet::Ok);
    }
    let s_is_dir = state.get(snode).ok_or(FsError::NotFound)?.ftype().is_dir();
    if let Some(d) = dnode {
        let dn_node = state.get(d).ok_or(FsError::NotFound)?;
        let d_is_dir = dn_node.ftype().is_dir();
        if s_is_dir && !d_is_dir {
            return Err(FsError::NotDir);
        }
        if !s_is_dir && d_is_dir {
            return Err(FsError::IsDir);
        }
        if d_is_dir && !dn_node.as_dir().expect("dir").is_empty() {
            return Err(FsError::NotEmpty);
        }
        fx.report(Effect::Del(ddir, dn, d));
        fx.report(Effect::Remove(d));
    }
    fx.report(Effect::Del(sdir, sn, snode));
    fx.report(Effect::Ins(ddir, dn, snode));
    Ok(OpRet::Ok)
}

fn stat_spec<S: StateView + ?Sized>(state: &S, comps: &[String]) -> Result<StatRet, FsError> {
    let (is_dir, size) = match &*resolve_node(state, comps)?.1 {
        Node::File(f) => (false, f.len() as u64),
        Node::Dir(d) => (true, d.len() as u64),
    };
    Ok(StatRet { is_dir, size })
}

fn readdir_spec<S: StateView + ?Sized>(
    state: &S,
    comps: &[String],
) -> Result<Vec<String>, FsError> {
    match &*resolve_node(state, comps)?.1 {
        Node::Dir(d) => Ok(d.keys().cloned().collect()),
        Node::File(_) => Err(FsError::NotDir),
    }
}

/// A `Read` of up to `len` bytes at `offset`, handed to `out` where the
/// file holds them.
fn read_spec<S: StateView + ?Sized, R>(
    state: &S,
    comps: &[String],
    offset: u64,
    len: usize,
    out: impl FnOnce(&[u8]) -> R,
) -> Result<R, FsError> {
    match &*resolve_node(state, comps)?.1 {
        Node::File(f) => {
            let start = (offset as usize).min(f.len());
            Ok(out(&f[start..start + len.min(f.len() - start)]))
        }
        Node::Dir(_) => Err(FsError::IsDir),
    }
}

/// A `Write` or `Truncate` of the file at `comps`, making `edit`. A
/// walk error or `EISDIR` comes before the edit's own error (`EFBIG`).
fn edit_spec<E: Effects>(
    fx: &mut E,
    comps: &[String],
    edit: Result<Option<Edit<'_>>, FsError>,
) -> Result<(), FsError> {
    let ino = match resolve_node(fx.view(), comps)? {
        (ino, node) if matches!(*node, Node::File(_)) => ino,
        _ => return Err(FsError::IsDir),
    };
    if let Some(edit) = edit? {
        fx.report(Effect::Edit(ino, edit));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomfs_trace::ROOT_INUM;
    use atomfs_vfs::rng::check_seeds;
    use atomfs_vfs::SplitMix64;

    fn comps(s: &[&str]) -> Vec<String> {
        s.iter().map(|c| c.to_string()).collect()
    }

    fn fresh_alloc() -> impl FnMut(FileType) -> Inum {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(100);
        move |_| NEXT.fetch_add(1, Ordering::Relaxed)
    }

    fn apply(state: &mut FsState, op: OpDesc) -> OpRet {
        let mut alloc = fresh_alloc();
        apply_aop(state, &op, &mut alloc).1
    }

    #[test]
    fn mkdir_then_stat() {
        let mut s = FsState::new();
        assert_eq!(
            apply(
                &mut s,
                OpDesc::Mkdir {
                    path: comps(&["a"])
                }
            ),
            OpRet::Ok
        );
        assert_eq!(
            apply(
                &mut s,
                OpDesc::Stat {
                    path: comps(&["a"])
                }
            ),
            OpRet::Stat(StatRet {
                is_dir: true,
                size: 0
            })
        );
    }

    #[test]
    fn failures_leave_state_unchanged() {
        let mut s = FsState::new();
        apply(
            &mut s,
            OpDesc::Mkdir {
                path: comps(&["a"]),
            },
        );
        let snap = s.clone();
        for op in [
            OpDesc::Mkdir {
                path: comps(&["a"]),
            }, // EEXIST
            OpDesc::Mknod {
                path: comps(&["no", "f"]),
            }, // ENOENT
            OpDesc::Rmdir {
                path: comps(&["x"]),
            }, // ENOENT
            OpDesc::Unlink {
                path: comps(&["a"]),
            }, // EISDIR
            OpDesc::Rename {
                src: comps(&["a"]),
                dst: comps(&["a", "b"]),
            }, // EINVAL
        ] {
            let ret = apply(&mut s, op);
            assert!(!ret.is_ok());
            assert_eq!(s, snap);
        }
    }

    #[test]
    fn rename_spec_moves_subtree() {
        let mut s = FsState::new();
        apply(
            &mut s,
            OpDesc::Mkdir {
                path: comps(&["a"]),
            },
        );
        apply(
            &mut s,
            OpDesc::Mkdir {
                path: comps(&["a", "b"]),
            },
        );
        apply(
            &mut s,
            OpDesc::Mkdir {
                path: comps(&["z"]),
            },
        );
        assert_eq!(
            apply(
                &mut s,
                OpDesc::Rename {
                    src: comps(&["a", "b"]),
                    dst: comps(&["z", "c"]),
                }
            ),
            OpRet::Ok
        );
        let (_, e1) = s.resolve(&comps(&["a", "b"]));
        assert_eq!(e1, Some(FsError::NotFound));
        let (_, e2) = s.resolve(&comps(&["z", "c"]));
        assert!(e2.is_none());
    }

    #[test]
    fn rename_victim_with_content_is_invertible() {
        let mut s = FsState::new();
        apply(
            &mut s,
            OpDesc::Mknod {
                path: comps(&["a"]),
            },
        );
        apply(
            &mut s,
            OpDesc::Mknod {
                path: comps(&["b"]),
            },
        );
        apply(
            &mut s,
            OpDesc::Write {
                path: comps(&["b"]),
                offset: 0,
                data: b"victim".to_vec(),
            },
        );
        let before = s.clone();
        let mut alloc = fresh_alloc();
        let (effects, ret, err) = apply_aop(
            &mut s,
            &OpDesc::Rename {
                src: comps(&["a"]),
                dst: comps(&["b"]),
            },
            &mut alloc,
        );
        assert_eq!(ret, OpRet::Ok);
        assert!(err.is_none());
        // Rolling the effects back restores the pre-state exactly,
        // including the victim's contents.
        let mut rolled = s.clone();
        for e in effects.iter().rev() {
            rolled.unapply_micro(e).unwrap();
        }
        assert_eq!(rolled, before);
    }

    #[test]
    fn write_and_read_spec() {
        let mut s = FsState::new();
        apply(
            &mut s,
            OpDesc::Mknod {
                path: comps(&["f"]),
            },
        );
        assert_eq!(
            apply(
                &mut s,
                OpDesc::Write {
                    path: comps(&["f"]),
                    offset: 2,
                    data: b"xy".to_vec(),
                }
            ),
            OpRet::Written(2)
        );
        assert_eq!(
            apply(
                &mut s,
                OpDesc::Read {
                    path: comps(&["f"]),
                    offset: 0,
                    len: 10,
                }
            ),
            OpRet::Data(b"\0\0xy".to_vec())
        );
        assert_eq!(
            apply(
                &mut s,
                OpDesc::Read {
                    path: comps(&["f"]),
                    offset: 100,
                    len: 10,
                }
            ),
            OpRet::Data(Vec::new())
        );
    }

    #[test]
    fn readdir_spec_sorted() {
        let mut s = FsState::new();
        apply(
            &mut s,
            OpDesc::Mknod {
                path: comps(&["b"]),
            },
        );
        apply(
            &mut s,
            OpDesc::Mknod {
                path: comps(&["a"]),
            },
        );
        assert_eq!(
            apply(&mut s, OpDesc::Readdir { path: comps(&[]) }),
            OpRet::Names(vec!["a".into(), "b".into()])
        );
    }

    #[test]
    fn error_precedence_matches_concrete() {
        // `rename` decides in this order: renaming the root is EBUSY;
        // a destination inside the source is EINVAL; then the common
        // prefix of the two parents is walked, then the source branch,
        // then the destination branch, and the first walk error wins;
        // last, both parents must be directories (ENOTDIR).
        let mut s = FsState::new();
        apply(
            &mut s,
            OpDesc::Mkdir {
                path: comps(&["d"]),
            },
        );
        // dst inside src is decided before existence.
        assert_eq!(
            apply(
                &mut s,
                OpDesc::Rename {
                    src: comps(&["nope"]),
                    dst: comps(&["nope", "x"]),
                }
            ),
            OpRet::Err(FsError::InvalidArgument)
        );
        // A walk error beats the parent type check: the source parent
        // `f` is a file, but the destination branch `m` is missing.
        apply(
            &mut s,
            OpDesc::Mknod {
                path: comps(&["f"]),
            },
        );
        assert_eq!(
            apply(
                &mut s,
                OpDesc::Rename {
                    src: comps(&["f", "x"]),
                    dst: comps(&["m", "n"]),
                }
            ),
            OpRet::Err(FsError::NotFound)
        );
        assert_eq!(
            apply(
                &mut s,
                OpDesc::Rename {
                    src: comps(&["f", "x"]),
                    dst: comps(&["d", "n"]),
                }
            ),
            OpRet::Err(FsError::NotDir)
        );
        // Root renames are EBUSY before anything else.
        assert_eq!(
            apply(
                &mut s,
                OpDesc::Rename {
                    src: comps(&[]),
                    dst: comps(&["d", "x"]),
                }
            ),
            OpRet::Err(FsError::Busy)
        );
        // rmdir("/") is EBUSY, unlink("/") is EISDIR.
        assert_eq!(
            apply(&mut s, OpDesc::Rmdir { path: comps(&[]) }),
            OpRet::Err(FsError::Busy)
        );
        assert_eq!(
            apply(&mut s, OpDesc::Unlink { path: comps(&[]) }),
            OpRet::Err(FsError::IsDir)
        );
    }

    #[test]
    fn truncate_spec_roundtrip() {
        let mut s = FsState::new();
        apply(
            &mut s,
            OpDesc::Mknod {
                path: comps(&["f"]),
            },
        );
        apply(
            &mut s,
            OpDesc::Write {
                path: comps(&["f"]),
                offset: 0,
                data: b"0123456789".to_vec(),
            },
        );
        apply(
            &mut s,
            OpDesc::Truncate {
                path: comps(&["f"]),
                size: 3,
            },
        );
        assert_eq!(
            apply(
                &mut s,
                OpDesc::Read {
                    path: comps(&["f"]),
                    offset: 0,
                    len: 10,
                }
            ),
            OpRet::Data(b"012".to_vec())
        );
    }

    #[test]
    fn created_ids_come_from_alloc() {
        let mut s = FsState::new();
        let mut alloc = |_ft: FileType| 4242;
        let (effects, ret, err) = apply_aop(
            &mut s,
            &OpDesc::Mknod {
                path: comps(&["f"]),
            },
            &mut alloc,
        );
        assert_eq!(ret, OpRet::Ok);
        assert!(err.is_none());
        assert!(matches!(effects[0], MicroOp::Create { ino: 4242, .. }));
        assert!(s.node(4242).is_some());
        let d = s.node(ROOT_INUM).unwrap().as_dir().unwrap();
        assert_eq!(d.get("f"), Some(&4242));
    }

    /// A random op over a small namespace, weighted toward the byte
    /// edits: writes past EOF (holes), empty writes, truncates up and
    /// down, and edits at the `MAX_FILE_SIZE` bound, including offsets
    /// whose end wraps `u64`.
    fn random_op(rng: &mut SplitMix64) -> OpDesc {
        const NAMES: [&[&str]; 6] = [&["a"], &["b"], &["a", "x"], &["a", "y"], &["b", "x"], &[]];
        let path = |rng: &mut SplitMix64| comps(NAMES[rng.random_range(0..NAMES.len())]);
        let offset = |rng: &mut SplitMix64, len: u64| match rng.random_range(0..8) {
            0 => MAX_FILE_SIZE - len + 1,
            1 => u64::MAX - rng.random_range(0..4),
            2 => rng.random_range(16..64),
            _ => rng.random_range(0..16),
        };
        match rng.random_range(0..12) {
            0 => OpDesc::Mknod { path: path(rng) },
            1 => OpDesc::Mkdir { path: path(rng) },
            2 => OpDesc::Unlink { path: path(rng) },
            3 => OpDesc::Rmdir { path: path(rng) },
            4 => OpDesc::Rename {
                src: path(rng),
                dst: path(rng),
            },
            5 => OpDesc::Read {
                path: path(rng),
                offset: rng.random_range(0..48),
                len: rng.random_range(0..24),
            },
            6 => OpDesc::Stat { path: path(rng) },
            7 | 8 => {
                let data = vec![rng.next_u64() as u8; rng.random_range(0..12)];
                OpDesc::Write {
                    path: path(rng),
                    offset: offset(rng, data.len().max(1) as u64),
                    data,
                }
            }
            _ => OpDesc::Truncate {
                path: path(rng),
                size: match rng.random_range(0..6) {
                    0 => MAX_FILE_SIZE + 1,
                    1 => u64::MAX,
                    _ => rng.random_range(0..64),
                },
            },
        }
    }

    /// The three sinks cannot drift: on every random script the
    /// sequential step, the claim decision and the checker's `apply_aop`
    /// return the same result, the step leaves the state `apply_aop`
    /// leaves, and the decision reports a change exactly when `apply_aop`
    /// records an effect. A read into a buffer reads what `apply_aop`
    /// returns.
    #[test]
    fn step_matches_apply_aop() {
        check_seeds(64, |rng| {
            let mut stepped = FsState::new();
            let mut applied = FsState::new();
            for i in 0..rng.random_range(1..120) {
                let op = random_op(rng);
                let (decided, changes) = decide(&applied, &op);
                let mut buf = Vec::new();
                let read_into = match &op {
                    OpDesc::Read { path, offset, len } => {
                        buf.resize(*len, 0);
                        Some(read(&applied, path, *offset, &mut buf))
                    }
                    _ => None,
                };
                let ret = step(&mut stepped, &op);
                let ino = fresh_id(&applied);
                let (effects, want, diverged) = apply_aop(&mut applied, &op, &mut |_| ino);
                assert!(diverged.is_none());
                assert_eq!(ret, want, "op {i}: {op}");
                assert_eq!(decided, want, "op {i}: {op}");
                assert_eq!(changes, !effects.is_empty(), "op {i}: {op}");
                assert_eq!(stepped, applied, "op {i}: {op}");
                if let Some(got) = read_into {
                    let got = got.map(|n| OpRet::Data(buf[..n].to_vec()));
                    assert_eq!(got.unwrap_or_else(OpRet::Err), want, "op {i}: {op}");
                }
            }
        });
    }
}
