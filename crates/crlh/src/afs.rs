//! Abstract operations (Aops) — the relational specifications of Figure 6.
//!
//! Each file system operation has an atomic specification over the
//! abstract state: a precondition deciding success, the successful state
//! transition expressed as a list of invertible [`MicroOp`] effects, and
//! the return value. The paper writes these as relations
//! (`mkdirSpec : AFS -> Args -> AFS -> Ret -> Prop`); here they are
//! executable functions whose *decision order matches the concrete AtomFS
//! implementation exactly*, so that an operation linearized at its LP
//! computes the same result (including the same errno) as the concrete
//! code — the return-value obligation of the simulation proof.
//!
//! Inode allocation is delegated to the caller through a callback: for an
//! operation linearized at its *own* LP the checker passes the inode
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
    let (effects, ret) = compute(&*state, op, alloc);
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
    let (effects, ret) = compute(state, op, &mut |_| 0);
    (ret, !effects.is_empty())
}

/// Run `op` on `state` as one step of a sequential file system: the
/// specification executed directly, with no checker around it.
///
/// `Write` and `Truncate` edit the file's bytes in place, deciding
/// through the same helpers as [`apply_aop`], which would copy the whole
/// file into a `SetData` effect. Every other operation goes through
/// [`apply_aop`], and a created inode takes the next unused id; an
/// unlink or rename first sets aside the bytes of the file it may
/// remove, so no removal copies a file either. The state and the result
/// are those [`apply_aop`] leaves and returns.
pub fn step(state: &mut FsState, op: &OpDesc) -> OpRet {
    let victim = match op {
        OpDesc::Write { path, .. } | OpDesc::Truncate { path, .. } => {
            return edit_in_place(state, path, op)
        }
        OpDesc::Unlink { path } | OpDesc::Rename { dst: path, .. } => state.walk(path).ok(),
        _ => None,
    };
    // The file an unlink or rename may remove would be copied into the
    // `SetData` that empties it. No removal decision reads file bytes,
    // so they are set aside instead, and put back if the file survives.
    let set_aside = victim.and_then(|ino| match state.map.get_mut(&ino) {
        Some(Node::File(f)) => Some((ino, std::mem::take(f))),
        _ => None,
    });
    let ino = fresh_id(state);
    let (_, ret, diverged) = apply_aop(state, op, &mut |_| ino);
    assert!(diverged.is_none(), "an unused id collided: {diverged:?}");
    if let Some((ino, bytes)) = set_aside {
        if let Some(Node::File(f)) = state.map.get_mut(&ino) {
            *f = bytes;
        }
    }
    ret
}

/// A `Write` or `Truncate` of the file at `comps`, edited in place.
fn edit_in_place(state: &mut FsState, comps: &[String], op: &OpDesc) -> OpRet {
    let ino = match resolve_file(&*state, comps) {
        Ok((ino, _)) => ino,
        Err(e) => return OpRet::Err(e),
    };
    match state.map.get_mut(&ino) {
        Some(Node::File(f)) => edit_bytes(op, f),
        _ => unreachable!("inode {ino} resolved to a file"),
    }
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
    if data.is_empty() {
        return Ok(0);
    }
    let end = offset
        .checked_add(data.len() as u64)
        .filter(|&end| end <= MAX_FILE_SIZE)
        .ok_or(FsError::FileTooBig)? as usize;
    if f.len() < end {
        f.resize(end, 0);
    }
    f[offset as usize..end].copy_from_slice(data);
    Ok(data.len())
}

/// Resize a file's bytes `f` to `size`, zero-filling growth. A size past
/// [`MAX_FILE_SIZE`] is `EFBIG` and changes nothing.
pub fn truncate_bytes(f: &mut Vec<u8>, size: u64) -> Result<(), FsError> {
    if size > MAX_FILE_SIZE {
        return Err(FsError::FileTooBig);
    }
    f.resize(size as usize, 0);
    Ok(())
}

/// Resolve the parent components with walk semantics, then return the
/// parent id if it is a directory.
fn walk_dir<S: StateView + ?Sized>(state: &S, comps: &[String]) -> Result<Inum, FsError> {
    let id = state.walk(comps)?;
    if is_dir(state, id) {
        Ok(id)
    } else {
        Err(FsError::NotDir)
    }
}

fn is_dir<S: StateView + ?Sized>(state: &S, id: Inum) -> bool {
    matches!(state.get(id).as_deref(), Some(Node::Dir(_)))
}

fn lookup<S: StateView + ?Sized>(state: &S, dir: Inum, name: &str) -> Option<Inum> {
    let node = state.get(dir)?;
    node.as_dir().and_then(|d| d.get(name).copied())
}

/// The effects and return value of `op` on `state`. A node a walk
/// reached but the state cannot produce (a dangling link, or a node whose
/// roll-back failed) decides `ENOENT`; the caller diagnoses the state.
fn compute<S: StateView + ?Sized>(
    state: &S,
    op: &OpDesc,
    alloc: &mut dyn FnMut(FileType) -> Inum,
) -> (Vec<MicroOp>, OpRet) {
    match op {
        OpDesc::Mknod { path } => create_spec(state, path, FileType::File, alloc),
        OpDesc::Mkdir { path } => create_spec(state, path, FileType::Dir, alloc),
        OpDesc::Unlink { path } => remove_spec(state, path, false),
        OpDesc::Rmdir { path } => remove_spec(state, path, true),
        OpDesc::Rename { src, dst } => rename_spec(state, src, dst),
        OpDesc::Stat { path } => stat_spec(state, path),
        OpDesc::Readdir { path } => readdir_spec(state, path),
        OpDesc::Read { path, offset, len } => read_spec(state, path, *offset, *len),
        OpDesc::Write { path, .. } | OpDesc::Truncate { path, .. } => edit_spec(state, path, op),
    }
}

fn err(e: FsError) -> (Vec<MicroOp>, OpRet) {
    (Vec::new(), OpRet::Err(e))
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

fn create_spec<S: StateView + ?Sized>(
    state: &S,
    comps: &[String],
    ftype: FileType,
    alloc: &mut dyn FnMut(FileType) -> Inum,
) -> (Vec<MicroOp>, OpRet) {
    let Some((name, parent)) = comps.split_last() else {
        return err(FsError::Exists); // creating "/"
    };
    let pid = match walk_dir(state, parent) {
        Ok(p) => p,
        Err(e) => return err(e),
    };
    if lookup(state, pid, name).is_some() {
        return err(FsError::Exists);
    }
    let ino = alloc(ftype);
    (
        vec![
            MicroOp::Create { ino, ftype },
            MicroOp::Ins {
                parent: pid,
                name: name.clone(),
                child: ino,
            },
        ],
        OpRet::Ok,
    )
}

/// Push the effects that clear and remove inode `ino`, whose contents
/// are `node`, preserving invertibility (non-empty files are emptied by a `SetData`
/// first, matching the concrete trace protocol).
fn push_removal(effects: &mut Vec<MicroOp>, ino: Inum, node: &Node) {
    if let Node::File(f) = node {
        if !f.is_empty() {
            effects.push(MicroOp::SetData {
                ino,
                old: f.clone(),
                new: Vec::new(),
            });
        }
    }
    effects.push(MicroOp::Remove {
        ino,
        ftype: node.ftype(),
    });
}

fn remove_spec<S: StateView + ?Sized>(
    state: &S,
    comps: &[String],
    want_dir: bool,
) -> (Vec<MicroOp>, OpRet) {
    let Some((name, parent)) = comps.split_last() else {
        return err(if want_dir {
            FsError::Busy
        } else {
            FsError::IsDir
        });
    };
    let pid = match walk_dir(state, parent) {
        Ok(p) => p,
        Err(e) => return err(e),
    };
    let Some(child) = lookup(state, pid, name) else {
        return err(FsError::NotFound);
    };
    let Some(cnode) = state.get(child) else {
        return err(FsError::NotFound);
    };
    match &*cnode {
        Node::File(_) if want_dir => return err(FsError::NotDir),
        Node::Dir(_) if !want_dir => return err(FsError::IsDir),
        Node::Dir(d) if !d.is_empty() => return err(FsError::NotEmpty),
        _ => {}
    }
    let mut effects = Vec::with_capacity(3);
    effects.push(MicroOp::Del {
        parent: pid,
        name: name.clone(),
        child,
    });
    push_removal(&mut effects, child, &cnode);
    (effects, OpRet::Ok)
}

fn rename_spec<S: StateView + ?Sized>(
    state: &S,
    src: &[String],
    dst: &[String],
) -> (Vec<MicroOp>, OpRet) {
    if src.is_empty() || dst.is_empty() {
        return err(FsError::Busy);
    }
    if src.len() < dst.len() && dst[..src.len()] == src[..] {
        return err(FsError::InvalidArgument);
    }
    let dst_is_ancestor_of_src = dst.len() < src.len() && src[..dst.len()] == dst[..];
    let (sn, sp) = src.split_last().expect("nonempty");
    let (dn, dp) = dst.split_last().expect("nonempty");

    if src == dst {
        let pid = match walk_dir(state, sp) {
            Ok(p) => p,
            Err(e) => return err(e),
        };
        return if lookup(state, pid, sn).is_some() {
            (Vec::new(), OpRet::Ok)
        } else {
            err(FsError::NotFound)
        };
    }

    // The concrete traversal resolves the common prefix, then the source
    // branch, then the destination branch; errors surface in that order.
    let clen = sp.iter().zip(dp.iter()).take_while(|(a, b)| a == b).count();
    let common = match state.walk(&sp[..clen]) {
        Ok(c) => c,
        Err(e) => return err(e),
    };
    let branch = |start: Inum, comps: &[String]| -> Result<Inum, FsError> {
        let mut cur = start;
        for name in comps {
            let node = state.get(cur);
            let dir = node
                .as_deref()
                .and_then(Node::as_dir)
                .ok_or(FsError::NotDir)?;
            cur = *dir.get(name).ok_or(FsError::NotFound)?;
        }
        Ok(cur)
    };
    let sdir = match branch(common, &sp[clen..]) {
        Ok(d) => d,
        Err(e) => return err(e),
    };
    let ddir = match branch(common, &dp[clen..]) {
        Ok(d) => d,
        Err(e) => return err(e),
    };
    if !is_dir(state, sdir) || !is_dir(state, ddir) {
        return err(FsError::NotDir);
    }
    let Some(snode) = lookup(state, sdir, sn) else {
        return err(FsError::NotFound);
    };
    if dst_is_ancestor_of_src {
        return err(FsError::NotEmpty);
    }
    let dnode = lookup(state, ddir, dn);
    if dnode == Some(snode) {
        return (Vec::new(), OpRet::Ok);
    }
    let Some(s_node) = state.get(snode) else {
        return err(FsError::NotFound);
    };
    let s_is_dir = s_node.ftype().is_dir();
    let mut effects = Vec::new();
    if let Some(d) = dnode {
        let Some(dn_node) = state.get(d) else {
            return err(FsError::NotFound);
        };
        let d_is_dir = dn_node.ftype().is_dir();
        if s_is_dir && !d_is_dir {
            return err(FsError::NotDir);
        }
        if !s_is_dir && d_is_dir {
            return err(FsError::IsDir);
        }
        if d_is_dir && !dn_node.as_dir().expect("dir").is_empty() {
            return err(FsError::NotEmpty);
        }
        effects.push(MicroOp::Del {
            parent: ddir,
            name: dn.clone(),
            child: d,
        });
        push_removal(&mut effects, d, &dn_node);
    }
    effects.push(MicroOp::Del {
        parent: sdir,
        name: sn.clone(),
        child: snode,
    });
    effects.push(MicroOp::Ins {
        parent: ddir,
        name: dn.clone(),
        child: snode,
    });
    (effects, OpRet::Ok)
}

fn stat_spec<S: StateView + ?Sized>(state: &S, comps: &[String]) -> (Vec<MicroOp>, OpRet) {
    let node = match resolve_node(state, comps) {
        Ok((_, n)) => n,
        Err(e) => return err(e),
    };
    let ret = match &*node {
        Node::File(f) => StatRet {
            is_dir: false,
            size: f.len() as u64,
        },
        Node::Dir(d) => StatRet {
            is_dir: true,
            size: d.len() as u64,
        },
    };
    (Vec::new(), OpRet::Stat(ret))
}

fn readdir_spec<S: StateView + ?Sized>(state: &S, comps: &[String]) -> (Vec<MicroOp>, OpRet) {
    match resolve_node(state, comps).as_ref().map(|(_, n)| &**n) {
        Ok(Node::Dir(d)) => (Vec::new(), OpRet::names(d.keys().cloned().collect())),
        Ok(Node::File(_)) => err(FsError::NotDir),
        Err(e) => err(*e),
    }
}

fn read_spec<S: StateView + ?Sized>(
    state: &S,
    comps: &[String],
    offset: u64,
    len: usize,
) -> (Vec<MicroOp>, OpRet) {
    match resolve_node(state, comps).as_ref().map(|(_, n)| &**n) {
        Ok(Node::File(f)) => {
            let off = offset as usize;
            let data = if off >= f.len() {
                Vec::new()
            } else {
                f[off..(off + len).min(f.len())].to_vec()
            };
            (Vec::new(), OpRet::Data(data))
        }
        Ok(Node::Dir(_)) => err(FsError::IsDir),
        Err(e) => err(*e),
    }
}

/// Resolve the regular file a `Write` or `Truncate` edits: its id and
/// bytes, or the error the operation returns (a walk error, or `EISDIR`).
fn resolve_file<'s, S: StateView + ?Sized>(
    state: &'s S,
    comps: &[String],
) -> Result<(Inum, Cow<'s, [u8]>), FsError> {
    match resolve_node(state, comps)? {
        (ino, Cow::Borrowed(Node::File(f))) => Ok((ino, Cow::Borrowed(f))),
        (ino, Cow::Owned(Node::File(f))) => Ok((ino, Cow::Owned(f))),
        _ => Err(FsError::IsDir),
    }
}

/// Apply a `Write` or `Truncate` to the bytes `f` of the file it names,
/// and return the operation's result. A refused edit leaves `f` as it
/// was.
fn edit_bytes(op: &OpDesc, f: &mut Vec<u8>) -> OpRet {
    let ret = match op {
        OpDesc::Write { offset, data, .. } => write_bytes(f, *offset, data).map(OpRet::Written),
        OpDesc::Truncate { size, .. } => truncate_bytes(f, *size).map(|()| OpRet::Ok),
        other => unreachable!("{} edits no file bytes", other.kind()),
    };
    ret.unwrap_or_else(OpRet::Err)
}

/// The effects and result of a `Write` or `Truncate` of the file at
/// `comps`: one `SetData` from the old bytes to the edited ones.
fn edit_spec<S: StateView + ?Sized>(
    state: &S,
    comps: &[String],
    op: &OpDesc,
) -> (Vec<MicroOp>, OpRet) {
    let (ino, old) = match resolve_file(state, comps) {
        Ok(r) => r,
        Err(e) => return err(e),
    };
    let mut new = old.to_vec();
    let ret = edit_bytes(op, &mut new);
    // A refused edit changes nothing, and neither does an empty write
    // (the only write that returns 0).
    if matches!(ret, OpRet::Err(_) | OpRet::Written(0)) {
        return (Vec::new(), ret);
    }
    (
        vec![MicroOp::SetData {
            ino,
            old: old.into_owned(),
            new,
        }],
        ret,
    )
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

    /// The sequential step and the checker's `apply_aop` cannot drift:
    /// on every random script they return the same result and leave the
    /// same state.
    #[test]
    fn step_matches_apply_aop() {
        check_seeds(64, |rng| {
            let mut stepped = FsState::new();
            let mut applied = FsState::new();
            for i in 0..rng.random_range(1..120) {
                let op = random_op(rng);
                let ret = step(&mut stepped, &op);
                let ino = fresh_id(&applied);
                let (_, want, diverged) = apply_aop(&mut applied, &op, &mut |_| ino);
                assert!(diverged.is_none());
                assert_eq!(ret, want, "op {i}: {op}");
                assert_eq!(stepped, applied, "op {i}: {op}");
            }
        });
    }
}
