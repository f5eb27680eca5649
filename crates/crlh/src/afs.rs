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
/// (`MAX_BLOCKS_PER_FILE * BLOCK_SIZE` = 16384 × 4096 bytes). An
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
pub(crate) fn decide<S: StateView + ?Sized>(state: &S, op: &OpDesc) -> (OpRet, bool) {
    let (effects, ret) = compute(state, op, &mut |_| 0);
    (ret, !effects.is_empty())
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
        OpDesc::Write { path, offset, data } => write_spec(state, path, *offset, data),
        OpDesc::Truncate { path, size } => truncate_spec(state, path, *size),
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

/// Effects that clear and remove inode `ino`, whose contents are `node`,
/// preserving invertibility (non-empty files are emptied by a `SetData`
/// first, matching the concrete trace protocol).
fn removal_effects(ino: Inum, node: &Node) -> Vec<MicroOp> {
    let mut effects = Vec::new();
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
    effects
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
    let mut effects = vec![MicroOp::Del {
        parent: pid,
        name: name.clone(),
        child,
    }];
    effects.extend(removal_effects(child, &cnode));
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
        effects.extend(removal_effects(d, &dn_node));
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

fn write_spec<S: StateView + ?Sized>(
    state: &S,
    comps: &[String],
    offset: u64,
    data: &[u8],
) -> (Vec<MicroOp>, OpRet) {
    let (ino, node) = match resolve_node(state, comps) {
        Ok(r) => r,
        Err(e) => return err(e),
    };
    match &*node {
        Node::File(f) => {
            if data.is_empty() {
                // The concrete write returns early without mutating.
                return (Vec::new(), OpRet::Written(0));
            }
            let end = offset + data.len() as u64;
            if end > MAX_FILE_SIZE {
                return err(FsError::FileTooBig);
            }
            let mut new = f.clone();
            if new.len() < end as usize {
                new.resize(end as usize, 0);
            }
            new[offset as usize..end as usize].copy_from_slice(data);
            (
                vec![MicroOp::SetData {
                    ino,
                    old: f.clone(),
                    new,
                }],
                OpRet::Written(data.len()),
            )
        }
        Node::Dir(_) => err(FsError::IsDir),
    }
}

fn truncate_spec<S: StateView + ?Sized>(
    state: &S,
    comps: &[String],
    size: u64,
) -> (Vec<MicroOp>, OpRet) {
    let (ino, node) = match resolve_node(state, comps) {
        Ok(r) => r,
        Err(e) => return err(e),
    };
    match &*node {
        Node::File(f) => {
            if size > MAX_FILE_SIZE {
                return err(FsError::FileTooBig);
            }
            let mut new = f.clone();
            new.resize(size as usize, 0);
            (
                vec![MicroOp::SetData {
                    ino,
                    old: f.clone(),
                    new,
                }],
                OpRet::Ok,
            )
        }
        Node::Dir(_) => err(FsError::IsDir),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomfs_trace::ROOT_INUM;

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
        // `rename` with a missing source inside an existing tree reports
        // NotFound even when the destination parent is also missing —
        // because the source branch is walked first... actually the
        // common/branch order decides; verify a few interesting cases.
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
}
