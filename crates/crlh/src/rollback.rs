//! The abstraction relation with the roll-back mechanism (§4.4).
//!
//! The simulation proof needs a relation between the abstract and concrete
//! file systems, but two things break naive per-inode equality:
//!
//! 1. concrete transitions inside a critical section expose intermediate
//!    states — solved by the **relaxed consistency mapping**: locked
//!    inodes are exempt from the relation;
//! 2. helpers execute abstract operations *before* the corresponding
//!    concrete mutations — solved by **roll-back**: undo the recorded
//!    effects of every helped-but-not-yet-discharged operation, in reverse
//!    `Helplist` order, and compare the result with the concrete state.
//!
//! The paper rolls back per-inode (searching the thread pool for effects
//! touching a given inode number); both formulations exist here.
//! [`rolled_back`] rolls back the whole map — simplest to audit, and the
//! reference the full-scan relation check uses. [`rolled_node`] is the
//! paper's `rollback(Ino, effects)`: it reconstructs a *single* inode at
//! concrete time, copying it only if an undischarged helped effect names
//! it. That is what lets the checker validate the relation incrementally
//! over only the inodes an event touched, and decide an effect-free
//! claim on a [`RolledView`] instead of a rolled-back copy of the map.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::BuildHasher;

use atomfs_trace::{Inum, MicroOp, Tid};

use crate::ghost::{is_provisional, Binding, ThreadPool};
use crate::state::{splice_extent, FsState, Node, StateError, StateView};

/// Compute the abstract state rolled back to "concrete time": undo the
/// effects of every helped, undischarged operation in reverse Helplist
/// order (the paper's `rollback(Ino, effects)` lifted to the whole map).
pub fn rolled_back(afs: &FsState, pool: &ThreadPool) -> Result<FsState, StateError> {
    let mut rolled = afs.clone();
    for tid in pool.helplist.iter().rev() {
        let entry = pool
            .get(*tid)
            .ok_or_else(|| StateError(format!("helplist references unknown thread {tid}")))?;
        for e in entry.desc.effect.iter().rev() {
            rolled.unapply_micro(e)?;
        }
    }
    Ok(rolled)
}

/// Roll a single abstract inode back to concrete time — the paper's
/// `rollback(Ino, effects)`.
///
/// Starting from the inode's current abstract node, undo (in reverse
/// `Helplist` order) every recorded effect of a helped, undischarged
/// operation that touches `aid`, skipping effects that don't. `Ok(None)`
/// means the inode does not exist at concrete time (e.g. a helped
/// creation whose concrete mutations haven't run yet). The node is
/// borrowed from `afs` unless some effect names it; then only this one
/// node is copied. The map is never copied.
///
/// Equivalent to `rolled_back(afs, pool)?.node(aid)` because a recorded
/// effect mutates exactly the inodes it names: restricting the undo
/// stream to effects naming `aid` reconstructs the same node.
pub fn rolled_node<'a>(
    afs: &'a FsState,
    pool: &ThreadPool,
    aid: Inum,
) -> Result<Option<Cow<'a, Node>>, StateError> {
    let mut named = false;
    for tid in pool.helplist.iter().rev() {
        let entry = pool
            .get(*tid)
            .ok_or_else(|| StateError(format!("helplist references unknown thread {tid}")))?;
        named |= entry.desc.effect.iter().any(|e| names(e, aid));
    }
    if !named {
        return Ok(afs.node(aid).map(Cow::Borrowed));
    }
    let mut node = afs.node(aid).cloned();
    for tid in pool.helplist.iter().rev() {
        let entry = pool.get(*tid).expect("checked above");
        for e in entry.desc.effect.iter().rev() {
            unapply_on(&mut node, aid, e)?;
        }
    }
    Ok(node.map(Cow::Owned))
}

/// Whether undoing `mop` changes inode `aid` (the inode the micro-op
/// writes: the directory of a link change, the inode itself otherwise).
fn names(mop: &MicroOp, aid: Inum) -> bool {
    match mop {
        MicroOp::Create { ino, .. }
        | MicroOp::Remove { ino, .. }
        | MicroOp::SetData { ino, .. } => *ino == aid,
        MicroOp::Ins { parent, .. } | MicroOp::Del { parent, .. } => *parent == aid,
    }
}

/// The abstract state rolled back to concrete time, resolved one inode
/// at a time through [`rolled_node`]: what an effect-free operation that
/// overlaps the helped-but-undischarged operations actually read.
///
/// A node that fails to roll back reads as absent; the first such
/// failure is kept for the caller ([`RolledView::into_error`]), which
/// must report it before trusting anything decided on the view.
pub struct RolledView<'a> {
    afs: &'a FsState,
    pool: &'a ThreadPool,
    error: RefCell<Option<StateError>>,
}

impl<'a> RolledView<'a> {
    /// View `afs` with the effects of every helped thread in `pool`
    /// undone.
    pub fn new(afs: &'a FsState, pool: &'a ThreadPool) -> Self {
        RolledView {
            afs,
            pool,
            error: RefCell::new(None),
        }
    }

    /// The first roll-back failure a lookup met, if any.
    pub fn into_error(self) -> Option<StateError> {
        self.error.into_inner()
    }
}

impl StateView for RolledView<'_> {
    fn root_id(&self) -> Inum {
        self.afs.root
    }

    fn get(&self, id: Inum) -> Option<Cow<'_, Node>> {
        match rolled_node(self.afs, self.pool, id) {
            Ok(node) => node,
            Err(e) => {
                self.error.borrow_mut().get_or_insert(e);
                None
            }
        }
    }
}

/// Undo one micro-op's action on a single inode's (optional) node,
/// ignoring micro-ops that don't touch `aid`. Mirrors the precondition
/// checks of [`FsState::unapply_micro`] restricted to that inode, without
/// materializing the inverse op.
fn unapply_on(node: &mut Option<Node>, aid: Inum, mop: &MicroOp) -> Result<(), StateError> {
    match mop {
        // Undo a creation: the node must exist, match the type, and be
        // empty (removal preconditions of the inverse `Remove`).
        MicroOp::Create { ino, ftype } if *ino == aid => match node.take() {
            None => Err(StateError(format!("remove of missing inode {ino}"))),
            Some(n) if n.ftype() != *ftype => {
                Err(StateError(format!("remove of {ino} with wrong type")))
            }
            Some(Node::Dir(d)) if !d.is_empty() => {
                Err(StateError(format!("remove of non-empty dir {ino}")))
            }
            Some(Node::File(f)) if !f.is_empty() => {
                Err(StateError(format!("remove of non-empty file {ino}")))
            }
            Some(_) => Ok(()),
        },
        // Undo a removal: recreate the (empty) node.
        MicroOp::Remove { ino, ftype } if *ino == aid => {
            if node.is_some() {
                return Err(StateError(format!("create of existing inode {ino}")));
            }
            *node = Some(Node::new(*ftype));
            Ok(())
        }
        // Undo an insertion into this directory.
        MicroOp::Ins {
            parent,
            name,
            child,
        } if *parent == aid => match node {
            Some(Node::Dir(d)) => match d.remove(name) {
                Some(c) if c == *child => Ok(()),
                Some(c) => Err(StateError(format!(
                    "del of {name} in {parent}: expected {child}, found {c}"
                ))),
                None => Err(StateError(format!(
                    "del of missing entry {name} in {parent}"
                ))),
            },
            _ => Err(StateError(format!("del from non-directory {parent}"))),
        },
        // Undo a deletion from this directory.
        MicroOp::Del {
            parent,
            name,
            child,
        } if *parent == aid => match node {
            Some(Node::Dir(d)) => {
                if d.contains_key(name) {
                    return Err(StateError(format!(
                        "ins duplicate entry {name} in {parent}"
                    )));
                }
                d.insert(name.clone(), *child);
                Ok(())
            }
            Some(Node::File(_)) => Err(StateError(format!("ins into non-directory {parent}"))),
            None => Err(StateError(format!("ins into missing inode {parent}"))),
        },
        // Undo a data write: contents must match the recorded new side.
        MicroOp::SetData {
            ino,
            off,
            old,
            new,
            old_len,
            new_len,
        } if *ino == aid => match node {
            Some(Node::File(f)) => splice_extent(*ino, f, *off, (new, *new_len), (old, *old_len)),
            _ => Err(StateError(format!("setdata on non-file {ino}"))),
        },
        _ => Ok(()),
    }
}

/// Check the abstraction relation between the shadow concrete state and
/// the rolled-back abstract state.
///
/// * `locks`: concrete inodes currently locked (relaxed mapping — exempt);
/// * `private`: concrete inodes created by still-pending operations (the
///   thread-private memory of a not-yet-published `init()` node).
///
/// Returns human-readable descriptions of every per-inode mismatch.
pub fn relation_violations<S: BuildHasher>(
    shadow: &FsState,
    rolled: &FsState,
    binding: &Binding,
    locks: &HashMap<Inum, Tid, S>,
    private: &HashMap<Inum, Tid, S>,
) -> Vec<String> {
    let mut out = Vec::new();
    for (&cid, cnode) in &shadow.map {
        if locks.contains_key(&cid) || private.contains_key(&cid) {
            continue;
        }
        let Some(aid) = binding.abs(cid) else {
            out.push(format!("concrete inode {cid} has no abstract counterpart"));
            continue;
        };
        let Some(anode) = rolled.node(aid) else {
            out.push(format!(
                "concrete inode {cid} (abs {aid}) missing from rolled-back abstract state"
            ));
            continue;
        };
        if let Some(msg) = match_nodes(cid, cnode, aid, anode, binding) {
            out.push(msg);
        }
    }
    for &aid in rolled.map.keys() {
        match binding.conc(aid) {
            Some(cid) => {
                if !shadow.map.contains_key(&cid) && !locks.contains_key(&cid) {
                    out.push(format!(
                        "abstract inode {aid} (concrete {cid}) missing from concrete state"
                    ));
                }
            }
            None => {
                if is_provisional(aid) {
                    out.push(format!(
                        "provisional abstract inode {aid} survived roll-back unbound"
                    ));
                } else {
                    out.push(format!(
                        "abstract inode {aid} is not bound to any concrete inode"
                    ));
                }
            }
        }
    }
    out
}

/// Compare one concrete inode against its abstract counterpart, mapping
/// child links through the binding.
pub(crate) fn match_nodes(
    cid: Inum,
    cnode: &Node,
    aid: Inum,
    anode: &Node,
    binding: &Binding,
) -> Option<String> {
    match (cnode, anode) {
        (Node::File(cf), Node::File(af)) => {
            if cf != af {
                Some(format!(
                    "file {cid}: concrete {} bytes != abstract {} bytes",
                    cf.len(),
                    af.len()
                ))
            } else {
                None
            }
        }
        (Node::Dir(cd), Node::Dir(ad)) => {
            if cd.len() != ad.len() {
                return Some(format!(
                    "dir {cid}: {} concrete entries != {} abstract entries",
                    cd.len(),
                    ad.len()
                ));
            }
            for (name, &cchild) in cd {
                match (ad.get(name), binding.abs(cchild)) {
                    (Some(&achild), Some(mapped)) if achild == mapped => {}
                    (Some(&achild), mapped) => {
                        return Some(format!(
                            "dir {cid} entry {name}: concrete child {cchild} (abs {mapped:?}) \
                             != abstract child {achild}"
                        ))
                    }
                    (None, _) => {
                        return Some(format!(
                            "dir {cid} entry {name} missing from abstract dir {aid}"
                        ))
                    }
                }
            }
            None
        }
        _ => Some(format!(
            "inode {cid}: concrete {:?} != abstract {:?}",
            cnode.ftype(),
            anode.ftype()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomfs_trace::{MicroOp, OpDesc, ROOT_INUM};
    use atomfs_vfs::FileType;

    #[test]
    fn identity_when_nothing_helped() {
        let afs = FsState::new();
        let pool = ThreadPool::new();
        let rolled = rolled_back(&afs, &pool).unwrap();
        assert_eq!(rolled, afs);
        let binding = Binding::new();
        let v = relation_violations(
            &FsState::new(),
            &rolled,
            &binding,
            &HashMap::new(),
            &HashMap::new(),
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn rollback_undoes_helped_creation() {
        // Abstract state got /a inserted by a helped mkdir; concrete has
        // nothing yet. Rolling back must reconcile the two.
        let mut afs = FsState::new();
        let prov = crate::ghost::PROVISIONAL_BASE;
        let effects = vec![
            MicroOp::Create {
                ino: prov,
                ftype: FileType::Dir,
            },
            MicroOp::Ins {
                parent: ROOT_INUM,
                name: "a".into(),
                child: prov,
            },
        ];
        for e in &effects {
            afs.apply_micro(e).unwrap();
        }
        let mut pool = ThreadPool::new();
        pool.begin(
            Tid(7),
            OpDesc::Mkdir {
                path: vec!["a".into()],
            },
        );
        pool.get_mut(Tid(7)).unwrap().desc.effect = effects;
        pool.get_mut(Tid(7)).unwrap().desc.helped = true;
        pool.push_helped(Tid(7));

        let rolled = rolled_back(&afs, &pool).unwrap();
        assert_eq!(rolled, FsState::new());
        let binding = Binding::new();
        let v = relation_violations(
            &FsState::new(),
            &rolled,
            &binding,
            &HashMap::new(),
            &HashMap::new(),
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn rollback_order_is_reverse_helplist() {
        // Two helped ops touching the same directory: t1 inserted "a",
        // then t2 inserted "b". Rolling back must undo t2 first.
        let mut afs = FsState::new();
        let (p1, p2) = (
            crate::ghost::PROVISIONAL_BASE,
            crate::ghost::PROVISIONAL_BASE + 1,
        );
        let e1 = vec![
            MicroOp::Create {
                ino: p1,
                ftype: FileType::File,
            },
            MicroOp::Ins {
                parent: ROOT_INUM,
                name: "a".into(),
                child: p1,
            },
        ];
        let e2 = vec![
            MicroOp::Create {
                ino: p2,
                ftype: FileType::File,
            },
            MicroOp::Ins {
                parent: ROOT_INUM,
                name: "b".into(),
                child: p2,
            },
        ];
        for e in e1.iter().chain(e2.iter()) {
            afs.apply_micro(e).unwrap();
        }
        let mut pool = ThreadPool::new();
        for (t, eff) in [(1u32, e1), (2u32, e2)] {
            pool.begin(Tid(t), OpDesc::Mknod { path: vec![] });
            pool.get_mut(Tid(t)).unwrap().desc.effect = eff;
            pool.get_mut(Tid(t)).unwrap().desc.helped = true;
            pool.push_helped(Tid(t));
        }
        let rolled = rolled_back(&afs, &pool).unwrap();
        assert_eq!(rolled, FsState::new());
    }

    #[test]
    fn locked_inodes_are_exempt() {
        // Shadow has extra content in a locked inode; relation holds.
        let mut shadow = FsState::new();
        shadow
            .apply_micro(&MicroOp::Create {
                ino: 5,
                ftype: FileType::File,
            })
            .unwrap();
        shadow
            .apply_micro(&MicroOp::Ins {
                parent: ROOT_INUM,
                name: "f".into(),
                child: 5,
            })
            .unwrap();
        let mut afs = shadow.clone();
        // Concrete wrote bytes the abstract level hasn't seen: exempt only
        // while the file inode AND its parent (whose entry sets differ?
        // they don't — only file content differs) are locked.
        shadow
            .apply_micro(&MicroOp::replace(5, vec![], b"dirty".to_vec()))
            .unwrap();
        let mut binding = Binding::new();
        binding.bind(5, 5);
        afs.map.insert(5, afs.map[&5].clone());
        let mut locks = HashMap::new();
        let pool = ThreadPool::new();
        let rolled = rolled_back(&afs, &pool).unwrap();
        let v = relation_violations(&shadow, &rolled, &binding, &locks, &HashMap::new());
        assert_eq!(v.len(), 1, "unlocked dirty inode must be flagged: {v:?}");
        locks.insert(5, Tid(3));
        let v = relation_violations(&shadow, &rolled, &binding, &locks, &HashMap::new());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn private_inodes_are_exempt() {
        let mut shadow = FsState::new();
        shadow
            .apply_micro(&MicroOp::Create {
                ino: 9,
                ftype: FileType::File,
            })
            .unwrap();
        let afs = FsState::new();
        let binding = Binding::new();
        let pool = ThreadPool::new();
        let rolled = rolled_back(&afs, &pool).unwrap();
        let mut private = HashMap::new();
        let v = relation_violations(&shadow, &rolled, &binding, &HashMap::new(), &private);
        assert_eq!(v.len(), 1);
        private.insert(9, Tid(1));
        let v = relation_violations(&shadow, &rolled, &binding, &HashMap::new(), &private);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn rolled_node_matches_full_rollback() {
        // Same two-helped-ops scenario as the ordering test: the
        // per-inode formulation must agree with the whole-map roll-back
        // on every id either state mentions (and on absent ids).
        let mut afs = FsState::new();
        let (p1, p2) = (
            crate::ghost::PROVISIONAL_BASE,
            crate::ghost::PROVISIONAL_BASE + 1,
        );
        let e1 = vec![
            MicroOp::Create {
                ino: p1,
                ftype: FileType::Dir,
            },
            MicroOp::Ins {
                parent: ROOT_INUM,
                name: "a".into(),
                child: p1,
            },
            MicroOp::Create {
                ino: p2,
                ftype: FileType::File,
            },
            MicroOp::Ins {
                parent: p1,
                name: "f".into(),
                child: p2,
            },
            MicroOp::replace(p2, vec![], b"xyz".to_vec()),
        ];
        for e in &e1 {
            afs.apply_micro(e).unwrap();
        }
        let mut pool = ThreadPool::new();
        pool.begin(Tid(1), OpDesc::Mknod { path: vec![] });
        pool.get_mut(Tid(1)).unwrap().desc.effect = e1;
        pool.get_mut(Tid(1)).unwrap().desc.helped = true;
        pool.push_helped(Tid(1));

        let rolled = rolled_back(&afs, &pool).unwrap();
        for id in afs.map.keys().copied().chain(rolled.map.keys().copied()) {
            assert_eq!(
                rolled_node(&afs, &pool, id).unwrap().as_deref(),
                rolled.node(id),
                "per-inode roll-back diverged on {id}"
            );
            assert_eq!(
                RolledView::new(&afs, &pool).get(id).as_deref(),
                rolled.node(id),
                "the rolled view diverged on {id}"
            );
        }
        assert_eq!(rolled_node(&afs, &pool, 4242).unwrap(), None);
        // A node no helped effect names is lent, not copied.
        assert!(matches!(
            rolled_node(&afs, &ThreadPool::new(), p1).unwrap(),
            Some(Cow::Borrowed(_))
        ));
        assert!(rolled_node(&afs, &pool, p1).unwrap().is_none());
    }

    #[test]
    fn corrupt_effects_fail_rollback() {
        let afs = FsState::new();
        let mut pool = ThreadPool::new();
        pool.begin(Tid(1), OpDesc::Mknod { path: vec![] });
        // Effect claims an insertion that never happened abstractly.
        pool.get_mut(Tid(1)).unwrap().desc.effect = vec![MicroOp::Ins {
            parent: ROOT_INUM,
            name: "ghost".into(),
            child: 99,
        }];
        pool.push_helped(Tid(1));
        let whole = rolled_back(&afs, &pool).unwrap_err();
        assert_eq!(
            rolled_node(&afs, &pool, ROOT_INUM).unwrap_err(),
            whole,
            "per-inode roll-back must reject the same corrupt metadata"
        );
        let view = RolledView::new(&afs, &pool);
        assert!(view.get(ROOT_INUM).is_none());
        assert_eq!(view.into_error(), Some(whole));
    }
}
