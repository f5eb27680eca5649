//! The map-spec file system state (Figure 6 of the paper).
//!
//! The paper models the abstract file system as a *map spec*: a root inode
//! number plus a map from inode numbers to inodes, where an inode is either
//! a directory (name → inode number) or a file (byte list). The map spec —
//! rather than a tree type — is what lets the relational proofs focus on
//! individual inodes and state shape properties as a separate invariant
//! (`GoodAFS`).
//!
//! The same representation serves two roles in the executable checker:
//!
//! * the **abstract file system** stepped by abstract operations at
//!   linearization points (ids here may be *provisional* for inodes whose
//!   concrete counterpart does not exist yet — a helped operation runs
//!   abstractly before its concrete mutations), and
//! * the **shadow concrete file system** rebuilt from `Mutate` trace
//!   events (ids here are real inode numbers).
//!
//! [`FsState::apply_micro`] / [`FsState::unapply_micro`] move a state
//! forwards/backwards by one inode-granularity effect; roll-back
//! (`crate::rollback`) is built on the latter. Abstract operations read a
//! state through [`StateView`], which the rolled-back view of the
//! abstract state implements too.

use std::borrow::Cow;
use std::collections::BTreeMap;

use atomfs_trace::{micro, Inum, MicroOp, ROOT_INUM};
use atomfs_vfs::{FileType, FsError};

/// One inode's contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A regular file's bytes.
    File(Vec<u8>),
    /// A directory's links.
    Dir(BTreeMap<String, Inum>),
}

impl Node {
    /// Fresh empty node of the given type.
    pub fn new(ftype: FileType) -> Self {
        match ftype {
            FileType::File => Node::File(Vec::new()),
            FileType::Dir => Node::Dir(BTreeMap::new()),
        }
    }

    /// This node's type.
    pub fn ftype(&self) -> FileType {
        match self {
            Node::File(_) => FileType::File,
            Node::Dir(_) => FileType::Dir,
        }
    }

    /// Directory links, if a directory.
    pub fn as_dir(&self) -> Option<&BTreeMap<String, Inum>> {
        match self {
            Node::Dir(d) => Some(d),
            Node::File(_) => None,
        }
    }

    /// File bytes, if a file.
    pub fn as_file(&self) -> Option<&Vec<u8>> {
        match self {
            Node::File(f) => Some(f),
            Node::Dir(_) => None,
        }
    }
}

/// An error applying a micro-op — always indicates a checker-detected
/// inconsistency (the concrete system performed an impossible mutation, or
/// roll-back metadata is corrupt).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateError(pub String);

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "state error: {}", self.0)
    }
}

/// Read access to a map-spec state, one inode at a time.
///
/// [`FsState`] lends its nodes as they are. The abstract state rolled
/// back to concrete time ([`crate::rollback::RolledView`]) copies only a
/// node that an undischarged helped effect names. Abstract operations
/// are decided through this trait, so an effect-free claim is judged on
/// the rolled-back state without copying the map.
pub trait StateView {
    /// The root directory's id.
    fn root_id(&self) -> Inum;

    /// Look up a node.
    fn get(&self, id: Inum) -> Option<Cow<'_, Node>>;

    /// Resolve path components from the root with the walk semantics of
    /// [`FsState::resolve`], returning the id reached or the error the
    /// walk stops with. Allocates nothing.
    fn walk(&self, comps: &[String]) -> Result<Inum, FsError> {
        self.walk_visiting(comps, |_| {})
    }

    /// [`StateView::walk`], handing each id reached past the root to
    /// `visit`.
    fn walk_visiting(
        &self,
        comps: &[String],
        mut visit: impl FnMut(Inum),
    ) -> Result<Inum, FsError> {
        let mut cur = self.root_id();
        for name in comps {
            let node = self.get(cur).ok_or(FsError::NotFound)?;
            let dir = node.as_dir().ok_or(FsError::NotDir)?;
            cur = *dir.get(name).ok_or(FsError::NotFound)?;
            visit(cur);
        }
        Ok(cur)
    }
}

/// A file system state under the map spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsState {
    /// Inode map. Invariantly contains [`FsState::root`].
    pub map: BTreeMap<Inum, Node>,
    /// The root directory's id.
    pub root: Inum,
}

impl Default for FsState {
    fn default() -> Self {
        Self::new()
    }
}

impl FsState {
    /// An empty file system: just a root directory.
    pub fn new() -> Self {
        let mut map = BTreeMap::new();
        map.insert(ROOT_INUM, Node::Dir(BTreeMap::new()));
        FsState {
            map,
            root: ROOT_INUM,
        }
    }

    /// Look up a node.
    pub fn node(&self, id: Inum) -> Option<&Node> {
        self.map.get(&id)
    }

    /// Resolve path components from the root.
    ///
    /// Returns the sequence of ids visited **including the root**, and the
    /// error the traversal would produce if resolution stops early (the
    /// walk semantics of `atomfs::walk`): a non-directory interior node
    /// yields `NotDir`, a missing link `NotFound`.
    pub fn resolve(&self, comps: &[String]) -> (Vec<Inum>, Option<FsError>) {
        let mut trail = vec![self.root];
        let err = self.walk_visiting(comps, |id| trail.push(id)).err();
        (trail, err)
    }

    /// Whether resolving `comps` visits exactly the ids of `trail`, root
    /// included — [`FsState::resolve`]'s trail, compared without
    /// building it.
    pub fn resolves_to(&self, comps: &[String], trail: &[Inum]) -> bool {
        let mut rest = trail.iter();
        if rest.next() != Some(&self.root) {
            return false;
        }
        let mut same = true;
        let _ = self.walk_visiting(comps, |id| same &= rest.next() == Some(&id));
        same && rest.next().is_none()
    }

    /// Apply one micro-op, validating its preconditions.
    pub fn apply_micro(&mut self, mop: &MicroOp) -> Result<(), StateError> {
        match mop {
            MicroOp::Create { ino, ftype } => {
                if self.map.contains_key(ino) {
                    return Err(StateError(format!("create of existing inode {ino}")));
                }
                self.map.insert(*ino, Node::new(*ftype));
                Ok(())
            }
            MicroOp::Remove { ino, ftype } => {
                match self.map.get(ino) {
                    None => return Err(StateError(format!("remove of missing inode {ino}"))),
                    Some(n) if n.ftype() != *ftype => {
                        return Err(StateError(format!("remove of {ino} with wrong type")))
                    }
                    Some(Node::Dir(d)) if !d.is_empty() => {
                        return Err(StateError(format!("remove of non-empty dir {ino}")))
                    }
                    // Non-empty files must be cleared (SetData to empty)
                    // first, so that removal stays invertible by roll-back.
                    Some(Node::File(f)) if !f.is_empty() => {
                        return Err(StateError(format!("remove of non-empty file {ino}")))
                    }
                    Some(_) => {}
                }
                self.map.remove(ino);
                Ok(())
            }
            MicroOp::Ins {
                parent,
                name,
                child,
            } => match self.map.get_mut(parent) {
                Some(Node::Dir(d)) => {
                    // Check-then-insert: a failing apply must leave the
                    // state untouched (errors are recoverable checker
                    // verdicts, not panics).
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
            MicroOp::Del {
                parent,
                name,
                child,
            } => match self.map.get_mut(parent) {
                Some(Node::Dir(d)) => match d.remove(name) {
                    Some(ino) if ino == *child => Ok(()),
                    Some(ino) => Err(StateError(format!(
                        "del of {name} in {parent}: expected {child}, found {ino}"
                    ))),
                    None => Err(StateError(format!(
                        "del of missing entry {name} in {parent}"
                    ))),
                },
                _ => Err(StateError(format!("del from non-directory {parent}"))),
            },
            MicroOp::SetData {
                ino,
                off,
                old,
                new,
                old_len,
                new_len,
            } => match self.map.get_mut(ino) {
                Some(Node::File(f)) => {
                    splice_extent(*ino, f, *off, (old, *old_len), (new, *new_len))
                }
                _ => Err(StateError(format!("setdata on non-file {ino}"))),
            },
        }
    }

    /// Undo one micro-op (apply its inverse) — the roll-back primitive.
    pub fn unapply_micro(&mut self, mop: &MicroOp) -> Result<(), StateError> {
        self.apply_micro(&mop.inverse())
    }

    /// The set of ids reachable from the root.
    pub fn reachable(&self) -> std::collections::BTreeSet<Inum> {
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            if !self.map.contains_key(&id) || !seen.insert(id) {
                continue;
            }
            if let Some(Node::Dir(d)) = self.map.get(&id) {
                stack.extend(d.values().copied());
            }
        }
        seen
    }

    /// A canonical fingerprint of the *shape and contents* of the tree,
    /// independent of inode numbering.
    ///
    /// Two states that differ only in id assignment hash equal; the WGL
    /// checker keys its memoization on this, because different
    /// linearization orders allocate different ids for the same logical
    /// state.
    pub fn canonical_fingerprint(&self) -> u64 {
        fn hash_node(state: &FsState, id: Inum, h: &mut u64) {
            fn mix(h: &mut u64, v: u64) {
                *h ^= v;
                *h = h.wrapping_mul(0x100000001b3);
            }
            match state.map.get(&id) {
                None => mix(h, 0xDEAD),
                Some(Node::File(f)) => {
                    mix(h, 1);
                    mix(h, f.len() as u64);
                    for b in f {
                        mix(h, u64::from(*b));
                    }
                }
                Some(Node::Dir(d)) => {
                    mix(h, 2);
                    mix(h, d.len() as u64);
                    for (name, child) in d {
                        for b in name.as_bytes() {
                            mix(h, u64::from(*b));
                        }
                        mix(h, 0x2F);
                        hash_node(state, *child, h);
                    }
                }
            }
        }
        let mut h = 0xcbf29ce484222325u64;
        hash_node(self, self.root, &mut h);
        h
    }
}

impl StateView for FsState {
    fn root_id(&self) -> Inum {
        self.root
    }

    // Inlined across crates, so a walk over the plain state folds the
    // `Cow` away (without it `SeqFs`'s walk took twice as long).
    #[inline]
    fn get(&self, id: Inum) -> Option<Cow<'_, Node>> {
        self.map.get(&id).map(Cow::Borrowed)
    }
}

/// Move file `ino`'s bytes `f` across one extent, from side `from` to
/// side `to` (each a slice at `off` and a file length): check that `f`
/// is `from`, then make it `to`. A failing check leaves `f` untouched.
pub(crate) fn splice_extent(
    ino: Inum,
    f: &mut Vec<u8>,
    off: u32,
    (from, from_len): (&[u8], u32),
    (to, to_len): (&[u8], u32),
) -> Result<(), StateError> {
    if !micro::side_matches(f, off, from, from_len) {
        return Err(StateError(format!(
            "setdata on {ino}: current contents differ from recorded old"
        )));
    }
    if !micro::splice(f, off, to, to_len) {
        return Err(StateError(format!(
            "setdata on {ino}: {} bytes at {off} end past length {to_len}",
            to.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comps(s: &[&str]) -> Vec<String> {
        s.iter().map(|c| c.to_string()).collect()
    }

    #[test]
    fn new_state_has_root_dir() {
        let s = FsState::new();
        assert_eq!(s.node(s.root).unwrap().ftype(), FileType::Dir);
        let (trail, err) = s.resolve(&[]);
        assert_eq!(trail, vec![ROOT_INUM]);
        assert!(err.is_none());
    }

    #[test]
    fn apply_create_ins_then_resolve() {
        let mut s = FsState::new();
        s.apply_micro(&MicroOp::Create {
            ino: 5,
            ftype: FileType::Dir,
        })
        .unwrap();
        s.apply_micro(&MicroOp::Ins {
            parent: ROOT_INUM,
            name: "a".into(),
            child: 5,
        })
        .unwrap();
        let (trail, err) = s.resolve(&comps(&["a"]));
        assert_eq!(trail, vec![ROOT_INUM, 5]);
        assert!(err.is_none());
    }

    #[test]
    fn resolve_errors() {
        let mut s = FsState::new();
        s.apply_micro(&MicroOp::Create {
            ino: 5,
            ftype: FileType::File,
        })
        .unwrap();
        s.apply_micro(&MicroOp::Ins {
            parent: ROOT_INUM,
            name: "f".into(),
            child: 5,
        })
        .unwrap();
        let (_, err) = s.resolve(&comps(&["missing"]));
        assert_eq!(err, Some(atomfs_vfs::FsError::NotFound));
        let (trail, err) = s.resolve(&comps(&["f", "x"]));
        assert_eq!(err, Some(atomfs_vfs::FsError::NotDir));
        assert_eq!(trail, vec![ROOT_INUM, 5]);
    }

    #[test]
    fn unapply_inverts_apply() {
        let mut s = FsState::new();
        let ops = [
            MicroOp::Create {
                ino: 2,
                ftype: FileType::Dir,
            },
            MicroOp::Ins {
                parent: ROOT_INUM,
                name: "d".into(),
                child: 2,
            },
            MicroOp::Create {
                ino: 3,
                ftype: FileType::File,
            },
            MicroOp::Ins {
                parent: 2,
                name: "f".into(),
                child: 3,
            },
            MicroOp::replace(3, vec![], b"xyz".to_vec()),
        ];
        let initial = s.clone();
        for op in &ops {
            s.apply_micro(op).unwrap();
        }
        assert_ne!(s, initial);
        for op in ops.iter().rev() {
            s.unapply_micro(op).unwrap();
        }
        assert_eq!(s, initial);
    }

    #[test]
    fn apply_validates_preconditions() {
        let mut s = FsState::new();
        assert!(s
            .apply_micro(&MicroOp::Remove {
                ino: 42,
                ftype: FileType::File
            })
            .is_err());
        assert!(s
            .apply_micro(&MicroOp::Del {
                parent: ROOT_INUM,
                name: "x".into(),
                child: 2
            })
            .is_err());
        assert!(s
            .apply_micro(&MicroOp::replace(ROOT_INUM, vec![], vec![1]))
            .is_err());
        s.apply_micro(&MicroOp::Create {
            ino: 2,
            ftype: FileType::File,
        })
        .unwrap();
        assert!(
            s.apply_micro(&MicroOp::replace(2, vec![9], vec![1]))
                .is_err(),
            "old-content mismatch must be detected"
        );
    }

    #[test]
    fn reachable_excludes_orphans() {
        let mut s = FsState::new();
        s.apply_micro(&MicroOp::Create {
            ino: 9,
            ftype: FileType::File,
        })
        .unwrap();
        assert!(!s.reachable().contains(&9));
        s.apply_micro(&MicroOp::Ins {
            parent: ROOT_INUM,
            name: "f".into(),
            child: 9,
        })
        .unwrap();
        assert!(s.reachable().contains(&9));
    }

    #[test]
    fn fingerprint_ignores_ids() {
        let mut a = FsState::new();
        a.apply_micro(&MicroOp::Create {
            ino: 7,
            ftype: FileType::File,
        })
        .unwrap();
        a.apply_micro(&MicroOp::Ins {
            parent: ROOT_INUM,
            name: "f".into(),
            child: 7,
        })
        .unwrap();
        let mut b = FsState::new();
        b.apply_micro(&MicroOp::Create {
            ino: 1234,
            ftype: FileType::File,
        })
        .unwrap();
        b.apply_micro(&MicroOp::Ins {
            parent: ROOT_INUM,
            name: "f".into(),
            child: 1234,
        })
        .unwrap();
        assert_eq!(a.canonical_fingerprint(), b.canonical_fingerprint());
        b.apply_micro(&MicroOp::replace(1234, vec![], vec![1]))
            .unwrap();
        assert_ne!(a.canonical_fingerprint(), b.canonical_fingerprint());
    }
}
