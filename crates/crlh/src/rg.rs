//! Rely/guarantee conditions (§4.2, §8).
//!
//! The paper's experience section describes the key simplification that
//! made LRG reasoning tractable for AtomFS: because every shared-state
//! access happens inside a critical section, all concrete transitions can
//! be merged into three guarantee conditions —
//!
//! * **Lock** — atomically acquiring an inode lock;
//! * **Unlock** — atomically releasing an inode lock;
//! * **Lockedtrans** — an arbitrary modification to an inode *locked by
//!   the transitioning thread*.
//!
//! A thread's rely condition is the union of every other thread's
//! guarantees, so stability only ever needs to consider these three
//! shapes. This module classifies trace events into those transitions;
//! the checker enforces the `Lockedtrans` side condition (the mutated
//! inode must be locked by the mutating thread) at every `Mutate` event,
//! which is precisely the guarantee-condition check of the proofs.

use atomfs_trace::{Event, Inum, MicroOp, Tid};

/// The merged transition alphabet of AtomFS's guarantee condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transition {
    /// Acquire an inode lock.
    Lock {
        /// Acquiring thread.
        tid: Tid,
        /// The inode.
        ino: Inum,
    },
    /// Release an inode lock.
    Unlock {
        /// Releasing thread.
        tid: Tid,
        /// The inode.
        ino: Inum,
    },
    /// Modify an inode while holding its lock (or thread-private memory
    /// for freshly created inodes).
    LockedTrans {
        /// Mutating thread.
        tid: Tid,
        /// The inode whose content changes.
        target: Inum,
        /// Whether the mutation is an allocation (thread-private until
        /// published by an insert under the parent's lock).
        is_alloc: bool,
    },
    /// Ghost/abstract-level-only transition (operation boundaries and
    /// linearization points): no concrete shared state changes.
    Ghost {
        /// The thread.
        tid: Tid,
    },
}

/// Classify one trace event into the merged transition alphabet.
pub fn classify(ev: &Event) -> Transition {
    match ev {
        Event::Lock { tid, ino, .. } => Transition::Lock {
            tid: *tid,
            ino: *ino,
        },
        Event::Unlock { tid, ino } => Transition::Unlock {
            tid: *tid,
            ino: *ino,
        },
        Event::Mutate { tid, mop } => Transition::LockedTrans {
            tid: *tid,
            target: mop.target(),
            is_alloc: matches!(mop, MicroOp::Create { .. }),
        },
        // An optimistic attempt reads shared state without writing it: a
        // lockless read that validates commutes with every guarantee
        // transition (Mover Logic), so the whole attempt is one ghost
        // step — no concrete shared state changes.
        Event::OpBegin { tid, .. }
        | Event::Lp { tid }
        | Event::OpEnd { tid, .. }
        | Event::OptValidate { tid, .. } => Transition::Ghost { tid: *tid },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomfs_trace::{OpDesc, OpRet, PathTag};
    use atomfs_vfs::FileType;

    #[test]
    fn classification_covers_all_events() {
        let t = Tid(1);
        assert_eq!(
            classify(&Event::Lock {
                tid: t,
                ino: 3,
                tag: PathTag::Src
            }),
            Transition::Lock { tid: t, ino: 3 }
        );
        assert_eq!(
            classify(&Event::Unlock { tid: t, ino: 3 }),
            Transition::Unlock { tid: t, ino: 3 }
        );
        assert_eq!(
            classify(&Event::Mutate {
                tid: t,
                mop: MicroOp::Ins {
                    parent: 1,
                    name: "x".into(),
                    child: 2
                }
            }),
            Transition::LockedTrans {
                tid: t,
                target: 1,
                is_alloc: false
            }
        );
        assert_eq!(
            classify(&Event::Mutate {
                tid: t,
                mop: MicroOp::Create {
                    ino: 9,
                    ftype: FileType::File
                }
            }),
            Transition::LockedTrans {
                tid: t,
                target: 9,
                is_alloc: true
            }
        );
        for ev in [
            Event::OpBegin {
                tid: t,
                op: OpDesc::Stat { path: vec![] },
            },
            Event::Lp { tid: t },
            Event::OpEnd {
                tid: t,
                ret: OpRet::Ok,
            },
            Event::OptValidate {
                tid: t,
                chain: vec![1, 4],
                locked: false,
                ok: true,
            },
            Event::OptValidate {
                tid: t,
                chain: vec![1],
                locked: false,
                ok: false,
            },
        ] {
            assert_eq!(classify(&ev), Transition::Ghost { tid: t });
        }
    }
}
