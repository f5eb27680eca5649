//! Trace events — the atomic steps of an instrumented execution.
//!
//! Seven events describe everything the CRL-H checker replays: the
//! operation envelope (`OpBegin`/`OpEnd`), the lock-coupling walk
//! (`Lock`/`Unlock`), concrete mutations (`Mutate`), linearization
//! points (`Lp`), and one `OptValidate` per optimistic attempt, which
//! carries the whole walked chain — the walk's own reads change no state,
//! so they need no events of their own.

use serde::{Deserialize, Serialize};

use crate::{Inum, MicroOp, OpDesc, OpRet, Tid};

/// Which logical path of the current operation a lock acquisition extends.
///
/// Non-rename operations traverse a single path, so all their locks carry
/// [`PathTag::Common`]. A rename first walks to the last common ancestor of
/// source and destination (`Common`), then walks the source branch (`Src`)
/// and the destination branch (`Dst`). The CRL-H ghost `Descriptor` keeps a
/// *pair* of lock paths for renames (`SrcPath`, `DestPath`, §5.2); the tag
/// tells the checker which one each lock extends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PathTag {
    /// The shared prefix (all locks of non-rename operations).
    Common,
    /// The source branch of a rename, below the common ancestor.
    Src,
    /// The destination branch of a rename, below the common ancestor.
    Dst,
}

/// One atomic step of an instrumented execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// Thread `tid` invokes operation `op`. Initializes the thread-pool
    /// ghost entry to `AopState::Pending(op)` with an empty descriptor.
    OpBegin { tid: Tid, op: OpDesc },
    /// Thread `tid` acquired the lock of inode `ino` (emitted while the
    /// lock is held). Appends `ino` to the thread's `LockPath` ghost state.
    Lock { tid: Tid, ino: Inum, tag: PathTag },
    /// Thread `tid` is about to release the lock of inode `ino` (emitted
    /// while still holding it).
    Unlock { tid: Tid, ino: Inum },
    /// Thread `tid` performed a concrete mutation inside its critical
    /// section. Advances the checker's shadow concrete state.
    Mutate { tid: Tid, mop: MicroOp },
    /// Thread `tid` passed its linearization point. For renames the
    /// checker runs `linothers` first (helping); for other operations the
    /// abstract op executes here unless it was already helped.
    Lp { tid: Tid },
    /// Thread `tid` returned `ret`. Must match the abstract result stored
    /// in the ghost state (`AopState::Done(ret)`).
    OpEnd { tid: Tid, ret: OpRet },
    /// Thread `tid`'s whole optimistic attempt, as one step. `chain` is
    /// the inode numbers the lockless walk resolved, root first (a failed
    /// attempt carries the prefix it reached); `locked` says the claimer
    /// holds the lock of `chain.last()`. `ok` is decided *after* this
    /// event's place in the total order is fixed
    /// ([`crate::TraceSink::claim`]): `ok: true` is final, announces the
    /// fast-path lock when `locked`, and admits the chain as a legal
    /// `LockPath` witness (the checker retrofits it as the descriptor's
    /// common path). `ok: false` changes no state: the claimer holds no
    /// announced lock, and retries or falls back to the pessimistic walk.
    OptValidate {
        tid: Tid,
        chain: Vec<Inum>,
        locked: bool,
        ok: bool,
    },
}

impl Event {
    /// The thread performing this step.
    pub fn tid(&self) -> Tid {
        match self {
            Event::OpBegin { tid, .. }
            | Event::Lock { tid, .. }
            | Event::Unlock { tid, .. }
            | Event::Mutate { tid, .. }
            | Event::Lp { tid }
            | Event::OpEnd { tid, .. }
            | Event::OptValidate { tid, .. } => *tid,
        }
    }
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Event::OpBegin { tid, op } => write!(f, "{tid}: begin {op}"),
            Event::Lock { tid, ino, tag } => write!(f, "{tid}: lock {ino} ({tag:?})"),
            Event::Unlock { tid, ino } => write!(f, "{tid}: unlock {ino}"),
            Event::Mutate { tid, mop } => write!(f, "{tid}: {mop}"),
            Event::Lp { tid } => write!(f, "{tid}: LP"),
            Event::OpEnd { tid, ret } => write!(f, "{tid}: end {ret}"),
            Event::OptValidate {
                tid,
                chain,
                locked,
                ok,
            } => write!(
                f,
                "{tid}: opt-validate {chain:?}{} {}",
                if *locked { " locked" } else { "" },
                if *ok { "ok" } else { "fail" }
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tid_projection() {
        let e = Event::Lp { tid: Tid(3) };
        assert_eq!(e.tid(), Tid(3));
        let e = Event::Lock {
            tid: Tid(7),
            ino: 1,
            tag: PathTag::Common,
        };
        assert_eq!(e.tid(), Tid(7));
    }

    #[test]
    fn display_is_line_oriented() {
        let e = Event::OpBegin {
            tid: Tid(1),
            op: OpDesc::Mkdir {
                path: vec!["a".into()],
            },
        };
        assert_eq!(e.to_string(), "t1: begin mkdir(/a)");
    }
}
