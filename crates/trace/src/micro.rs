//! Inode-granularity micro-operations.
//!
//! The paper's roll-back mechanism (§4.4, §5.3) records a helped
//! operation's `Effect` as a list of micro-operations at inode granularity
//! — e.g. `INS` has effect `(OPins:(pinum,name,cinum), OPcreat:cinum)` —
//! so the abstraction relation can roll abstract inodes back to their
//! concrete-time content. This module defines those micro-operations.
//!
//! The same vocabulary describes the *concrete* mutations AtomFS performs
//! inside its critical sections ([`crate::Event::Mutate`] events), which is
//! what lets the checker maintain a shadow concrete file system and close
//! the simulation loop: concrete mutations move the shadow state forward,
//! helping moves the abstract state forward early, and roll-back reconciles
//! the two.
//!
//! Each micro-op carries enough information to be applied *and* inverted
//! (`OPdel` remembers the deleted child, file updates remember the old
//! bytes), because rolling back applies inverses in reverse `Helplist`
//! order.
//!
//! # File updates are extents
//!
//! A [`MicroOp::SetData`] carries only the bytes an update touched, not
//! the whole file. It has two sides, each a length and the bytes at
//! `off`:
//!
//! ```text
//! before: old_len bytes, holding `old` at off
//! after:  new_len bytes, holding `new` at off
//! ```
//!
//! Applying it resizes the file to `new_len` (zero-filling growth), then
//! writes `new` at `off`; the inverse swaps the two sides. A write keeps
//! the bytes it overwrote as `old`, and a shrinking truncate keeps the
//! bytes it cut, so every extent the file systems record inverts back to
//! the exact file. [`MicroOp::write_extent`] and
//! [`MicroOp::resize_extent`] build them; [`side_matches`] and
//! [`splice`] apply them.
//!
//! Offsets and lengths are `u32` and the bytes boxed slices: a file is
//! at most 64 MiB, and the compact fields keep a `MicroOp` at 56 bytes
//! and an [`Event`](crate::Event) at 64, the sizes every trace buffer
//! and checker backlog pays per event.

use std::ops::Range;

use crate::Inum;
use atomfs_vfs::FileType;

/// One inode-granularity mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MicroOp {
    /// `OPcreat`: allocate inode `ino` with type `ftype` (empty contents).
    Create { ino: Inum, ftype: FileType },
    /// Inverse of `OPcreat`: free inode `ino`. Used when `unlink`/`rmdir`
    /// release an inode, or when rolling back a creation.
    Remove { ino: Inum, ftype: FileType },
    /// `OPins`: insert link `name -> child` into directory `parent`.
    Ins {
        parent: Inum,
        name: String,
        child: Inum,
    },
    /// `OPdel`: remove link `name -> child` from directory `parent`.
    Del {
        parent: Inum,
        name: String,
        child: Inum,
    },
    /// Change the bytes of file `ino` by one extent (covers write,
    /// truncate, and the clear before a file's removal): resize it from
    /// `old_len` to `new_len` bytes, then write `new` at `off`. `old` is
    /// what the file held at `off` before: the bytes the update
    /// overwrote or cut, kept so roll-back can invert it.
    SetData {
        ino: Inum,
        off: u32,
        old: Box<[u8]>,
        new: Box<[u8]>,
        old_len: u32,
        new_len: u32,
    },
}

impl MicroOp {
    /// The extent of a write of `data` at `off` into file `ino`, `len`
    /// bytes long. `read` returns the file's bytes in a range of
    /// `0..len`: it is asked for the ones the write overwrites. An empty
    /// write changes nothing, as the file systems' writes return early.
    /// The extent of a write that fails (past the maximum file size) may
    /// saturate its fields; it is never recorded.
    pub fn write_extent(
        ino: Inum,
        len: u64,
        off: u64,
        data: &[u8],
        read: impl FnOnce(Range<u64>) -> Vec<u8>,
    ) -> MicroOp {
        let end = off.saturating_add(data.len() as u64);
        let (off, new_len) = match data.is_empty() {
            true => (off.min(len), len),
            false => (off, len.max(end)),
        };
        MicroOp::SetData {
            ino,
            off: narrow(off),
            old: read(off.min(len)..end.min(len)).into(),
            new: data.into(),
            old_len: narrow(len),
            new_len: narrow(new_len),
        }
    }

    /// The extent of resizing file `ino` from `len` bytes to `size`,
    /// zero-filling growth. `read` is asked for the bytes a shrink cuts.
    pub fn resize_extent(
        ino: Inum,
        len: u64,
        size: u64,
        read: impl FnOnce(Range<u64>) -> Vec<u8>,
    ) -> MicroOp {
        let off = size.min(len);
        MicroOp::SetData {
            ino,
            off: narrow(off),
            old: read(off..len).into(),
            new: Box::default(),
            old_len: narrow(len),
            new_len: narrow(size),
        }
    }

    /// The whole-file extent replacing `old` by `new`.
    pub fn replace(ino: Inum, old: Vec<u8>, new: Vec<u8>) -> MicroOp {
        MicroOp::SetData {
            ino,
            off: 0,
            old_len: narrow(old.len() as u64),
            new_len: narrow(new.len() as u64),
            old: old.into(),
            new: new.into(),
        }
    }

    /// The inode this micro-op modifies (the *parent* for link changes —
    /// link micro-ops mutate the directory inode's content).
    pub fn target(&self) -> Inum {
        match self {
            MicroOp::Create { ino, .. }
            | MicroOp::Remove { ino, .. }
            | MicroOp::SetData { ino, .. } => *ino,
            MicroOp::Ins { parent, .. } | MicroOp::Del { parent, .. } => *parent,
        }
    }

    /// All inodes mentioned by this micro-op (used by effect search).
    pub fn touched(&self) -> Vec<Inum> {
        match self {
            MicroOp::Create { ino, .. }
            | MicroOp::Remove { ino, .. }
            | MicroOp::SetData { ino, .. } => vec![*ino],
            MicroOp::Ins { parent, child, .. } | MicroOp::Del { parent, child, .. } => {
                vec![*parent, *child]
            }
        }
    }

    /// The inverse micro-op, applied during roll-back.
    ///
    /// # Examples
    ///
    /// ```
    /// use atomfs_trace::MicroOp;
    /// use atomfs_vfs::FileType;
    /// let ins = MicroOp::Ins { parent: 1, name: "a".into(), child: 2 };
    /// let del = MicroOp::Del { parent: 1, name: "a".into(), child: 2 };
    /// assert_eq!(ins.inverse(), del);
    /// assert_eq!(del.inverse(), ins);
    /// let cr = MicroOp::Create { ino: 3, ftype: FileType::File };
    /// assert_eq!(cr.inverse().inverse(), cr);
    /// ```
    pub fn inverse(&self) -> MicroOp {
        match self {
            MicroOp::Create { ino, ftype } => MicroOp::Remove {
                ino: *ino,
                ftype: *ftype,
            },
            MicroOp::Remove { ino, ftype } => MicroOp::Create {
                ino: *ino,
                ftype: *ftype,
            },
            MicroOp::Ins {
                parent,
                name,
                child,
            } => MicroOp::Del {
                parent: *parent,
                name: name.clone(),
                child: *child,
            },
            MicroOp::Del {
                parent,
                name,
                child,
            } => MicroOp::Ins {
                parent: *parent,
                name: name.clone(),
                child: *child,
            },
            MicroOp::SetData {
                ino,
                off,
                old,
                new,
                old_len,
                new_len,
            } => MicroOp::SetData {
                ino: *ino,
                off: *off,
                old: new.clone(),
                new: old.clone(),
                old_len: *new_len,
                new_len: *old_len,
            },
        }
    }
}

/// A file offset or length as an extent field, saturating.
fn narrow(v: u64) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// Whether a file's bytes `f` are one side of an extent: `len` bytes
/// long, holding `bytes` at `off`.
pub fn side_matches(f: &[u8], off: u32, bytes: &[u8], len: u32) -> bool {
    f.len() == len as usize
        && (bytes.is_empty() || side_range(off, bytes, len).map(|r| &f[r]) == Some(bytes))
}

/// Make a file's bytes `f` the side `(off, bytes, len)` of an extent:
/// resize to `len`, zero-filling growth, then write `bytes` at `off`.
/// Returns `false`, leaving `f` as it was, if `bytes` end past `len`.
pub fn splice(f: &mut Vec<u8>, off: u32, bytes: &[u8], len: u32) -> bool {
    if bytes.is_empty() {
        f.resize(len as usize, 0);
        return true;
    }
    let Some(r) = side_range(off, bytes, len) else {
        return false;
    };
    f.resize(len as usize, 0);
    f[r].copy_from_slice(bytes);
    true
}

/// Where non-empty `bytes` at `off` sit in a file `len` bytes long:
/// `None` if they end past it.
fn side_range(off: u32, bytes: &[u8], len: u32) -> Option<Range<usize>> {
    let end = (off as usize)
        .checked_add(bytes.len())
        .filter(|&e| e <= len as usize)?;
    Some(off as usize..end)
}

impl std::fmt::Display for MicroOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MicroOp::Create { ino, ftype } => write!(f, "OPcreat({ino}, {ftype:?})"),
            MicroOp::Remove { ino, .. } => write!(f, "OPremove({ino})"),
            MicroOp::Ins {
                parent,
                name,
                child,
            } => write!(f, "OPins({parent}, {name}, {child})"),
            MicroOp::Del {
                parent,
                name,
                child,
            } => write!(f, "OPdel({parent}, {name}, {child})"),
            MicroOp::SetData {
                ino,
                off,
                new,
                old_len,
                new_len,
                ..
            } => write!(
                f,
                "OPsetdata({ino}, {} bytes at {off}, {old_len} -> {new_len} bytes)",
                new.len()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_is_an_involution() {
        let ops = [
            MicroOp::Create {
                ino: 5,
                ftype: FileType::Dir,
            },
            MicroOp::Ins {
                parent: 1,
                name: "x".into(),
                child: 5,
            },
            MicroOp::replace(5, b"old".to_vec(), b"new!".to_vec()),
            MicroOp::write_extent(5, 3, 1, b"ew!", |r| {
                b"old"[r.start as usize..r.end as usize].to_vec()
            }),
        ];
        for op in &ops {
            assert_eq!(&op.inverse().inverse(), op);
        }
    }

    #[test]
    fn target_is_mutated_inode() {
        let ins = MicroOp::Ins {
            parent: 1,
            name: "x".into(),
            child: 9,
        };
        assert_eq!(ins.target(), 1);
        assert_eq!(ins.touched(), vec![1, 9]);
        let sd = MicroOp::replace(4, vec![], vec![1]);
        assert_eq!(sd.target(), 4);
    }
}
