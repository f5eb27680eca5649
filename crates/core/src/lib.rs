//! AtomFS — a fine-grained concurrent in-memory file system with
//! linearizable interfaces, reproducing the system of *"Using Concurrent
//! Relational Logic with Helpers for Verifying the AtomFS File System"*
//! (SOSP 2019).
//!
//! # Design
//!
//! * **Per-inode locks + lock coupling.** Every path traversal acquires
//!   the next inode's lock before releasing the current one, establishing
//!   the paper's *non-bypassable criterion* (§5.1): no operation can
//!   overtake another on the same path. This is what makes it sound for a
//!   `rename` to logically linearize ("help") the in-flight operations
//!   whose traversed paths it breaks.
//! * **Hashed directories** ([`fastdir`]): one open-addressed index per
//!   directory, read under the lock by lock-coupled walks and without it
//!   by the optimistic fast path. The paper's prototype chains entries off
//!   a hash array (§6); both are the same name→inode map. File data lives
//!   in a **block store** with per-file index arrays ([`blocks`]).
//! * **Deferred frees** ([`epoch`]): a lockless reader pins an epoch, and
//!   an unlinked inode or a replaced directory table is freed once every
//!   reader pinned at its removal has left, so churn keeps memory bounded.
//! * **Per-thread allocation**: block indices and inode numbers come from
//!   per-thread magazines over one shared depot, so two threads creating,
//!   writing and deleting files share no lock in the steady state.
//! * **Deadlock-free renames** (§5.2): couple down to the last common
//!   inode of the two parent paths and hold it until both parent
//!   directories are locked.
//! * **Path-based everything**: like the paper's FUSE deployment, even
//!   `read`/`write`/`readdir` take paths and re-traverse with lock
//!   coupling, keeping them linearizable (§5.4). The fd-to-path mapping
//!   lives in `atomfs-vfs`.
//!
//! # Verification hooks
//!
//! Built with [`AtomFs::traced`], the file system reports every atomic
//! step (lock transitions, inode-granularity mutations, linearization
//! points) to a trace sink. The `crlh` crate replays such traces through
//! an executable version of the paper's CRL-H logic — ghost thread pool,
//! `linothers` helpers, roll-back abstraction relation, and the eight
//! global invariants — to validate linearizability of every recorded
//! execution.
//!
//! # Examples
//!
//! ```
//! use atomfs::AtomFs;
//! use atomfs_vfs::{FileSystem, FsError};
//!
//! let fs = AtomFs::new();
//! fs.mkdir("/docs").unwrap();
//! fs.mknod("/docs/a.txt").unwrap();
//! fs.write("/docs/a.txt", 0, b"atom").unwrap();
//! fs.rename("/docs", "/papers").unwrap();
//! let mut buf = [0u8; 4];
//! assert_eq!(fs.read("/papers/a.txt", 0, &mut buf).unwrap(), 4);
//! assert_eq!(&buf, b"atom");
//! assert_eq!(fs.stat("/docs"), Err(FsError::NotFound));
//! ```

pub mod blocks;
pub mod epoch;
pub mod fastdir;
pub mod fs;
pub mod inode;
pub(crate) mod magazine;
pub mod metrics;
pub mod ops;
pub(crate) mod optwalk;
pub mod table;
pub mod walk;

pub use atomfs_trace::{Inum, ROOT_INUM};
pub use fs::{AtomFs, AtomFsConfig};
pub use metrics::{FsMetrics, LockClass, OpKind, DEFAULT_OP_SAMPLE};

#[cfg(test)]
mod tests;
