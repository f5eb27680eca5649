//! VFS substrate for the AtomFS reproduction.
//!
//! This crate plays the role that Linux VFS + FUSE play for the paper's
//! AtomFS prototype: it defines the path-based [`FileSystem`] interface that
//! every file system in this workspace implements, errno-style errors,
//! path normalization, a FUSE-style file-descriptor table that maps file
//! descriptors back to paths (the paper's AtomFS resolves FD-based calls by
//! re-traversing the path, §5.4), a per-operation overhead shim used to model
//! user/kernel crossing costs in the benchmarks, and a dentry cache used by
//! the `ext4-sim` baseline. It also carries the workspace's one seeded
//! PRNG, [`SplitMix64`], since every crate and test already depends on it,
//! and the one framed codec both binary formats (journal records, server
//! wire frames) are built on: [`frame`]'s byte writers, strict reader and
//! sealed envelope, summed by the one frame [`checksum()`].
//!
//! Nothing in this crate knows about locking strategies or verification;
//! those live in the `atomfs` and `crlh` crates respectively.

pub mod checksum;
pub mod dcache;
pub mod error;
pub mod fd;
pub mod frame;
pub mod fs;
pub mod metered;
pub mod overhead;
pub mod path;
pub mod rng;

pub use checksum::{checksum, Checksum};
pub use error::{FsError, FsResult};
pub use fd::{Fd, FdTable, OpenOptions};
pub use fs::{FileSystem, FileType, Metadata};
pub use metered::MeteredFs;
pub use path::{join, normalize, parent_and_name, split};
pub use rng::SplitMix64;

/// The process-global thread slot that every per-thread shard array in
/// the workspace is indexed by (see [`atomfs_obs::shard`]), re-exported
/// for `atomfs-trace`, which reaches `atomfs-obs` through this crate.
pub use atomfs_obs::shard::thread_slot;
