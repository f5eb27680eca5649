//! The file system configurations compared in the paper's evaluation.
//!
//! Absolute performance in Figure 10 is dominated by *deployment* costs
//! (FUSE's user/kernel round trips, DFSCQ's Haskell runtime, in-kernel
//! execution for ext4/tmpfs), which an in-process reproduction has to
//! model explicitly — see `OverheadProfile` and DESIGN.md's substitution
//! table. Each constructor here composes an engine with the deployment
//! shim that its paper counterpart ran under:
//!
//! | Name | Engine | Deployment model |
//! |---|---|---|
//! | `atomfs` | [`atomfs::AtomFs`] | FUSE round trip |
//! | `atomfs-biglock` | `BigLockFs<AtomFs>` | FUSE round trip |
//! | `dfscq-sim` | [`atomfs_baselines::SeqFs`] | FUSE + managed runtime |
//! | `tmpfs-sim` | [`atomfs_baselines::RwTreeFs`] | syscall + dcache |
//! | `ext4-sim` | [`atomfs::AtomFs`] | syscall + dcache |
//! | `retryfs` | [`atomfs_baselines::RetryFs`] | FUSE round trip |

use std::sync::Arc;

use atomfs::AtomFs;
use atomfs_baselines::{BigLockFs, RetryFs, RwTreeFs, SeqFs};
use atomfs_vfs::dcache::DcacheFs;
use atomfs_vfs::overhead::{OverheadFs, OverheadProfile};
use atomfs_vfs::FileSystem;

/// The comparison systems of Figure 10, in the paper's plot order.
pub const FIG10_SYSTEMS: [&str; 4] = ["dfscq-sim", "atomfs", "tmpfs-sim", "ext4-sim"];

/// The systems of Figure 11's scalability study.
pub const FIG11_SYSTEMS: [&str; 3] = ["atomfs", "atomfs-biglock", "ext4-sim"];

/// Build a named file system configuration.
///
/// # Panics
///
/// Panics on an unknown name; use [`FIG10_SYSTEMS`]/[`FIG11_SYSTEMS`] or
/// the names in the module docs.
pub fn build(name: &str) -> Arc<dyn FileSystem> {
    match name {
        "atomfs" => Arc::new(OverheadFs::new(
            "atomfs",
            AtomFs::new(),
            OverheadProfile::fuse(),
        )),
        "atomfs-raw" => Arc::new(AtomFs::new()),
        "atomfs-biglock" => Arc::new(OverheadFs::new(
            "atomfs-biglock",
            BigLockFs::new(AtomFs::new()),
            OverheadProfile::fuse(),
        )),
        "dfscq-sim" => Arc::new(OverheadFs::new(
            "dfscq-sim",
            SeqFs::new(),
            OverheadProfile::managed_runtime(),
        )),
        "tmpfs-sim" => Arc::new(OverheadFs::new(
            "tmpfs-sim",
            DcacheFs::new("tmpfs-dcache", RwTreeFs::new()),
            OverheadProfile::syscall(),
        )),
        "ext4-sim" => Arc::new(OverheadFs::new(
            "ext4-sim",
            DcacheFs::new("ext4-dcache", AtomFs::new()),
            OverheadProfile::syscall(),
        )),
        "retryfs" => Arc::new(OverheadFs::new(
            "retryfs",
            RetryFs::new(),
            OverheadProfile::fuse(),
        )),
        "atomfs-journaled" => Arc::new(atomfs_journal::JournaledFs::create_sharded(
            Arc::new(atomfs_journal::Disk::new()),
            atomfs_journal::ShardConfig::default(),
        )),
        other => panic!("unknown file system configuration: {other}"),
    }
}

/// Every buildable configuration name (for the conformance suite).
pub const ALL_SYSTEMS: [&str; 8] = [
    "atomfs",
    "atomfs-raw",
    "atomfs-biglock",
    "dfscq-sim",
    "tmpfs-sim",
    "ext4-sim",
    "retryfs",
    "atomfs-journaled",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_configurations_build_and_work() {
        for name in ALL_SYSTEMS {
            let fs = build(name);
            fs.mkdir("/x").unwrap_or_else(|e| panic!("{name}: {e}"));
            fs.mknod("/x/f").unwrap();
            fs.write("/x/f", 0, b"ok").unwrap();
            let mut buf = [0u8; 2];
            assert_eq!(fs.read("/x/f", 0, &mut buf).unwrap(), 2, "{name}");
            fs.rename("/x/f", "/x/g").unwrap();
            assert!(fs.stat("/x/g").is_ok(), "{name}");
        }
    }
}
