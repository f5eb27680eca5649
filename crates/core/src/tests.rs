//! Behavioural tests for AtomFS as a whole: POSIX semantics of every
//! operation, edge cases around the root and rename, trace protocol
//! sanity, and concurrency smoke tests. (Linearizability itself is
//! validated by the `crlh` crate's checkers; integration tests live in
//! the workspace-level `tests/` directory.)

use std::sync::Arc;

use atomfs_trace::{BufferSink, Event, FanoutSink, ShardedSink};
use atomfs_vfs::fs::FileSystemExt;
use atomfs_vfs::{FileSystem, FileType, FsError};

use crate::{AtomFs, AtomFsConfig, ROOT_INUM};

fn fs() -> AtomFs {
    AtomFs::new()
}

mod create {
    use super::*;

    #[test]
    fn mknod_and_stat() {
        let fs = fs();
        fs.mknod("/f").unwrap();
        let m = fs.stat("/f").unwrap();
        assert_eq!(m.ftype, FileType::File);
        assert_eq!(m.size, 0);
        assert_ne!(m.ino, ROOT_INUM);
    }

    #[test]
    fn mkdir_nested() {
        let fs = fs();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        fs.mkdir("/a/b/c").unwrap();
        assert!(fs.stat("/a/b/c").unwrap().ftype.is_dir());
    }

    #[test]
    fn create_duplicate_is_eexist() {
        let fs = fs();
        fs.mkdir("/a").unwrap();
        assert_eq!(fs.mkdir("/a"), Err(FsError::Exists));
        assert_eq!(fs.mknod("/a"), Err(FsError::Exists));
        fs.mknod("/f").unwrap();
        assert_eq!(fs.mknod("/f"), Err(FsError::Exists));
    }

    #[test]
    fn create_in_missing_parent_is_enoent() {
        let fs = fs();
        assert_eq!(fs.mknod("/no/f"), Err(FsError::NotFound));
        assert_eq!(fs.mkdir("/no/d"), Err(FsError::NotFound));
    }

    #[test]
    fn create_under_file_is_enotdir() {
        let fs = fs();
        fs.mknod("/f").unwrap();
        assert_eq!(fs.mknod("/f/x"), Err(FsError::NotDir));
        assert_eq!(fs.mkdir("/f/x"), Err(FsError::NotDir));
        assert_eq!(fs.mkdir("/f/x/y"), Err(FsError::NotDir));
    }

    #[test]
    fn create_root_is_eexist() {
        let fs = fs();
        assert_eq!(fs.mkdir("/"), Err(FsError::Exists));
        assert_eq!(fs.mknod("/"), Err(FsError::Exists));
    }

    #[test]
    fn inode_capacity_is_enospc() {
        let fs = AtomFs::with_config(AtomFsConfig {
            max_inodes: 3,
            max_blocks: 8,
            ..AtomFsConfig::default()
        });
        fs.mknod("/a").unwrap();
        fs.mknod("/b").unwrap();
        assert_eq!(fs.mknod("/c"), Err(FsError::NoSpace));
        fs.unlink("/a").unwrap();
        fs.mknod("/c").unwrap();
    }

    /// One thread fills every inode and block and deletes it all, which
    /// leaves the freed numbers and blocks in that thread's magazines and
    /// the depot; a second thread must still reach the full capacity.
    #[test]
    fn capacity_is_reachable_from_any_thread() {
        let fs = Arc::new(AtomFs::with_config(AtomFsConfig {
            max_inodes: 200,
            max_blocks: 199,
            ..AtomFsConfig::default()
        }));
        let fill = |fs: Arc<AtomFs>, delete: bool| {
            std::thread::spawn(move || {
                for i in 0..199 {
                    let path = format!("/f{i}");
                    fs.mknod(&path).unwrap();
                    fs.write(&path, 0, b"x").unwrap();
                }
                assert_eq!(fs.mknod("/g"), Err(FsError::NoSpace));
                assert_eq!(fs.allocated_blocks(), 199);
                if delete {
                    (0..199).for_each(|i| fs.unlink(&format!("/f{i}")).unwrap());
                }
            })
            .join()
            .unwrap();
        };
        fill(Arc::clone(&fs), true);
        assert_eq!((fs.live_inodes(), fs.allocated_blocks()), (1, 0));
        fill(Arc::clone(&fs), false);
        assert_eq!(fs.live_inodes(), 200);
    }
}

mod remove {
    use super::*;

    #[test]
    fn unlink_file() {
        let fs = fs();
        fs.mknod("/f").unwrap();
        fs.unlink("/f").unwrap();
        assert_eq!(fs.stat("/f"), Err(FsError::NotFound));
        assert_eq!(fs.unlink("/f"), Err(FsError::NotFound));
    }

    /// Both callers of the victim free — `unlink` and `rename` over an
    /// existing file — release exactly the victim's inode and blocks. The
    /// traced rows pin the free's events after the victim's `Del`: the
    /// clear of its bytes (`SetData` to empty), then its `Remove`.
    #[test]
    fn victim_free_releases_inode_and_blocks() {
        use atomfs_trace::{MicroOp, TraceSink};
        type Op = fn(&AtomFs) -> atomfs_vfs::FsResult<()>;
        let rows: [(&str, Op); 2] = [
            ("unlink", |fs| fs.unlink("/victim")),
            ("rename", |fs| fs.rename("/survivor", "/victim")),
        ];
        for (name, remove) in rows {
            for traced in [false, true] {
                let sink = Arc::new(BufferSink::new());
                let fs = if traced {
                    AtomFs::traced(Arc::clone(&sink) as Arc<dyn TraceSink>)
                } else {
                    fs()
                };
                fs.mknod("/survivor").unwrap();
                fs.write("/survivor", 0, b"kept").unwrap();
                let survivor_blocks = fs.allocated_blocks();
                fs.mknod("/victim").unwrap();
                fs.write("/victim", 0, &vec![1u8; 10_000]).unwrap();
                let victim = fs.stat("/victim").unwrap().ino;
                let live = fs.live_inodes();
                assert!(fs.allocated_blocks() >= survivor_blocks + 3);
                sink.take();

                remove(&fs).unwrap();
                assert_eq!(fs.live_inodes(), live - 1, "{name}");
                assert_eq!(fs.allocated_blocks(), survivor_blocks, "{name}");
                let mops: Vec<MicroOp> = sink
                    .take()
                    .into_iter()
                    .filter_map(|e| match e {
                        Event::Mutate { mop, .. } => Some(mop),
                        _ => None,
                    })
                    .collect();
                if !traced {
                    assert!(mops.is_empty());
                    continue;
                }
                let del = mops
                    .iter()
                    .position(|m| matches!(m, MicroOp::Del { child, .. } if *child == victim))
                    .unwrap_or_else(|| panic!("{name}: no Del of the victim"));
                assert!(
                    matches!(&mops[del + 1], MicroOp::SetData { ino, old, new }
                        if *ino == victim && old.len() == 10_000 && new.is_empty()),
                    "{name}: {mops:?}"
                );
                assert!(
                    matches!(&mops[del + 2], MicroOp::Remove { ino, ftype: FileType::File }
                        if *ino == victim),
                    "{name}: {mops:?}"
                );
            }
        }
    }

    #[test]
    fn unlink_dir_is_eisdir() {
        let fs = fs();
        fs.mkdir("/d").unwrap();
        assert_eq!(fs.unlink("/d"), Err(FsError::IsDir));
    }

    #[test]
    fn rmdir_file_is_enotdir() {
        let fs = fs();
        fs.mknod("/f").unwrap();
        assert_eq!(fs.rmdir("/f"), Err(FsError::NotDir));
    }

    #[test]
    fn rmdir_nonempty_is_enotempty() {
        let fs = fs();
        fs.mkdir("/d").unwrap();
        fs.mknod("/d/f").unwrap();
        assert_eq!(fs.rmdir("/d"), Err(FsError::NotEmpty));
        fs.unlink("/d/f").unwrap();
        fs.rmdir("/d").unwrap();
    }

    #[test]
    fn remove_root_fails() {
        let fs = fs();
        assert_eq!(fs.rmdir("/"), Err(FsError::Busy));
        assert_eq!(fs.unlink("/"), Err(FsError::IsDir));
    }
}

mod rename {
    use super::*;

    #[test]
    fn rename_file_same_dir() {
        let fs = fs();
        fs.mknod("/a").unwrap();
        fs.write("/a", 0, b"data").unwrap();
        fs.rename("/a", "/b").unwrap();
        assert_eq!(fs.stat("/a"), Err(FsError::NotFound));
        assert_eq!(fs.read_to_vec("/b").unwrap(), b"data");
    }

    #[test]
    fn rename_file_across_dirs() {
        let fs = fs();
        fs.mkdir("/x").unwrap();
        fs.mkdir("/y").unwrap();
        fs.mknod("/x/f").unwrap();
        fs.rename("/x/f", "/y/g").unwrap();
        assert!(fs.exists("/y/g"));
        assert!(!fs.exists("/x/f"));
    }

    #[test]
    fn rename_dir_moves_subtree() {
        let fs = fs();
        fs.mkdir_all("/a/b/c").unwrap();
        fs.mknod("/a/b/c/f").unwrap();
        fs.mkdir("/z").unwrap();
        fs.rename("/a/b", "/z/b2").unwrap();
        assert!(fs.exists("/z/b2/c/f"));
        assert!(!fs.exists("/a/b"));
        assert!(fs.exists("/a"));
    }

    #[test]
    fn rename_over_existing_file_replaces() {
        let fs = fs();
        fs.mknod("/a").unwrap();
        fs.write("/a", 0, b"new").unwrap();
        fs.mknod("/b").unwrap();
        fs.write("/b", 0, b"old").unwrap();
        let live = fs.live_inodes();
        fs.rename("/a", "/b").unwrap();
        assert_eq!(fs.read_to_vec("/b").unwrap(), b"new");
        assert_eq!(fs.live_inodes(), live - 1, "victim inode freed");
        assert!(!fs.exists("/a"));
    }

    #[test]
    fn rename_dir_over_empty_dir() {
        let fs = fs();
        fs.mkdir("/a").unwrap();
        fs.mknod("/a/f").unwrap();
        fs.mkdir("/b").unwrap();
        fs.rename("/a", "/b").unwrap();
        assert!(fs.exists("/b/f"));
    }

    #[test]
    fn rename_dir_over_nonempty_dir_is_enotempty() {
        let fs = fs();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/b").unwrap();
        fs.mknod("/b/f").unwrap();
        assert_eq!(fs.rename("/a", "/b"), Err(FsError::NotEmpty));
    }

    #[test]
    fn rename_dir_over_file_is_enotdir() {
        let fs = fs();
        fs.mkdir("/d").unwrap();
        fs.mknod("/f").unwrap();
        assert_eq!(fs.rename("/d", "/f"), Err(FsError::NotDir));
    }

    #[test]
    fn rename_file_over_dir_is_eisdir() {
        let fs = fs();
        fs.mknod("/f").unwrap();
        fs.mkdir("/d").unwrap();
        assert_eq!(fs.rename("/f", "/d"), Err(FsError::IsDir));
    }

    #[test]
    fn rename_into_own_subtree_is_einval() {
        let fs = fs();
        fs.mkdir_all("/a/b").unwrap();
        assert_eq!(fs.rename("/a", "/a/b/c"), Err(FsError::InvalidArgument));
        assert_eq!(fs.rename("/a", "/a/x"), Err(FsError::InvalidArgument));
    }

    #[test]
    fn rename_onto_own_ancestor_is_enotempty() {
        let fs = fs();
        fs.mkdir_all("/a/b/c").unwrap();
        assert_eq!(fs.rename("/a/b/c", "/a"), Err(FsError::NotEmpty));
        assert_eq!(fs.rename("/a/b/c", "/a/b"), Err(FsError::NotEmpty));
    }

    #[test]
    fn rename_to_self_succeeds_iff_exists() {
        let fs = fs();
        fs.mkdir("/a").unwrap();
        fs.rename("/a", "/a").unwrap();
        assert_eq!(fs.rename("/nope", "/nope"), Err(FsError::NotFound));
        assert!(fs.exists("/a"));
    }

    #[test]
    fn rename_missing_src_is_enoent() {
        let fs = fs();
        fs.mkdir("/d").unwrap();
        assert_eq!(fs.rename("/nope", "/d/x"), Err(FsError::NotFound));
        assert_eq!(fs.rename("/d/nope", "/x"), Err(FsError::NotFound));
    }

    #[test]
    fn rename_into_missing_parent_is_enoent() {
        let fs = fs();
        fs.mknod("/f").unwrap();
        assert_eq!(fs.rename("/f", "/no/g"), Err(FsError::NotFound));
    }

    #[test]
    fn rename_root_is_ebusy() {
        let fs = fs();
        fs.mkdir("/d").unwrap();
        assert_eq!(fs.rename("/", "/d/r"), Err(FsError::Busy));
        assert_eq!(fs.rename("/d", "/"), Err(FsError::Busy));
    }

    #[test]
    fn rename_deep_cross_directory() {
        let fs = fs();
        fs.mkdir_all("/p/q/r").unwrap();
        fs.mkdir_all("/x/y").unwrap();
        fs.mknod("/p/q/r/file").unwrap();
        fs.rename("/p/q/r/file", "/x/y/file2").unwrap();
        assert!(fs.exists("/x/y/file2"));
        // Directory link counts stay correct after the move.
        assert_eq!(fs.stat("/p/q/r").unwrap().size, 0);
        assert_eq!(fs.stat("/x/y").unwrap().size, 1);
    }

    #[test]
    fn rename_dir_updates_subdir_counts() {
        let fs = fs();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/b").unwrap();
        fs.mkdir("/a/sub").unwrap();
        let a_before = fs.stat("/a").unwrap().nlink;
        let b_before = fs.stat("/b").unwrap().nlink;
        fs.rename("/a/sub", "/b/sub").unwrap();
        assert_eq!(fs.stat("/a").unwrap().nlink, a_before - 1);
        assert_eq!(fs.stat("/b").unwrap().nlink, b_before + 1);
    }
}

mod io {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let fs = fs();
        fs.mknod("/f").unwrap();
        assert_eq!(fs.write("/f", 0, b"hello world").unwrap(), 11);
        let mut buf = [0u8; 5];
        assert_eq!(fs.read("/f", 6, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"world");
    }

    #[test]
    fn large_file_io() {
        let fs = fs();
        fs.mknod("/big").unwrap();
        let data: Vec<u8> = (0..1_000_000u32).map(|i| (i % 253) as u8).collect();
        fs.write("/big", 0, &data).unwrap();
        assert_eq!(fs.stat("/big").unwrap().size, 1_000_000);
        assert_eq!(fs.read_to_vec("/big").unwrap(), data);
    }

    #[test]
    fn read_write_dir_fails() {
        let fs = fs();
        fs.mkdir("/d").unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(fs.read("/d", 0, &mut buf), Err(FsError::IsDir));
        assert_eq!(fs.write("/d", 0, b"x"), Err(FsError::IsDir));
        assert_eq!(fs.truncate("/d", 0), Err(FsError::IsDir));
    }

    #[test]
    fn truncate_shrinks_and_grows() {
        let fs = fs();
        fs.mknod("/f").unwrap();
        fs.write("/f", 0, b"0123456789").unwrap();
        fs.truncate("/f", 4).unwrap();
        assert_eq!(fs.read_to_vec("/f").unwrap(), b"0123");
        fs.truncate("/f", 8).unwrap();
        assert_eq!(fs.read_to_vec("/f").unwrap(), b"0123\0\0\0\0");
    }

    #[test]
    fn readdir_lists_entries() {
        let fs = fs();
        fs.mkdir("/d").unwrap();
        fs.mknod("/d/a").unwrap();
        fs.mkdir("/d/b").unwrap();
        let mut names = fs.readdir("/d").unwrap();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(fs.readdir("/d/a"), Err(FsError::NotDir));
    }

    #[test]
    fn readdir_root() {
        let fs = fs();
        assert!(fs.readdir("/").unwrap().is_empty());
        fs.mknod("/x").unwrap();
        assert_eq!(fs.readdir("/").unwrap(), vec!["x"]);
    }

    #[test]
    fn block_capacity_is_enospc() {
        let fs = AtomFs::with_config(AtomFsConfig {
            max_inodes: 16,
            max_blocks: 2,
            ..AtomFsConfig::default()
        });
        fs.mknod("/f").unwrap();
        fs.write("/f", 0, &vec![1u8; 8192]).unwrap();
        assert_eq!(fs.write("/f", 8192, b"x"), Err(FsError::NoSpace));
    }
}

mod paths {
    use super::*;

    #[test]
    fn dot_and_dotdot_resolve_lexically() {
        let fs = fs();
        fs.mkdir("/a").unwrap();
        fs.mknod("/a/./f").unwrap();
        assert!(fs.exists("/a/f"));
        assert!(fs.exists("/a/b/../f"));
        assert!(fs.exists("//a///f"));
    }

    #[test]
    fn relative_paths_rejected() {
        let fs = fs();
        assert_eq!(fs.mkdir("rel"), Err(FsError::InvalidArgument));
        assert_eq!(fs.stat(""), Err(FsError::InvalidArgument));
    }

    #[test]
    fn long_component_rejected() {
        let fs = fs();
        let long = format!("/{}", "x".repeat(300));
        assert_eq!(fs.mknod(&long), Err(FsError::NameTooLong));
    }
}

mod tracing {
    use super::*;

    /// A traced instance with the optimistic fast path disabled: these
    /// tests pin the *pessimistic* lock-coupling protocol shape.
    fn traced_pessimistic(sink: Arc<dyn atomfs_trace::TraceSink>) -> AtomFs {
        AtomFs::traced_with_config(
            sink,
            AtomFsConfig {
                optimistic: false,
                ..AtomFsConfig::default()
            },
        )
    }

    #[test]
    fn traced_fs_emits_protocol_shape() {
        let sink = Arc::new(BufferSink::new());
        let fs = traced_pessimistic(Arc::clone(&sink) as Arc<dyn atomfs_trace::TraceSink>);
        fs.mkdir("/a").unwrap();
        let events = sink.take();
        // OpBegin, Lock(root), Mutate(create), Mutate(ins), Lp, Unlock, OpEnd.
        assert!(matches!(events[0], Event::OpBegin { .. }));
        assert!(matches!(events[1], Event::Lock { ino: ROOT_INUM, .. }));
        assert!(matches!(&events[2], Event::Mutate { mop, .. }
            if matches!(mop, atomfs_trace::MicroOp::Create { .. })));
        assert!(matches!(&events[3], Event::Mutate { mop, .. }
            if matches!(mop, atomfs_trace::MicroOp::Ins { .. })));
        assert!(matches!(events[4], Event::Lp { .. }));
        assert!(matches!(events[5], Event::Unlock { ino: ROOT_INUM, .. }));
        assert!(matches!(events[6], Event::OpEnd { .. }));
        assert_eq!(events.len(), 7);
    }

    #[test]
    fn every_lock_has_matching_unlock() {
        let sink = Arc::new(BufferSink::new());
        let fs = AtomFs::traced(Arc::clone(&sink) as Arc<dyn atomfs_trace::TraceSink>);
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        fs.mknod("/a/b/f").unwrap();
        fs.write("/a/b/f", 0, b"x").unwrap();
        fs.rename("/a/b/f", "/a/g").unwrap();
        fs.unlink("/a/g").unwrap();
        fs.rmdir("/a/b").unwrap();
        let _ = fs.stat("/missing");
        let _ = fs.rename("/a", "/a/sub"); // EINVAL, stateless
        let mut held = std::collections::HashMap::new();
        for e in sink.take() {
            let locked = match e {
                Event::Lock { ino, .. } => Some(ino),
                // A granted fast-path claim announces the lock it holds.
                Event::OptValidate {
                    chain,
                    locked: true,
                    ok: true,
                    ..
                } => chain.last().copied(),
                Event::Unlock { ino, .. } => {
                    assert!(held.remove(&ino).is_some(), "unlock without lock of {ino}");
                    None
                }
                _ => None,
            };
            if let Some(ino) = locked {
                assert!(held.insert(ino, ()).is_none(), "double lock of {ino}");
            }
        }
        assert!(held.is_empty(), "locks left held: {held:?}");
    }

    #[test]
    fn every_op_has_exactly_one_lp() {
        let sink = Arc::new(BufferSink::new());
        let fs = traced_pessimistic(Arc::clone(&sink) as Arc<dyn atomfs_trace::TraceSink>);
        fs.mkdir("/a").unwrap();
        let _ = fs.mkdir("/a"); // EEXIST
        fs.mknod("/a/f").unwrap();
        let _ = fs.stat("/a/f");
        let _ = fs.readdir("/a");
        let _ = fs.rename("/a/f", "/a/g");
        let _ = fs.unlink("/a/g");
        let _ = fs.rmdir("/a");
        let events = sink.take();
        let begins = events
            .iter()
            .filter(|e| matches!(e, Event::OpBegin { .. }))
            .count();
        let lps = events
            .iter()
            .filter(|e| matches!(e, Event::Lp { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e, Event::OpEnd { .. }))
            .count();
        assert_eq!(begins, 8);
        assert_eq!(lps, 8, "exactly one LP per operation");
        assert_eq!(ends, 8);
    }

    /// The optimistic fast-path protocol shapes: a mutation's one claim
    /// carries its walked chain and announces the parent lock it holds;
    /// a fully lockless read has no `Lock` and no `Lp` at all — its
    /// successful `OptValidate` is the linearization point.
    #[test]
    fn fast_path_emits_optimistic_protocol_shape() {
        let sink = Arc::new(BufferSink::new());
        let fs = AtomFs::traced(Arc::clone(&sink) as Arc<dyn atomfs_trace::TraceSink>);
        fs.mkdir("/a").unwrap();
        let events = sink.take();
        // OpBegin, OptValidate([root], locked), Mutate(create),
        // Mutate(ins), Lp, Unlock, OpEnd.
        assert!(matches!(events[0], Event::OpBegin { .. }));
        assert!(
            matches!(&events[1], Event::OptValidate { chain, locked: true, ok: true, .. }
            if *chain == [ROOT_INUM])
        );
        assert!(matches!(&events[2], Event::Mutate { mop, .. }
            if matches!(mop, atomfs_trace::MicroOp::Create { .. })));
        assert!(matches!(&events[3], Event::Mutate { mop, .. }
            if matches!(mop, atomfs_trace::MicroOp::Ins { .. })));
        assert!(matches!(events[4], Event::Lp { .. }));
        assert!(matches!(events[5], Event::Unlock { ino: ROOT_INUM, .. }));
        assert!(matches!(events[6], Event::OpEnd { .. }));
        assert_eq!(events.len(), 7);

        let a = fs.stat("/a").unwrap().ino;
        let events = sink.take();
        // OpBegin, OptValidate([root, a]), OpEnd — zero locks, zero Lp.
        assert!(matches!(events[0], Event::OpBegin { .. }));
        assert!(
            matches!(&events[1], Event::OptValidate { chain, locked: false, ok: true, .. }
            if *chain == [ROOT_INUM, a])
        );
        assert!(matches!(events[2], Event::OpEnd { .. }));
        assert_eq!(events.len(), 3);
    }

    /// Read-only fast-path completions linearize at their claim: one
    /// successful `OptValidate` and no `Lp` per lockless op.
    #[test]
    fn lockless_ops_claim_instead_of_lp() {
        let sink = Arc::new(BufferSink::new());
        let fs = AtomFs::traced(Arc::clone(&sink) as Arc<dyn atomfs_trace::TraceSink>);
        fs.mkdir("/a").unwrap();
        fs.mknod("/a/f").unwrap();
        sink.take();
        fs.stat("/a/f").unwrap();
        let _ = fs.readdir("/a").unwrap();
        let _ = fs.stat("/missing");
        let events = sink.take();
        let lps = events
            .iter()
            .filter(|e| matches!(e, Event::Lp { .. }))
            .count();
        let claims = events
            .iter()
            .filter(|e| matches!(e, Event::OptValidate { ok: true, .. }))
            .count();
        assert_eq!(lps, 0, "lockless completions have no separate Lp");
        assert_eq!(claims, 3, "each lockless op claims exactly once");
    }

    #[test]
    fn untraced_fs_has_no_sink_overhead_paths() {
        let fs = AtomFs::new();
        assert!(!fs.is_traced());
        fs.mkdir("/a").unwrap();
    }

    #[test]
    fn sharded_sink_records_same_protocol_shape() {
        let sink = Arc::new(ShardedSink::new());
        let fs = traced_pessimistic(Arc::clone(&sink) as Arc<dyn atomfs_trace::TraceSink>);
        fs.mkdir("/a").unwrap();
        let events = sink.take();
        assert!(matches!(events[0], Event::OpBegin { .. }));
        assert!(matches!(events[1], Event::Lock { ino: ROOT_INUM, .. }));
        assert!(matches!(&events[2], Event::Mutate { mop, .. }
            if matches!(mop, atomfs_trace::MicroOp::Create { .. })));
        assert!(matches!(&events[3], Event::Mutate { mop, .. }
            if matches!(mop, atomfs_trace::MicroOp::Ins { .. })));
        assert!(matches!(events[4], Event::Lp { .. }));
        assert!(matches!(events[5], Event::Unlock { ino: ROOT_INUM, .. }));
        assert!(matches!(events[6], Event::OpEnd { .. }));
        assert_eq!(events.len(), 7);
    }

    /// Fan the same execution into both recorders: the sharded merge must
    /// reproduce the reference `BufferSink` order exactly (single thread,
    /// so the total order is unambiguous).
    #[test]
    fn sharded_take_matches_buffer_take_single_thread() {
        let buffer = Arc::new(BufferSink::new());
        let sharded = Arc::new(ShardedSink::new());
        let fanout = FanoutSink(vec![
            Arc::clone(&buffer) as Arc<dyn atomfs_trace::TraceSink>,
            Arc::clone(&sharded) as Arc<dyn atomfs_trace::TraceSink>,
        ]);
        let fs = AtomFs::traced(Arc::new(fanout) as Arc<dyn atomfs_trace::TraceSink>);
        fs.mkdir("/a").unwrap();
        fs.mknod("/a/f").unwrap();
        fs.write("/a/f", 0, b"payload").unwrap();
        fs.rename("/a/f", "/a/g").unwrap();
        let _ = fs.stat("/missing");
        fs.unlink("/a/g").unwrap();
        assert_eq!(buffer.len(), sharded.len());
        assert_eq!(buffer.take(), sharded.take());
        assert!(sharded.is_empty());
    }
}

mod concurrency {
    use super::*;

    #[test]
    fn parallel_creates_in_distinct_dirs() {
        let fs = Arc::new(fs());
        for i in 0..8 {
            fs.mkdir(&format!("/d{i}")).unwrap();
        }
        let mut handles = Vec::new();
        for i in 0..8 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                for j in 0..100 {
                    fs.mknod(&format!("/d{i}/f{j}")).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..8 {
            assert_eq!(fs.readdir(&format!("/d{i}")).unwrap().len(), 100);
        }
    }

    #[test]
    fn parallel_creates_in_same_dir() {
        let fs = Arc::new(fs());
        fs.mkdir("/d").unwrap();
        let mut handles = Vec::new();
        for t in 0..8 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                for j in 0..100 {
                    fs.mknod(&format!("/d/t{t}_{j}")).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fs.readdir("/d").unwrap().len(), 800);
    }

    #[test]
    fn racing_creates_one_winner() {
        let fs = Arc::new(fs());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || fs.mknod("/same")));
        }
        let oks = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|r| r.is_ok())
            .count();
        assert_eq!(oks, 1, "exactly one create must win");
    }

    #[test]
    fn concurrent_renames_do_not_deadlock() {
        // Crossing renames between two directories, plus walkers.
        let fs = Arc::new(fs());
        fs.mkdir("/a").unwrap();
        fs.mkdir("/b").unwrap();
        for i in 0..10 {
            fs.mknod(&format!("/a/f{i}")).unwrap();
            fs.mknod(&format!("/b/g{i}")).unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..4 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                for i in 0..10 {
                    let _ = fs.rename(&format!("/a/f{i}"), &format!("/b/f{i}_{t}"));
                    let _ = fs.rename(&format!("/b/g{i}"), &format!("/a/g{i}_{t}"));
                    let _ = fs.stat(&format!("/a/g{i}_{t}"));
                    let _ = fs.readdir("/b");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every file still exists exactly once somewhere.
        let total = fs.readdir("/a").unwrap().len() + fs.readdir("/b").unwrap().len();
        assert_eq!(total, 20);
    }

    #[test]
    fn concurrent_subtree_renames_do_not_deadlock() {
        // Renames whose paths overlap (shared ancestors) — exercises the
        // common-inode locking discipline of §5.2.
        let fs = Arc::new(fs());
        fs.mkdir_all("/r/x/y").unwrap();
        fs.mkdir_all("/r/z").unwrap();
        for i in 0..5 {
            fs.mkdir(&format!("/r/x/y/d{i}")).unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                for i in 0..5 {
                    let _ = fs.rename(&format!("/r/x/y/d{i}"), &format!("/r/z/d{i}_{t}"));
                    let _ = fs.rename(&format!("/r/z/d{i}_{t}"), &format!("/r/x/y/d{i}"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn mixed_workload_smoke() {
        let fs = Arc::new(fs());
        fs.mkdir("/w").unwrap();
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                let p = format!("/w/file{t}");
                for i in 0..50u32 {
                    fs.mknod(&p).unwrap();
                    fs.write(&p, 0, &i.to_le_bytes()).unwrap();
                    let mut buf = [0u8; 4];
                    assert_eq!(fs.read(&p, 0, &mut buf).unwrap(), 4);
                    assert_eq!(u32::from_le_bytes(buf), i);
                    fs.unlink(&p).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(fs.readdir("/w").unwrap().is_empty());
    }
}

/// Unlinked inodes are freed once no reader can reach them, and pinned
/// readers' borrows stay valid until they unpin.
mod reclaim {
    use super::*;
    use crate::epoch;
    use crate::table::{InodeRef, InodeSlot};
    use crate::Inum;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Weak;

    /// The inode linked at `/dir/name`, if any.
    fn weak_child(fs: &AtomFs, dir: &str, name: &str) -> Option<Weak<InodeSlot>> {
        let guard = epoch::pin();
        let root = fs.table.root_ref().dir()?;
        let (_, d) = root.lookup(&guard, dir)?;
        let (_, c) = d.dir()?.lookup(&guard, name)?;
        Some(Arc::downgrade(c))
    }

    /// `local_meta`'s cycle — create, write 4 KiB, append 1 KiB, read the
    /// whole file, stat, unlink — `n` times in one directory beside
    /// eight live files. How many unlinked inodes stay allocated must
    /// not grow with `n`.
    fn retained_after(n: usize) -> usize {
        let fs = fs();
        fs.mkdir("/d").unwrap();
        for i in 0..8 {
            fs.mknod(&format!("/d/keep{i}")).unwrap();
        }
        let (data, mut buf) = (vec![7u8; 4096], vec![0u8; 5120]);
        let mut weak = Vec::with_capacity(n);
        for i in 0..n {
            let name = format!("f{}", i % 16);
            let p = format!("/d/{name}");
            fs.mknod(&p).unwrap();
            fs.write(&p, 0, &data).unwrap();
            fs.write(&p, 4096, &data[..1024]).unwrap();
            assert_eq!(fs.read(&p, 0, &mut buf).unwrap(), 5120);
            assert_eq!(fs.stat(&p).unwrap().size, 5120);
            weak.push(weak_child(&fs, "d", &name).expect("just created"));
            fs.unlink(&p).unwrap();
        }
        assert_eq!(fs.table.live(), 10, "root, /d and its eight files");
        epoch::tests::flush();
        weak.iter().filter(|w| w.strong_count() > 0).count()
    }

    /// Every unlink retires its victim, so once the epoch has moved past
    /// them none is left, at either cycle count.
    #[test]
    fn unlinked_inodes_are_freed() {
        for n in [1_000, 10_000] {
            assert_eq!(
                retained_after(n),
                0,
                "unlinked inodes retained after {n} cycles"
            );
        }
    }

    /// Readers pin, borrow children of `/d` straight out of its index and
    /// keep dereferencing them — number, sequence counter and, for a
    /// directory, its own index — while a writer creates and removes
    /// files and directories there, growing and retiring the index many
    /// times, and other readers run the lockless fast path. A table or
    /// inode freed before its readers unpin turns into a use-after-free,
    /// which the sanitizer build reports.
    #[test]
    fn pinned_borrows_survive_churn() {
        let fs = Arc::new(fs());
        fs.mkdir("/d").unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let (fs, stop) = (Arc::clone(&fs), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut buf = [0u8; 8];
                    while !stop.load(Ordering::Relaxed) {
                        let guard = epoch::pin();
                        let root = fs.table.root_ref().dir().unwrap();
                        let (_, d) = root.lookup(&guard, "d").unwrap();
                        let held: Vec<(Inum, &InodeRef)> = (0..8)
                            .flat_map(|i| [format!("f{i}"), format!("g{i}")])
                            .filter_map(|n| d.dir().unwrap().lookup(&guard, &n))
                            .collect();
                        for _ in 0..50 {
                            for &(ino, r) in &held {
                                assert_eq!(r.ino(), ino, "borrow changed under the pin");
                                std::hint::black_box(r.seq_read());
                                if let Some(sub) = r.dir() {
                                    assert!(sub.lookup(&guard, "x").is_none());
                                }
                            }
                        }
                        drop(held);
                        drop(guard);
                        let _ = fs.stat("/d/f3");
                        let _ = fs.read("/d/f5", 0, &mut buf);
                        let _ = fs.readdir("/d");
                    }
                })
            })
            .collect();
        for i in 0..3_000 {
            let (f, g) = (format!("/d/f{}", i % 8), format!("/d/g{}", i % 8));
            fs.mknod(&f).unwrap();
            fs.write(&f, 0, b"churning").unwrap();
            fs.mkdir(&g).unwrap();
            fs.unlink(&f).unwrap();
            fs.rmdir(&g).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(fs.table.live(), 2);
    }
}
