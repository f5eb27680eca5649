//! Heap allocations per inode operation on a warm bare `AtomFs`. The
//! paper's inode is one block holding its lock and a fixed-size array of
//! block indexes. Here too an inode is one heap block, its slot, which
//! holds the lock and the first block indices inline; the path's
//! components and the optimistic walk's chain stay on the stack. So a
//! warm `stat`, `read`, `write`, `truncate` or `unlink` allocates
//! nothing, and `mknod` allocates the slot and the entry's name. These
//! figures pin that, so a change to the layout shows up as an edit of
//! them. The shared counting allocator (`atomfs_obs::alloc`) counts per
//! thread, and every allocation these calls make happens on the calling
//! thread.

use atomfs::blocks::BLOCK_SIZE;
use atomfs::inode::INLINE_BLOCKS;
use atomfs::AtomFs;
use atomfs_obs::alloc::{measure, Allocated, Counting};
use atomfs_vfs::{FileSystem, FsError};

#[global_allocator]
static A: Counting = Counting;

const OPS: usize = 100;

/// The median of `samples` in (allocations, bytes) order: the steady
/// state, past the occasional call that grows a table or an index.
fn median(mut samples: Vec<Allocated>) -> Allocated {
    samples.sort_by_key(|a| (a.allocs, a.bytes));
    samples[samples.len() / 2]
}

#[test]
fn inode_ops_allocate_a_pinned_steady_state() {
    let fs = AtomFs::new();
    fs.mkdir("/d").unwrap();
    let block = vec![5u8; BLOCK_SIZE];
    let kib = vec![6u8; 1024];
    // One block more than the inode holds inline.
    let spill = vec![7u8; BLOCK_SIZE * (INLINE_BLOCKS + 1)];
    let mut buf = vec![0u8; BLOCK_SIZE * 2];
    // Warm: the inode table, the block store, the directory index and
    // the epoch's bags reach their working capacity.
    for i in 0..OPS {
        let path = format!("/d/warm{i}");
        fs.mknod(&path).unwrap();
        fs.write(&path, 0, &spill).unwrap();
        fs.unlink(&path).unwrap();
    }

    let paths: Vec<String> = (0..OPS).map(|i| format!("/d/f{i}")).collect();
    let missing = "/d/missing";
    let mut m: [Vec<Allocated>; 9] = Default::default();
    for path in &paths {
        m[0].push(measure(|| fs.mknod(path).unwrap()));
        m[1].push(measure(|| {
            assert_eq!(fs.write(path, 0, &block), Ok(BLOCK_SIZE))
        }));
        m[2].push(measure(|| {
            assert_eq!(fs.write(path, BLOCK_SIZE as u64, &kib), Ok(1024))
        }));
        m[3].push(measure(|| {
            assert_eq!(fs.stat(path).map(|s| s.size), Ok(BLOCK_SIZE as u64 + 1024))
        }));
        m[4].push(measure(|| {
            assert_eq!(fs.read(path, 0, &mut buf), Ok(BLOCK_SIZE + 1024))
        }));
        m[5].push(measure(|| {
            assert_eq!(fs.stat(missing), Err(FsError::NotFound))
        }));
        m[6].push(measure(|| {
            assert_eq!(fs.write(path, 0, &spill), Ok(spill.len()))
        }));
        m[7].push(measure(|| fs.truncate(path, 100).unwrap()));
        m[8].push(measure(|| fs.unlink(path).unwrap()));
    }
    let [mknod, write, append, stat, read, enoent, spilled, truncate, unlink] = m;
    // The spill reserves the whole index once: one `u32` per block.
    let spill_bytes = (INLINE_BLOCKS + 1) * std::mem::size_of::<u32>();
    let pinned = [
        ("mknod", median(mknod), (2, 160)),
        ("one-block write", median(write), (0, 0)),
        ("1 KiB append", median(append), (0, 0)),
        ("stat", median(stat), (0, 0)),
        ("whole-file read", median(read), (0, 0)),
        ("ENOENT lookup", median(enoent), (0, 0)),
        (
            "write past the inline index",
            median(spilled),
            (1, spill_bytes),
        ),
        ("truncate", median(truncate), (0, 0)),
        ("unlink", median(unlink), (0, 0)),
    ];
    for (op, got, (allocs, bytes)) in pinned {
        println!("{op}: {} allocations, {} bytes", got.allocs, got.bytes);
        assert_eq!(
            (got.allocs, got.bytes),
            (allocs, bytes),
            "{op}: median (allocations, bytes) over {OPS} warm calls"
        );
    }
}
