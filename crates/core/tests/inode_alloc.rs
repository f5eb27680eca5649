//! Heap allocations per inode operation on a warm bare `AtomFs`. The
//! paper's inode is one block holding a fixed-size array of block
//! indexes; here an inode is several heap blocks, and these figures pin
//! what `mknod`, a one-block `write` and `unlink` cost today, so a change
//! to the inode layout shows up as an edit of them. The shared counting
//! allocator (`atomfs_obs::alloc`) counts per thread, and every
//! allocation these calls make happens on the calling thread.

use atomfs::AtomFs;
use atomfs_obs::alloc::{measure, Allocated, Counting};
use atomfs_vfs::FileSystem;

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
    let block = vec![5u8; 4096];
    // Warm: the inode table, the block store and the directory index
    // reach their working capacity.
    for i in 0..OPS {
        let path = format!("/d/warm{i}");
        fs.mknod(&path).unwrap();
        fs.write(&path, 0, &block).unwrap();
        fs.unlink(&path).unwrap();
    }

    let paths: Vec<String> = (0..OPS).map(|i| format!("/d/f{i}")).collect();
    let (mut mknod, mut write, mut unlink) = (Vec::new(), Vec::new(), Vec::new());
    for path in &paths {
        mknod.push(measure(|| fs.mknod(path).unwrap()));
        write.push(measure(|| assert_eq!(fs.write(path, 0, &block), Ok(4096))));
        unlink.push(measure(|| fs.unlink(path).unwrap()));
    }
    let pinned = [
        ("mknod", median(mknod), (5, 272)),
        ("one-block write", median(write), (3, 128)),
        ("unlink", median(unlink), (3, 104)),
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
