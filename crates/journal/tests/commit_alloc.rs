//! Bytes allocated on the journal's commit path. The simulated disk
//! writes through to its pages, so a flush barrier allocates nothing,
//! and a commit streams each frame into sectors, so a `sync` allocates
//! about the pages its log growth lands in: no whole-frame buffer and no
//! per-sector volatile copy. A counting global allocator pins both; it
//! counts per thread (the syncing thread leads its own commit), so tests
//! running beside each other do not disturb the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use atomfs_journal::device::SECTOR_SIZE;
use atomfs_journal::{BlockDevice, Disk, JournaledFs, ShardConfig};
use atomfs_vfs::FileSystem;

struct Counting;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes));
}

fn allocated() -> usize {
    BYTES.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments,
// so `System`'s guarantees hold; the counter is a const-initialised
// thread-local `Cell` and touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static A: Counting = Counting;

const KIB: usize = 1024;

/// The bytes `f` allocates on this thread.
fn bytes_of<R>(f: impl FnOnce() -> R) -> usize {
    let before = allocated();
    let r = f();
    let spent = allocated() - before;
    drop(r);
    spent
}

#[test]
fn flush_barrier_allocates_nothing() {
    let disk = Disk::new();
    for round in 0..3u8 {
        // Fresh sectors, and rewrites of durable and of unflushed ones.
        for lba in 0..300 {
            disk.write(lba % 200, &[round; SECTOR_SIZE]);
        }
        assert_eq!(bytes_of(|| disk.flush()), 0, "round {round}");
    }
    assert_eq!(bytes_of(|| disk.flush()), 0, "empty barrier");
}

#[test]
fn sync_allocates_about_its_durable_growth() {
    let disk = Arc::new(Disk::new());
    let fs = JournaledFs::create_sharded(disk as Arc<dyn BlockDevice>, ShardConfig::default());
    let chunk = vec![0xA5u8; 64 * KIB];
    let mut staged = 0;
    for i in 0..64 {
        let path = format!("/f{i}");
        fs.mknod(&path).unwrap();
        fs.write(&path, 0, &chunk).unwrap();
        staged += chunk.len();
    }
    let before = fs.log_bytes();
    let spent = bytes_of(|| fs.sync().expect("a perfect disk"));
    let growth = (fs.log_bytes() - before) as usize;
    assert!(
        growth > staged,
        "the epoch logged its {staged} staged bytes"
    );
    // The log's pages (32 KiB each, one partly used at either end of
    // each of the four regions), plus the window's write log (16 bytes a
    // sector, grown by doubling: ~4.9 MB in all for ~4.2 MB of log) and
    // the commit's bookkeeping. A whole-frame buffer would add 1x the
    // growth, per-sector volatile copies another 1-2x.
    let bound = growth + growth / 4 + 8 * 33 * KIB;
    assert!(
        spent <= bound,
        "sync of {growth} log bytes allocated {spent} bytes (bound {bound})"
    );
}
