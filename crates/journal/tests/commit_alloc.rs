//! Bytes allocated on the journal's commit path. The simulated disk
//! writes through to its pages, so a flush barrier allocates nothing,
//! and a commit streams each frame into sectors, so a `sync` allocates
//! about the pages its log growth lands in: no whole-frame buffer and no
//! per-sector volatile copy. The shared counting allocator
//! (`atomfs_obs::alloc`) pins both; it counts per thread (the syncing
//! thread leads its own commit), so tests running beside each other do
//! not disturb the figures.

use std::sync::Arc;

use atomfs_journal::device::SECTOR_SIZE;
use atomfs_journal::{BlockDevice, Disk, JournaledFs, ShardConfig};
use atomfs_obs::alloc::{measure, Counting};
use atomfs_vfs::FileSystem;

#[global_allocator]
static A: Counting = Counting;

const KIB: usize = 1024;

#[test]
fn flush_barrier_allocates_nothing() {
    let disk = Disk::new();
    for round in 0..3u8 {
        // Fresh sectors, and rewrites of durable and of unflushed ones.
        for lba in 0..300 {
            disk.write(lba % 200, &[round; SECTOR_SIZE]);
        }
        assert_eq!(measure(|| disk.flush()).bytes, 0, "round {round}");
    }
    assert_eq!(measure(|| disk.flush()).bytes, 0, "empty barrier");
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
    let spent = measure(|| fs.sync().expect("a perfect disk")).bytes;
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
