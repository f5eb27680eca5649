//! Block store substrate.
//!
//! The paper's AtomFS stores file data in "a fixed-size array of indexes"
//! per file over an in-memory block pool (§6). This module implements that
//! pool: fixed-size blocks with per-block locks, so data copies never
//! serialize unrelated files. A file's inode holds an index array into
//! this store (see [`crate::inode::FileData`]); the index array is bounded
//! by [`MAX_BLOCKS_PER_FILE`], giving the same fixed maximum file size the
//! paper's layout implies.
//!
//! # What is shared, what is per thread
//!
//! * **Block access** shares nothing mutable. Blocks live in chunks of
//!   1 024, created on first use; the chunk table is a slice of
//!   `OnceLock`s sized for the whole capacity up front, so finding a
//!   block is one acquire load — no lock, no reference count.
//! * **Allocation and free** go through the core's per-thread magazine
//!   allocator (`crate::magazine`): a thread frees into and allocates
//!   from its own bounded magazine, and only a magazine's overflow or
//!   refill (one in 32 operations at worst) takes the shared depot lock.
//!   Fresh indices come from one atomic counter and are already zero; a
//!   recycled block is zeroed as it is handed out, so [`BlockStore::alloc`]
//!   always returns zeroes.
//! * **`ENOSPC`** ([`FsError::NoSpace`]) fires only when every block of
//!   the capacity is allocated: before failing, an allocation that finds
//!   no fresh index left steals from every other thread's magazine.
//!
//! Concurrency contract: callers access a file's blocks only while holding
//! that file's inode lock, so per-block locks are uncontended in practice;
//! they exist so the store itself is safe regardless of caller discipline.

use std::sync::OnceLock;

use parking_lot::Mutex;

use atomfs_vfs::{FsError, FsResult};

use crate::magazine::Magazines;

/// Bytes per block.
pub const BLOCK_SIZE: usize = 4096;

/// Maximum number of blocks a single file's index array may reference,
/// i.e. a maximum file size of 64 MiB.
pub const MAX_BLOCKS_PER_FILE: usize = 16 * 1024;

/// Maximum file size in bytes: a write ending past it, or a truncate to
/// beyond it, fails with `EFBIG`.
pub const MAX_FILE_SIZE: u64 = (MAX_BLOCKS_PER_FILE * BLOCK_SIZE) as u64;

/// Blocks per lazily-allocated chunk.
const CHUNK_BLOCKS: usize = 1024;

/// Index of a block within a [`BlockStore`].
pub type BlockIdx = u32;

type Block = Mutex<Box<[u8; BLOCK_SIZE]>>;

struct Chunk {
    blocks: Vec<Block>,
}

impl Chunk {
    fn new() -> Self {
        Chunk {
            blocks: (0..CHUNK_BLOCKS)
                .map(|_| Mutex::new(Box::new([0u8; BLOCK_SIZE])))
                .collect(),
        }
    }
}

/// A pool of fixed-size in-memory blocks with a per-thread allocator.
pub struct BlockStore {
    /// One slot per possible chunk, filled on the chunk's first allocation.
    chunks: Box<[OnceLock<Box<Chunk>>]>,
    free: Magazines<BlockIdx>,
    /// Maximum number of blocks this store may ever hold.
    capacity: usize,
}

impl BlockStore {
    /// Create a store able to hold up to `capacity_blocks` blocks.
    pub fn new(capacity_blocks: usize) -> Self {
        BlockStore {
            chunks: (0..capacity_blocks.div_ceil(CHUNK_BLOCKS))
                .map(|_| OnceLock::new())
                .collect(),
            free: Magazines::new(0, capacity_blocks),
            capacity: capacity_blocks,
        }
    }

    /// Total capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently allocated blocks (exact when no thread is
    /// allocating or freeing).
    pub fn allocated(&self) -> usize {
        self.free.in_use()
    }

    /// Allocate one zeroed block.
    ///
    /// Returns [`FsError::NoSpace`] when the capacity is exhausted.
    pub fn alloc(&self) -> FsResult<BlockIdx> {
        let (idx, fresh) = self.free.alloc().ok_or(FsError::NoSpace)?;
        let chunk = self.chunks[idx as usize / CHUNK_BLOCKS].get_or_init(|| Box::new(Chunk::new()));
        if !fresh {
            // Zero recycled blocks so allocation always returns zeroes.
            chunk.blocks[idx as usize % CHUNK_BLOCKS].lock().fill(0);
        }
        Ok(idx)
    }

    /// Return a block to the calling thread's magazine.
    ///
    /// The caller must not use `idx` afterwards; the store may hand it to
    /// another file at any time.
    pub fn free(&self, idx: BlockIdx) {
        self.free.free(idx);
    }

    fn block(&self, idx: BlockIdx) -> &Block {
        let chunk = self.chunks[idx as usize / CHUNK_BLOCKS]
            .get()
            .expect("block was never allocated");
        &chunk.blocks[idx as usize % CHUNK_BLOCKS]
    }

    /// Copy bytes out of block `idx` starting at `offset` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds [`BLOCK_SIZE`] or `idx` was never
    /// allocated — both indicate caller bugs, not recoverable conditions.
    pub fn read(&self, idx: BlockIdx, offset: usize, buf: &mut [u8]) {
        assert!(offset + buf.len() <= BLOCK_SIZE, "block read out of range");
        let block = self.block(idx).lock();
        buf.copy_from_slice(&block[offset..offset + buf.len()]);
    }

    /// Copy `data` into block `idx` starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds [`BLOCK_SIZE`] or `idx` was never
    /// allocated.
    pub fn write(&self, idx: BlockIdx, offset: usize, data: &[u8]) {
        assert!(
            offset + data.len() <= BLOCK_SIZE,
            "block write out of range"
        );
        let mut block = self.block(idx).lock();
        block[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Zero a byte range of block `idx`.
    pub fn zero(&self, idx: BlockIdx, offset: usize, len: usize) {
        assert!(offset + len <= BLOCK_SIZE, "block zero out of range");
        let mut block = self.block(idx).lock();
        block[offset..offset + len].fill(0);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn alloc_returns_zeroed_blocks() {
        let store = BlockStore::new(16);
        let b = store.alloc().unwrap();
        let mut buf = [0xFFu8; 32];
        store.read(b, 0, &mut buf);
        assert_eq!(buf, [0u8; 32]);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let store = BlockStore::new(16);
        let b = store.alloc().unwrap();
        store.write(b, 100, b"hello blocks");
        let mut buf = [0u8; 12];
        store.read(b, 100, &mut buf);
        assert_eq!(&buf, b"hello blocks");
    }

    #[test]
    fn capacity_is_enforced() {
        let store = BlockStore::new(2);
        let a = store.alloc().unwrap();
        let _b = store.alloc().unwrap();
        assert_eq!(store.alloc(), Err(FsError::NoSpace));
        store.free(a);
        assert!(store.alloc().is_ok());
    }

    #[test]
    fn recycled_blocks_are_zeroed() {
        let store = BlockStore::new(4);
        let a = store.alloc().unwrap();
        store.write(a, 0, b"secret");
        store.free(a);
        let b = store.alloc().unwrap();
        assert_eq!(b, a, "free list should recycle");
        let mut buf = [1u8; 6];
        store.read(b, 0, &mut buf);
        assert_eq!(buf, [0u8; 6]);
    }

    #[test]
    fn allocated_counts() {
        let store = BlockStore::new(8);
        assert_eq!(store.allocated(), 0);
        let a = store.alloc().unwrap();
        let _b = store.alloc().unwrap();
        assert_eq!(store.allocated(), 2);
        store.free(a);
        assert_eq!(store.allocated(), 1);
    }

    #[test]
    fn many_chunks() {
        let store = BlockStore::new(3 * CHUNK_BLOCKS);
        let mut last = 0;
        for _ in 0..(2 * CHUNK_BLOCKS + 5) {
            last = store.alloc().unwrap();
        }
        store.write(last, 0, b"far");
        let mut buf = [0u8; 3];
        store.read(last, 0, &mut buf);
        assert_eq!(&buf, b"far");
    }

    /// Eight threads churn batches of up to 100 blocks, enough to spill
    /// magazines into the depot and refill from it. Every block's flag
    /// must flip false→true on alloc and true→false on free: a block
    /// handed out twice at once fails the swap.
    #[test]
    fn concurrent_alloc_free() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const CAP: usize = 1024;
        let store = Arc::new(BlockStore::new(CAP));
        let held: Arc<Vec<AtomicBool>> =
            Arc::new((0..CAP).map(|_| AtomicBool::new(false)).collect());
        let handles: Vec<_> = (0..8usize)
            .map(|t| {
                let (store, held) = (Arc::clone(&store), Arc::clone(&held));
                std::thread::spawn(move || {
                    for round in 0..200usize {
                        let n = (t * 7 + round * 13) % 100 + 1;
                        let mine: Vec<BlockIdx> = (0..n).map(|_| store.alloc().unwrap()).collect();
                        for (i, &b) in mine.iter().enumerate() {
                            assert!(
                                !held[b as usize].swap(true, Ordering::Relaxed),
                                "block {b} handed out twice"
                            );
                            store.write(b, 0, &[t as u8, i as u8]);
                        }
                        for (i, &b) in mine.iter().enumerate() {
                            let mut buf = [0u8; 2];
                            store.read(b, 0, &mut buf);
                            assert_eq!(buf, [t as u8, i as u8]);
                            assert!(held[b as usize].swap(false, Ordering::Relaxed));
                            store.free(b);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.allocated(), 0);
    }

    /// Run `f` on a new thread and return its result.
    fn on_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        std::thread::spawn(f).join().unwrap()
    }

    /// One thread fills the store and frees every block, leaving them in
    /// its magazine and the depot; another thread then reaches the whole
    /// capacity through depot batches and stealing.
    #[test]
    fn capacity_is_reachable_from_any_thread() {
        let store = Arc::new(BlockStore::new(1000));
        let s = Arc::clone(&store);
        on_thread(move || {
            let all: Vec<BlockIdx> = (0..1000).map(|_| s.alloc().unwrap()).collect();
            assert_eq!(s.alloc(), Err(FsError::NoSpace));
            all.into_iter().for_each(|b| s.free(b));
        });
        let s = Arc::clone(&store);
        let mut got = on_thread(move || {
            let got: Vec<BlockIdx> = (0..1000).map(|_| s.alloc().unwrap()).collect();
            assert_eq!(s.alloc(), Err(FsError::NoSpace));
            got
        });
        got.sort_unstable();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
        assert_eq!(store.allocated(), 1000);
    }

    /// Frees on one thread strand at most one magazine's worth of blocks
    /// from another thread that allocates: the rest reach it through the
    /// depot instead of fresh indices.
    #[test]
    fn stranding_is_bounded_by_one_magazine() {
        let store = Arc::new(BlockStore::new(4096));
        let s = Arc::clone(&store);
        on_thread(move || {
            let all: Vec<BlockIdx> = (0..1000).map(|_| s.alloc().unwrap()).collect();
            all.into_iter().for_each(|b| s.free(b));
        });
        let s = Arc::clone(&store);
        let fresh = on_thread(move || (0..1000).filter(|_| s.alloc().unwrap() >= 1000).count());
        assert!(fresh <= crate::magazine::MAG_CAP, "{fresh} fresh blocks");
    }
}
