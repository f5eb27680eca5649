//! Block store substrate.
//!
//! The paper's AtomFS stores file data in "a fixed-size array of indexes"
//! per file over an in-memory block pool (§6). This module implements that
//! pool: fixed-size blocks, allocated and freed through a free list, with
//! per-block locks so data copies never serialize unrelated files. A file's
//! inode holds an index array into this store (see
//! [`crate::inode::FileData`]); the index array is bounded by
//! [`MAX_BLOCKS_PER_FILE`], giving the same fixed maximum file size the
//! paper's layout implies.
//!
//! Concurrency contract: callers access a file's blocks only while holding
//! that file's inode lock, so per-block locks are uncontended in practice;
//! they exist so the store itself is safe regardless of caller discipline.

use parking_lot::{Mutex, RwLock};

use atomfs_vfs::{FsError, FsResult};

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

struct Chunk {
    blocks: Vec<Mutex<Box<[u8; BLOCK_SIZE]>>>,
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

/// A pool of fixed-size in-memory blocks with a free list.
pub struct BlockStore {
    chunks: RwLock<Vec<std::sync::Arc<Chunk>>>,
    free: Mutex<FreeList>,
    /// Maximum number of blocks this store may ever hold.
    capacity: usize,
}

#[derive(Default)]
struct FreeList {
    free: Vec<BlockIdx>,
    next_unused: u32,
}

impl BlockStore {
    /// Create a store able to hold up to `capacity_blocks` blocks.
    pub fn new(capacity_blocks: usize) -> Self {
        BlockStore {
            chunks: RwLock::new(Vec::new()),
            free: Mutex::new(FreeList::default()),
            capacity: capacity_blocks,
        }
    }

    /// Total capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently allocated blocks.
    pub fn allocated(&self) -> usize {
        let f = self.free.lock();
        f.next_unused as usize - f.free.len()
    }

    /// Allocate one zeroed block.
    ///
    /// Returns [`FsError::NoSpace`] when the capacity is exhausted.
    pub fn alloc(&self) -> FsResult<BlockIdx> {
        let idx = {
            let mut f = self.free.lock();
            if let Some(idx) = f.free.pop() {
                idx
            } else {
                if f.next_unused as usize >= self.capacity {
                    return Err(FsError::NoSpace);
                }
                let idx = f.next_unused;
                f.next_unused += 1;
                idx
            }
        };
        // Ensure the backing chunk exists.
        let chunk_no = idx as usize / CHUNK_BLOCKS;
        {
            let chunks = self.chunks.read();
            if chunk_no < chunks.len() {
                // Zero recycled blocks so allocation always returns zeroes.
                let chunk = std::sync::Arc::clone(&chunks[chunk_no]);
                drop(chunks);
                chunk.blocks[idx as usize % CHUNK_BLOCKS].lock().fill(0);
                return Ok(idx);
            }
        }
        let mut chunks = self.chunks.write();
        while chunks.len() <= chunk_no {
            chunks.push(std::sync::Arc::new(Chunk::new()));
        }
        Ok(idx)
    }

    /// Return a block to the free list.
    ///
    /// The caller must not use `idx` afterwards; the store may hand it to
    /// another file at any time.
    pub fn free(&self, idx: BlockIdx) {
        self.free.lock().free.push(idx);
    }

    fn chunk_of(&self, idx: BlockIdx) -> std::sync::Arc<Chunk> {
        let chunks = self.chunks.read();
        std::sync::Arc::clone(&chunks[idx as usize / CHUNK_BLOCKS])
    }

    /// Copy bytes out of block `idx` starting at `offset` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds [`BLOCK_SIZE`] or `idx` was never
    /// allocated — both indicate caller bugs, not recoverable conditions.
    pub fn read(&self, idx: BlockIdx, offset: usize, buf: &mut [u8]) {
        assert!(offset + buf.len() <= BLOCK_SIZE, "block read out of range");
        let chunk = self.chunk_of(idx);
        let block = chunk.blocks[idx as usize % CHUNK_BLOCKS].lock();
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
        let chunk = self.chunk_of(idx);
        let mut block = chunk.blocks[idx as usize % CHUNK_BLOCKS].lock();
        block[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Zero a byte range of block `idx`.
    pub fn zero(&self, idx: BlockIdx, offset: usize, len: usize) {
        assert!(offset + len <= BLOCK_SIZE, "block zero out of range");
        let chunk = self.chunk_of(idx);
        let mut block = chunk.blocks[idx as usize % CHUNK_BLOCKS].lock();
        block[offset..offset + len].fill(0);
    }
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn concurrent_alloc_free() {
        let store = std::sync::Arc::new(BlockStore::new(1024));
        let mut handles = Vec::new();
        for t in 0..8 {
            let store = std::sync::Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let b = store.alloc().unwrap();
                    store.write(b, 0, &[t as u8, i as u8]);
                    let mut buf = [0u8; 2];
                    store.read(b, 0, &mut buf);
                    assert_eq!(buf, [t as u8, i as u8]);
                    store.free(b);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.allocated(), 0);
    }
}
