//! Inode contents: directories and files.
//!
//! A file's contents are a [`FileData`] index array over the shared
//! [`BlockStore`]. A directory's entries live in its slot's
//! [`FastDir`](crate::fastdir::FastDir), outside the lock, so its
//! [`InodeData`] carries nothing. The enclosing
//! [`crate::table::InodeSlot`] wraps each [`InodeData`] in a
//! `parking_lot::Mutex` — the paper's per-inode lock — so everything here
//! is written for single-threaded access under that lock.

use atomfs_vfs::{FileType, FsError, FsResult};

use crate::blocks::{BlockIdx, BlockStore, BLOCK_SIZE, MAX_FILE_SIZE};

/// File contents: a size plus a bounded index array into the block store.
///
/// The paper describes "a fixed-size array of indexes for file data
/// storage" (§6); the array here grows on demand but is capped at
/// [`MAX_FILE_SIZE`] bytes, preserving the fixed maximum file size while
/// not charging every small file the full array.
#[derive(Debug, Default)]
pub struct FileData {
    size: u64,
    blocks: Vec<BlockIdx>,
}

impl FileData {
    /// Current size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Read up to `buf.len()` bytes at `offset`; returns bytes read.
    pub fn read(&self, store: &BlockStore, offset: u64, buf: &mut [u8]) -> usize {
        if offset >= self.size {
            return 0;
        }
        let n = buf.len().min((self.size - offset) as usize);
        let mut done = 0;
        while done < n {
            let pos = offset as usize + done;
            let blk = pos / BLOCK_SIZE;
            let off_in_blk = pos % BLOCK_SIZE;
            let chunk = (BLOCK_SIZE - off_in_blk).min(n - done);
            store.read(self.blocks[blk], off_in_blk, &mut buf[done..done + chunk]);
            done += chunk;
        }
        n
    }

    /// Write `data` at `offset`, zero-extending any hole; returns bytes
    /// written. Fails with [`FsError::FileTooBig`] past the maximum size and
    /// [`FsError::NoSpace`] when the store is exhausted.
    pub fn write(&mut self, store: &BlockStore, offset: u64, data: &[u8]) -> FsResult<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let end = offset
            .checked_add(data.len() as u64)
            .filter(|&end| end <= MAX_FILE_SIZE)
            .ok_or(FsError::FileTooBig)? as usize;
        let blocks_needed = end.div_ceil(BLOCK_SIZE);
        while self.blocks.len() < blocks_needed {
            // New blocks come zeroed, which implements hole filling.
            self.blocks.push(store.alloc()?);
        }
        let mut done = 0;
        while done < data.len() {
            let pos = offset as usize + done;
            let blk = pos / BLOCK_SIZE;
            let off_in_blk = pos % BLOCK_SIZE;
            let chunk = (BLOCK_SIZE - off_in_blk).min(data.len() - done);
            store.write(self.blocks[blk], off_in_blk, &data[done..done + chunk]);
            done += chunk;
        }
        self.size = self.size.max(end as u64);
        Ok(data.len())
    }

    /// Set the size, truncating (freeing blocks) or zero-extending.
    pub fn truncate(&mut self, store: &BlockStore, size: u64) -> FsResult<()> {
        if size > MAX_FILE_SIZE {
            return Err(FsError::FileTooBig);
        }
        if size < self.size {
            let keep = (size as usize).div_ceil(BLOCK_SIZE);
            for idx in self.blocks.drain(keep..) {
                store.free(idx);
            }
            // Zero the tail of the last kept block so later extension
            // reads back zeroes.
            if !(size as usize).is_multiple_of(BLOCK_SIZE) {
                if let Some(&last) = self.blocks.last() {
                    let off = size as usize % BLOCK_SIZE;
                    store.zero(last, off, BLOCK_SIZE - off);
                }
            }
            self.size = size;
        } else if size > self.size {
            let blocks_needed = (size as usize).div_ceil(BLOCK_SIZE);
            while self.blocks.len() < blocks_needed {
                self.blocks.push(store.alloc()?);
            }
            self.size = size;
        }
        Ok(())
    }

    /// Copy out the bytes in `range`, which lies within the file (used by
    /// instrumentation to record the bytes an update overwrites).
    pub fn copy_range(&self, store: &BlockStore, range: std::ops::Range<u64>) -> Vec<u8> {
        let mut buf = vec![0u8; (range.end - range.start) as usize];
        let n = self.read(store, range.start, &mut buf);
        debug_assert_eq!(n, buf.len());
        buf
    }

    /// Release all blocks back to the store (called on unlink).
    pub fn clear(&mut self, store: &BlockStore) {
        for idx in self.blocks.drain(..) {
            store.free(idx);
        }
        self.size = 0;
    }
}

/// The lock-protected contents of one inode.
#[derive(Debug)]
pub enum InodeData {
    /// A regular file.
    File(FileData),
    /// A directory; its entries are its slot's index.
    Dir,
}

impl InodeData {
    /// Fresh empty contents of the given type.
    pub fn new(ftype: FileType) -> Self {
        match ftype {
            FileType::File => InodeData::File(FileData::default()),
            FileType::Dir => InodeData::Dir,
        }
    }

    /// This inode's type.
    pub fn ftype(&self) -> FileType {
        match self {
            InodeData::File(_) => FileType::File,
            InodeData::Dir => FileType::Dir,
        }
    }

    /// File view, or `EISDIR`.
    pub fn as_file(&self) -> FsResult<&FileData> {
        match self {
            InodeData::File(f) => Ok(f),
            InodeData::Dir => Err(FsError::IsDir),
        }
    }

    /// Mutable file view, or `EISDIR`.
    pub fn as_file_mut(&mut self) -> FsResult<&mut FileData> {
        match self {
            InodeData::File(f) => Ok(f),
            InodeData::Dir => Err(FsError::IsDir),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> BlockStore {
        BlockStore::new(4096)
    }

    #[test]
    fn file_write_read_across_blocks() {
        let s = store();
        let mut f = FileData::default();
        let data: Vec<u8> = (0..(BLOCK_SIZE * 2 + 100))
            .map(|i| (i % 251) as u8)
            .collect();
        assert_eq!(f.write(&s, 0, &data).unwrap(), data.len());
        assert_eq!(f.size(), data.len() as u64);
        let mut buf = vec![0u8; data.len()];
        assert_eq!(f.read(&s, 0, &mut buf), data.len());
        assert_eq!(buf, data);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let s = store();
        let mut f = FileData::default();
        f.write(&s, (BLOCK_SIZE + 7) as u64, b"tail").unwrap();
        assert_eq!(f.size(), (BLOCK_SIZE + 11) as u64);
        let mut buf = vec![0xAAu8; BLOCK_SIZE + 11];
        f.read(&s, 0, &mut buf);
        assert!(buf[..BLOCK_SIZE + 7].iter().all(|&b| b == 0));
        assert_eq!(&buf[BLOCK_SIZE + 7..], b"tail");
    }

    #[test]
    fn read_past_eof_returns_zero() {
        let s = store();
        let mut f = FileData::default();
        f.write(&s, 0, b"abc").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(f.read(&s, 3, &mut buf), 0);
        assert_eq!(f.read(&s, 100, &mut buf), 0);
        assert_eq!(f.read(&s, 1, &mut buf), 2);
        assert_eq!(&buf[..2], b"bc");
    }

    #[test]
    fn truncate_down_frees_and_zeroes() {
        let s = store();
        let mut f = FileData::default();
        f.write(&s, 0, &vec![7u8; BLOCK_SIZE * 3]).unwrap();
        let before = s.allocated();
        f.truncate(&s, 10).unwrap();
        assert!(s.allocated() < before);
        assert_eq!(f.size(), 10);
        // Extending again must read back zeroes beyond the old 10 bytes.
        f.truncate(&s, 100).unwrap();
        let mut buf = vec![0xFFu8; 100];
        f.read(&s, 0, &mut buf);
        assert!(buf[..10].iter().all(|&b| b == 7));
        assert!(buf[10..].iter().all(|&b| b == 0));
    }

    #[test]
    fn truncate_up_is_zeroed() {
        let s = store();
        let mut f = FileData::default();
        f.truncate(&s, (BLOCK_SIZE + 5) as u64).unwrap();
        assert_eq!(f.size(), (BLOCK_SIZE + 5) as u64);
        let mut buf = vec![1u8; BLOCK_SIZE + 5];
        f.read(&s, 0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn clear_releases_blocks() {
        let s = store();
        let mut f = FileData::default();
        f.write(&s, 0, &vec![1u8; BLOCK_SIZE * 2]).unwrap();
        assert_eq!(s.allocated(), 2);
        f.clear(&s);
        assert_eq!(s.allocated(), 0);
        assert_eq!(f.size(), 0);
    }

    #[test]
    fn file_too_big_rejected() {
        let s = store();
        let mut f = FileData::default();
        assert_eq!(f.write(&s, MAX_FILE_SIZE, b"x"), Err(FsError::FileTooBig));
        // The end offset would wrap past `u64::MAX`.
        assert_eq!(f.write(&s, u64::MAX - 1, b"xy"), Err(FsError::FileTooBig));
        assert_eq!(f.truncate(&s, MAX_FILE_SIZE + 1), Err(FsError::FileTooBig));
        assert_eq!(f.size(), 0);
    }

    #[test]
    fn copy_range_matches_contents() {
        let s = store();
        let mut f = FileData::default();
        f.write(&s, 0, b"copy me out").unwrap();
        assert_eq!(f.copy_range(&s, 0..11), b"copy me out");
        assert_eq!(f.copy_range(&s, 5..7), b"me");
        assert_eq!(f.copy_range(&s, 11..11), b"");
    }

    #[test]
    fn inode_views() {
        let mut d = InodeData::new(FileType::Dir);
        assert_eq!(d.ftype(), FileType::Dir);
        assert_eq!(d.as_file().unwrap_err(), FsError::IsDir);
        assert_eq!(d.as_file_mut().unwrap_err(), FsError::IsDir);
        let mut f = InodeData::new(FileType::File);
        assert_eq!(f.ftype(), FileType::File);
        assert!(f.as_file().is_ok());
        assert!(f.as_file_mut().is_ok());
    }

    #[test]
    fn metadata_reflects_contents() {
        use crate::table::InodeSlot;
        use std::sync::Arc;
        let s = store();
        let f = InodeSlot::new(9, FileType::File);
        f.lock()
            .as_file_mut()
            .unwrap()
            .write(&s, 0, b"12345")
            .unwrap();
        let m = f.metadata(&f.lock());
        assert_eq!(m.ino, 9);
        assert_eq!(m.size, 5);
        let d = InodeSlot::new(1, FileType::Dir);
        let index = d.dir().unwrap();
        index.insert("sub", &Arc::new(InodeSlot::new(2, FileType::Dir)));
        index.insert("f", &Arc::new(InodeSlot::new(3, FileType::File)));
        let m = d.metadata(&d.lock());
        assert_eq!(m.size, 2);
        assert_eq!(m.nlink, 3);
    }
}
