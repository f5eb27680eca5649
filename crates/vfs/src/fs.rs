//! The path-based [`FileSystem`] interface.
//!
//! This is the boundary at which the paper's FUSE driver calls into AtomFS:
//! every operation — including `read`/`write`/`readdir`, which applications
//! invoke through file descriptors — is expressed with a full path, because
//! AtomFS re-traverses the path for FD-based interfaces to keep them
//! linearizable (§5.4). All file systems in this workspace (AtomFS, the
//! big-lock variant, the sequential DFSCQ stand-in, the rwlock tmpfs
//! stand-in, and the traversal-retry ablation) implement this trait, so the
//! benchmark harness and the conformance suite are generic over them.

use crate::error::FsResult;

/// Type of an inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileType {
    /// A regular file.
    File,
    /// A directory.
    Dir,
}

impl FileType {
    /// Whether this is [`FileType::Dir`].
    pub fn is_dir(self) -> bool {
        matches!(self, FileType::Dir)
    }

    /// Whether this is [`FileType::File`].
    pub fn is_file(self) -> bool {
        matches!(self, FileType::File)
    }
}

/// Metadata returned by [`FileSystem::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metadata {
    /// Inode number. Unique among live inodes of one file system instance.
    pub ino: u64,
    /// File or directory.
    pub ftype: FileType,
    /// File size in bytes; for directories, the number of entries.
    pub size: u64,
    /// Link count: 1 for files; for directories, 2 plus child directories.
    pub nlink: u32,
}

impl Metadata {
    /// Construct metadata for a regular file.
    pub fn file(ino: u64, size: u64) -> Self {
        Metadata {
            ino,
            ftype: FileType::File,
            size,
            nlink: 1,
        }
    }

    /// Construct metadata for a directory with `entries` children of which
    /// `subdirs` are directories.
    pub fn dir(ino: u64, entries: u64, subdirs: u32) -> Self {
        Metadata {
            ino,
            ftype: FileType::Dir,
            size: entries,
            nlink: 2 + subdirs,
        }
    }
}

/// A concurrent, path-based file system.
///
/// Paths are absolute `/`-separated strings; lexical cleanup (`.`/`..`,
/// duplicate separators) follows [`crate::path::normalize`]. All methods
/// are safe to call concurrently from many threads; each file system
/// documents its atomicity guarantees (AtomFS: every operation is
/// linearizable).
///
/// Error conventions follow POSIX: missing intermediate component →
/// [`crate::FsError::NotFound`]; intermediate component that is a file →
/// [`crate::FsError::NotDir`]; and so on. The conformance suite in
/// `atomfs-bench` checks these for every implementation.
pub trait FileSystem: Send + Sync {
    /// A short human-readable name used in benchmark reports.
    fn name(&self) -> &'static str;

    /// Create an empty regular file at `path` (POSIX `mknod`/`creat`).
    fn mknod(&self, path: &str) -> FsResult<()>;

    /// Create an empty directory at `path`.
    fn mkdir(&self, path: &str) -> FsResult<()>;

    /// Remove the regular file at `path` (POSIX `unlink`).
    fn unlink(&self, path: &str) -> FsResult<()>;

    /// Remove the empty directory at `path`.
    fn rmdir(&self, path: &str) -> FsResult<()>;

    /// Atomically move `src` to `dst` (POSIX `rename`).
    ///
    /// Follows POSIX semantics: if `dst` exists it is atomically replaced
    /// (a directory may only replace an empty directory, a file only a
    /// file); renaming a directory into its own subtree fails with
    /// [`crate::FsError::InvalidArgument`]; renaming a path to itself
    /// succeeds without effect.
    fn rename(&self, src: &str, dst: &str) -> FsResult<()>;

    /// Return metadata for the inode at `path`.
    fn stat(&self, path: &str) -> FsResult<Metadata>;

    /// List the entry names of the directory at `path`, in unspecified order.
    fn readdir(&self, path: &str) -> FsResult<Vec<String>>;

    /// Read up to `buf.len()` bytes at byte offset `offset` from the file at
    /// `path`, returning the number of bytes read (0 at or past EOF).
    fn read(&self, path: &str, offset: u64, buf: &mut [u8]) -> FsResult<usize>;

    /// Write `data` at byte offset `offset` into the file at `path`,
    /// extending it (zero-filled holes) as needed. Returns the number of
    /// bytes written.
    fn write(&self, path: &str, offset: u64, data: &[u8]) -> FsResult<usize>;

    /// Set the size of the file at `path`, truncating or zero-extending.
    fn truncate(&self, path: &str, size: u64) -> FsResult<()>;

    /// Flush state to stable storage. A no-op for the in-memory systems
    /// here (the paper's AtomFS does not consider crashes).
    fn sync(&self) -> FsResult<()> {
        Ok(())
    }
}

/// Blanket implementation so `Arc<F>`, `Box<F>`, `&F` are file systems too.
impl<F: FileSystem + ?Sized> FileSystem for std::sync::Arc<F> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn mknod(&self, path: &str) -> FsResult<()> {
        (**self).mknod(path)
    }
    fn mkdir(&self, path: &str) -> FsResult<()> {
        (**self).mkdir(path)
    }
    fn unlink(&self, path: &str) -> FsResult<()> {
        (**self).unlink(path)
    }
    fn rmdir(&self, path: &str) -> FsResult<()> {
        (**self).rmdir(path)
    }
    fn rename(&self, src: &str, dst: &str) -> FsResult<()> {
        (**self).rename(src, dst)
    }
    fn stat(&self, path: &str) -> FsResult<Metadata> {
        (**self).stat(path)
    }
    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        (**self).readdir(path)
    }
    fn read(&self, path: &str, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        (**self).read(path, offset, buf)
    }
    fn write(&self, path: &str, offset: u64, data: &[u8]) -> FsResult<usize> {
        (**self).write(path, offset, data)
    }
    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        (**self).truncate(path, size)
    }
    fn sync(&self) -> FsResult<()> {
        (**self).sync()
    }
}

/// Convenience extension methods implemented on top of the core trait.
pub trait FileSystemExt: FileSystem {
    /// Whether `path` currently exists.
    fn exists(&self, path: &str) -> bool {
        self.stat(path).is_ok()
    }

    /// Read the entire contents of the file at `path`.
    fn read_to_vec(&self, path: &str) -> FsResult<Vec<u8>> {
        let meta = self.stat(path)?;
        let mut buf = vec![0u8; meta.size as usize];
        let n = self.read(path, 0, &mut buf)?;
        buf.truncate(n);
        Ok(buf)
    }

    /// Create (if needed) and overwrite the file at `path` with `data`.
    fn write_file(&self, path: &str, data: &[u8]) -> FsResult<()> {
        match self.mknod(path) {
            Ok(()) => {}
            Err(crate::FsError::Exists) => self.truncate(path, 0)?,
            Err(e) => return Err(e),
        }
        let mut off = 0u64;
        while (off as usize) < data.len() {
            let n = self.write(path, off, &data[off as usize..])?;
            if n == 0 {
                return Err(crate::FsError::NoSpace);
            }
            off += n as u64;
        }
        Ok(())
    }

    /// Create all missing directories along `path` (like `mkdir -p`).
    fn mkdir_all(&self, path: &str) -> FsResult<()> {
        let comps = crate::path::normalize(path)?;
        let mut cur = String::new();
        for c in &comps {
            cur.push('/');
            cur.push_str(c);
            match self.mkdir(&cur) {
                Ok(()) | Err(crate::FsError::Exists) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Recursively remove `path` and everything beneath it.
    fn remove_all(&self, path: &str) -> FsResult<()> {
        match self.stat(path)?.ftype {
            FileType::File => self.unlink(path),
            FileType::Dir => {
                for name in self.readdir(path)? {
                    let child = crate::path::join(path, &name);
                    // A concurrent unlink may have raced us; ignore NotFound.
                    match self.remove_all(&child) {
                        Ok(()) | Err(crate::FsError::NotFound) => {}
                        Err(e) => return Err(e),
                    }
                }
                self.rmdir(path)
            }
        }
    }
}

impl<F: FileSystem + ?Sized> FileSystemExt for F {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_constructors() {
        let f = Metadata::file(7, 42);
        assert_eq!(f.ino, 7);
        assert!(f.ftype.is_file());
        assert_eq!(f.nlink, 1);
        let d = Metadata::dir(1, 3, 2);
        assert!(d.ftype.is_dir());
        assert_eq!(d.nlink, 4);
        assert_eq!(d.size, 3);
    }

    #[test]
    fn filetype_predicates() {
        assert!(FileType::Dir.is_dir());
        assert!(!FileType::Dir.is_file());
        assert!(FileType::File.is_file());
        assert!(!FileType::File.is_dir());
    }
}
