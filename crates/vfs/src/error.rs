//! Errno-style file system errors.
//!
//! Every file system in this workspace reports failures through [`FsError`].
//! The variants mirror the POSIX errno values a FUSE file system would
//! return, which lets the conformance suite compare behaviour against the
//! POSIX specification and lets the CRL-H abstract operations state their
//! failure conditions relationally (`ret = Failure(e)`).

use std::fmt;

/// Result alias used across the workspace.
pub type FsResult<T> = Result<T, FsError>;

/// A file system error, mirroring POSIX errno values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FsError {
    /// `ENOENT`: a path component (or the final entry) does not exist.
    NotFound,
    /// `EEXIST`: the target entry already exists.
    Exists,
    /// `ENOTDIR`: a non-final path component is not a directory, or a
    /// directory operation was applied to a file.
    NotDir,
    /// `EISDIR`: a file operation was applied to a directory.
    IsDir,
    /// `ENOTEMPTY`: `rmdir` or `rename` onto a non-empty directory.
    NotEmpty,
    /// `EINVAL`: malformed argument, e.g. renaming a directory into its own
    /// subtree or an invalid path string.
    InvalidArgument,
    /// `ENAMETOOLONG`: a path component exceeds [`crate::path::MAX_NAME_LEN`].
    NameTooLong,
    /// `ENOSPC`: the block store or inode table is exhausted.
    NoSpace,
    /// `EFBIG`: a write would exceed the per-file maximum size.
    FileTooBig,
    /// `EBADF`: an operation on an unknown or already-closed file descriptor.
    BadFd,
    /// `EACCES`: permission denied (only produced by the conformance shims;
    /// AtomFS itself does not implement permissions, mirroring the paper).
    PermissionDenied,
    /// `EBUSY`: the object is in use, e.g. renaming over the root.
    Busy,
    /// `EROFS`: write to a read-only file system (used by test harnesses).
    ReadOnly,
    /// `ENOSYS`: the operation is not supported by this file system.
    Unsupported,
    /// `EIO`: the storage layer failed (e.g. a journal device error that
    /// defeated the retry policy). Appended last to keep the derived
    /// ordering of the pre-existing variants stable.
    Io,
}

impl FsError {
    /// The POSIX errno value conventionally associated with this error.
    ///
    /// # Examples
    ///
    /// ```
    /// use atomfs_vfs::FsError;
    /// assert_eq!(FsError::NotFound.errno(), 2);
    /// assert_eq!(FsError::NotEmpty.errno(), 39);
    /// ```
    pub fn errno(self) -> i32 {
        match self {
            FsError::NotFound => 2,
            FsError::Exists => 17,
            FsError::NotDir => 20,
            FsError::IsDir => 21,
            FsError::NotEmpty => 39,
            FsError::InvalidArgument => 22,
            FsError::NameTooLong => 36,
            FsError::NoSpace => 28,
            FsError::FileTooBig => 27,
            FsError::BadFd => 9,
            FsError::PermissionDenied => 13,
            FsError::Busy => 16,
            FsError::ReadOnly => 30,
            FsError::Unsupported => 38,
            FsError::Io => 5,
        }
    }

    /// The conventional errno symbol, e.g. `"ENOENT"`.
    pub fn symbol(self) -> &'static str {
        match self {
            FsError::NotFound => "ENOENT",
            FsError::Exists => "EEXIST",
            FsError::NotDir => "ENOTDIR",
            FsError::IsDir => "EISDIR",
            FsError::NotEmpty => "ENOTEMPTY",
            FsError::InvalidArgument => "EINVAL",
            FsError::NameTooLong => "ENAMETOOLONG",
            FsError::NoSpace => "ENOSPC",
            FsError::FileTooBig => "EFBIG",
            FsError::BadFd => "EBADF",
            FsError::PermissionDenied => "EACCES",
            FsError::Busy => "EBUSY",
            FsError::ReadOnly => "EROFS",
            FsError::Unsupported => "ENOSYS",
            FsError::Io => "EIO",
        }
    }
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (errno {})", self.symbol(), self.errno())
    }
}

impl std::error::Error for FsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errno_values_match_linux() {
        assert_eq!(FsError::NotFound.errno(), 2);
        assert_eq!(FsError::Io.errno(), 5);
        assert_eq!(FsError::BadFd.errno(), 9);
        assert_eq!(FsError::Exists.errno(), 17);
        assert_eq!(FsError::NotDir.errno(), 20);
        assert_eq!(FsError::IsDir.errno(), 21);
        assert_eq!(FsError::InvalidArgument.errno(), 22);
        assert_eq!(FsError::NoSpace.errno(), 28);
        assert_eq!(FsError::NotEmpty.errno(), 39);
    }

    #[test]
    fn io_symbol_and_display() {
        assert_eq!(FsError::Io.symbol(), "EIO");
        let s = FsError::Io.to_string();
        assert!(s.contains("EIO") && s.contains('5'));
    }

    /// `Io` was appended after the original variants, so every
    /// pre-existing variant still orders before it — serialized
    /// comparisons from before the addition stay valid.
    #[test]
    fn io_orders_after_all_preexisting_variants() {
        for e in [
            FsError::NotFound,
            FsError::Exists,
            FsError::NotDir,
            FsError::IsDir,
            FsError::NotEmpty,
            FsError::InvalidArgument,
            FsError::NameTooLong,
            FsError::NoSpace,
            FsError::FileTooBig,
            FsError::BadFd,
            FsError::PermissionDenied,
            FsError::Busy,
            FsError::ReadOnly,
            FsError::Unsupported,
        ] {
            assert!(e < FsError::Io, "{e} must order before Io");
        }
    }

    #[test]
    fn display_contains_symbol_and_errno() {
        let s = FsError::NotFound.to_string();
        assert!(s.contains("ENOENT"));
        assert!(s.contains('2'));
    }

    #[test]
    fn symbols_are_unique() {
        let all = [
            FsError::NotFound,
            FsError::Exists,
            FsError::NotDir,
            FsError::IsDir,
            FsError::NotEmpty,
            FsError::InvalidArgument,
            FsError::NameTooLong,
            FsError::NoSpace,
            FsError::FileTooBig,
            FsError::BadFd,
            FsError::PermissionDenied,
            FsError::Busy,
            FsError::ReadOnly,
            FsError::Unsupported,
            FsError::Io,
        ];
        let mut symbols: Vec<_> = all.iter().map(|e| e.symbol()).collect();
        symbols.sort_unstable();
        symbols.dedup();
        assert_eq!(symbols.len(), all.len());
        let mut errnos: Vec<_> = all.iter().map(|e| e.errno()).collect();
        errnos.sort_unstable();
        errnos.dedup();
        assert_eq!(errnos.len(), all.len());
    }
}
