//! Operation descriptions and results.
//!
//! [`OpDesc`] is the *abstract* description of a file system call — the
//! operation name plus its arguments with paths already normalized into
//! components. It doubles as the "intended abstract operation" stored in
//! the CRL-H thread pool ghost state (the `(aop, args)` of the paper's
//! `AopState`), and as the alphabet of the generic linearizability checker.

use atomfs_vfs::{FileType, FsError, Metadata};

/// A logical thread identifier assigned by the harness.
///
/// The paper's ghost thread pool maps thread IDs to descriptors; traces use
/// the same identifiers so the checker can rebuild that pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Tid(pub u32);

impl std::fmt::Display for Tid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Path components (already normalized; see `atomfs_vfs::path::normalize`).
pub type Comps = Vec<String>;

/// Abstract description of one file system operation and its arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpDesc {
    /// Create an empty regular file.
    Mknod { path: Comps },
    /// Create an empty directory.
    Mkdir { path: Comps },
    /// Remove a regular file.
    Unlink { path: Comps },
    /// Remove an empty directory.
    Rmdir { path: Comps },
    /// Atomically move `src` to `dst`.
    Rename { src: Comps, dst: Comps },
    /// Query metadata.
    Stat { path: Comps },
    /// List a directory.
    Readdir { path: Comps },
    /// Read `len` bytes at `offset`.
    Read {
        path: Comps,
        offset: u64,
        len: usize,
    },
    /// Write `data` at `offset`.
    Write {
        path: Comps,
        offset: u64,
        data: Vec<u8>,
    },
    /// Set file size.
    Truncate { path: Comps, size: u64 },
}

impl OpDesc {
    /// Short operation name for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            OpDesc::Mknod { .. } => "mknod",
            OpDesc::Mkdir { .. } => "mkdir",
            OpDesc::Unlink { .. } => "unlink",
            OpDesc::Rmdir { .. } => "rmdir",
            OpDesc::Rename { .. } => "rename",
            OpDesc::Stat { .. } => "stat",
            OpDesc::Readdir { .. } => "readdir",
            OpDesc::Read { .. } => "read",
            OpDesc::Write { .. } => "write",
            OpDesc::Truncate { .. } => "truncate",
        }
    }

    /// Whether this is the `rename` operation — the only POSIX interface
    /// that can break other operations' path integrity (§3.2), and hence
    /// the only helper.
    pub fn is_rename(&self) -> bool {
        matches!(self, OpDesc::Rename { .. })
    }

    /// Whether the operation mutates the tree or file contents.
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            OpDesc::Mknod { .. }
                | OpDesc::Mkdir { .. }
                | OpDesc::Unlink { .. }
                | OpDesc::Rmdir { .. }
                | OpDesc::Rename { .. }
                | OpDesc::Write { .. }
                | OpDesc::Truncate { .. }
        )
    }

    /// The primary path argument (the source path for `rename`).
    pub fn path(&self) -> &Comps {
        match self {
            OpDesc::Mknod { path }
            | OpDesc::Mkdir { path }
            | OpDesc::Unlink { path }
            | OpDesc::Rmdir { path }
            | OpDesc::Stat { path }
            | OpDesc::Readdir { path }
            | OpDesc::Read { path, .. }
            | OpDesc::Write { path, .. }
            | OpDesc::Truncate { path, .. } => path,
            OpDesc::Rename { src, .. } => src,
        }
    }
}

impl std::fmt::Display for OpDesc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn p(c: &Comps) -> String {
            atomfs_vfs::path::to_string(c)
        }
        match self {
            OpDesc::Rename { src, dst } => write!(f, "rename({}, {})", p(src), p(dst)),
            OpDesc::Read { path, offset, len } => {
                write!(f, "read({}, off={offset}, len={len})", p(path))
            }
            OpDesc::Write { path, offset, data } => {
                write!(f, "write({}, off={offset}, len={})", p(path), data.len())
            }
            OpDesc::Truncate { path, size } => write!(f, "truncate({}, {size})", p(path)),
            other => write!(f, "{}({})", other.kind(), p(other.path())),
        }
    }
}

/// Stat result in abstract terms (inode numbers are implementation detail,
/// so only shape-relevant fields are compared by the checkers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatRet {
    /// File or directory.
    pub is_dir: bool,
    /// Size in bytes (files) or entry count (directories).
    pub size: u64,
}

impl StatRet {
    /// Project a concrete [`Metadata`] onto the comparable fields.
    pub fn from_metadata(m: &Metadata) -> Self {
        StatRet {
            is_dir: m.ftype == FileType::Dir,
            size: m.size,
        }
    }
}

/// The result of an operation, in abstract terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpRet {
    /// Success with no payload (mknod/mkdir/unlink/rmdir/rename/truncate).
    Ok,
    /// Successful `stat`.
    Stat(StatRet),
    /// Successful `readdir`; names are compared order-insensitively, so
    /// constructors must sort them.
    Names(Vec<String>),
    /// Successful `read` payload.
    Data(Vec<u8>),
    /// Successful `write`, with the byte count.
    Written(usize),
    /// Failure with an errno-style error.
    Err(FsError),
}

impl OpRet {
    /// Build a sorted [`OpRet::Names`].
    pub fn names(mut names: Vec<String>) -> Self {
        names.sort_unstable();
        OpRet::Names(names)
    }

    /// Whether this is a success result.
    pub fn is_ok(&self) -> bool {
        !matches!(self, OpRet::Err(_))
    }
}

impl std::fmt::Display for OpRet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpRet::Ok => write!(f, "ok"),
            OpRet::Stat(s) => write!(f, "stat(dir={}, size={})", s.is_dir, s.size),
            OpRet::Names(n) => write!(f, "names[{}]", n.len()),
            OpRet::Data(d) => write!(f, "data[{}]", d.len()),
            OpRet::Written(n) => write!(f, "written={n}"),
            OpRet::Err(e) => write!(f, "err({e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comps(s: &[&str]) -> Comps {
        s.iter().map(|c| c.to_string()).collect()
    }

    #[test]
    fn kind_and_rename_detection() {
        let r = OpDesc::Rename {
            src: comps(&["a"]),
            dst: comps(&["b"]),
        };
        assert!(r.is_rename());
        assert!(r.is_mutation());
        assert_eq!(r.kind(), "rename");
        let s = OpDesc::Stat {
            path: comps(&["a"]),
        };
        assert!(!s.is_rename());
        assert!(!s.is_mutation());
    }

    #[test]
    fn display_formats() {
        let op = OpDesc::Mkdir {
            path: comps(&["a", "b"]),
        };
        assert_eq!(op.to_string(), "mkdir(/a/b)");
        let r = OpDesc::Rename {
            src: comps(&["a"]),
            dst: comps(&["e"]),
        };
        assert_eq!(r.to_string(), "rename(/a, /e)");
    }

    #[test]
    fn names_are_sorted_for_comparison() {
        let a = OpRet::names(vec!["b".into(), "a".into()]);
        let b = OpRet::names(vec!["a".into(), "b".into()]);
        assert_eq!(a, b);
    }

    #[test]
    fn ret_is_ok() {
        assert!(OpRet::Ok.is_ok());
        assert!(OpRet::Written(3).is_ok());
        assert!(!OpRet::Err(FsError::NotFound).is_ok());
    }

    #[test]
    fn primary_path_of_rename_is_src() {
        let r = OpDesc::Rename {
            src: comps(&["x"]),
            dst: comps(&["y"]),
        };
        assert_eq!(r.path(), &comps(&["x"]));
    }
}
