//! Lexical path handling.
//!
//! All file systems in this workspace take absolute, `/`-separated paths.
//! This module performs the lexical part of path resolution that, for the
//! paper's prototype, FUSE and VFS do before calling into AtomFS: splitting
//! into components, removing `.`, resolving `..` lexically, and validating
//! component names. The file systems then resolve the cleaned component
//! list against their trees (in AtomFS's case, with lock coupling).
//!
//! [`normalize_ref`], the lookup path's parser, borrows its components
//! from the path and keeps up to [`INLINE_COMPS`] of them on the stack,
//! so parsing a path of ordinary depth allocates nothing.

use crate::error::{FsError, FsResult};
use crate::inline::InlineVec;

/// Maximum length of a single path component, mirroring Linux `NAME_MAX`.
pub const MAX_NAME_LEN: usize = 255;

/// Components a [`Comps`] holds on the stack before it spills to the heap.
pub const INLINE_COMPS: usize = 8;

/// A path's components, borrowed from the path string: inline up to
/// [`INLINE_COMPS`] deep, one heap buffer past that.
pub type Comps<'a> = InlineVec<&'a str, INLINE_COMPS>;

/// Validate a single path component.
///
/// A valid component is non-empty, at most [`MAX_NAME_LEN`] bytes, is not
/// `.` or `..`, and contains neither `/` nor NUL.
///
/// # Examples
///
/// ```
/// use atomfs_vfs::path::validate_name;
/// assert!(validate_name("hello.txt").is_ok());
/// assert!(validate_name("").is_err());
/// assert!(validate_name("a/b").is_err());
/// ```
pub fn validate_name(name: &str) -> FsResult<()> {
    if name.is_empty() || name == "." || name == ".." {
        return Err(FsError::InvalidArgument);
    }
    if name.len() > MAX_NAME_LEN {
        return Err(FsError::NameTooLong);
    }
    if name.bytes().any(|b| b == b'/' || b == 0) {
        return Err(FsError::InvalidArgument);
    }
    Ok(())
}

/// Split an absolute path into validated components.
///
/// `.` components are dropped and `..` components are resolved lexically
/// (popping the previous component; `..` at the root stays at the root, as
/// POSIX specifies for `/..`). Repeated separators are tolerated.
///
/// Returns [`FsError::InvalidArgument`] for relative paths and
/// [`FsError::NameTooLong`] for over-long components.
///
/// # Examples
///
/// ```
/// use atomfs_vfs::path::normalize;
/// assert_eq!(normalize("/a//b/./c").unwrap(), vec!["a", "b", "c"]);
/// assert_eq!(normalize("/a/../b").unwrap(), vec!["b"]);
/// assert_eq!(normalize("/").unwrap(), Vec::<String>::new());
/// assert!(normalize("relative").is_err());
/// ```
pub fn normalize(path: &str) -> FsResult<Vec<String>> {
    Ok(normalize_ref(path)?.iter().map(|c| c.to_string()).collect())
}

/// Like [`normalize`], but the components borrow from `path` and sit on
/// the stack up to [`INLINE_COMPS`] deep: the hot lookup path allocates
/// nothing for a path of ordinary depth, and one buffer for a deeper one.
///
/// # Examples
///
/// ```
/// use atomfs_vfs::path::normalize_ref;
/// assert_eq!(normalize_ref("/a//b/./c").unwrap()[..], ["a", "b", "c"]);
/// assert_eq!(normalize_ref("/a/../b").unwrap()[..], ["b"]);
/// assert!(normalize_ref("relative").is_err());
/// ```
#[inline]
pub fn normalize_ref(path: &str) -> FsResult<Comps<'_>> {
    if !path.starts_with('/') {
        return Err(FsError::InvalidArgument);
    }
    let mut out = Comps::new();
    for comp in path.split('/') {
        match comp {
            "" | "." => {}
            ".." => {
                out.pop();
            }
            name => {
                if name.len() > MAX_NAME_LEN {
                    return Err(FsError::NameTooLong);
                }
                if name.bytes().any(|b| b == 0) {
                    return Err(FsError::InvalidArgument);
                }
                out.push(name);
            }
        }
    }
    Ok(out)
}

/// Split an absolute path into raw components without normalization.
///
/// Unlike [`normalize`] this keeps `.`/`..` (after validating the path is
/// absolute); it is used by harnesses that want to observe the raw request.
pub fn split(path: &str) -> FsResult<Vec<&str>> {
    if !path.starts_with('/') {
        return Err(FsError::InvalidArgument);
    }
    Ok(path.split('/').filter(|c| !c.is_empty()).collect())
}

/// Split a path into its parent components and final name.
///
/// Returns [`FsError::InvalidArgument`] when the path denotes the root
/// (which has no parent) or is relative.
///
/// # Examples
///
/// ```
/// use atomfs_vfs::path::parent_and_name;
/// let (parent, name) = parent_and_name("/a/b/c").unwrap();
/// assert_eq!(parent, vec!["a", "b"]);
/// assert_eq!(name, "c");
/// assert!(parent_and_name("/").is_err());
/// ```
pub fn parent_and_name(path: &str) -> FsResult<(Vec<String>, String)> {
    let mut comps = normalize(path)?;
    match comps.pop() {
        Some(name) => Ok((comps, name)),
        None => Err(FsError::InvalidArgument),
    }
}

/// Join a base path and a child name into an absolute path string.
///
/// # Examples
///
/// ```
/// use atomfs_vfs::path::join;
/// assert_eq!(join("/", "a"), "/a");
/// assert_eq!(join("/a/b", "c"), "/a/b/c");
/// ```
pub fn join(base: &str, name: &str) -> String {
    if base.ends_with('/') {
        format!("{base}{name}")
    } else {
        format!("{base}/{name}")
    }
}

/// Render a component list back into an absolute path string.
///
/// # Examples
///
/// ```
/// use atomfs_vfs::path::to_string;
/// assert_eq!(to_string(&["a".to_string(), "b".to_string()]), "/a/b");
/// assert_eq!(to_string(&[]), "/");
/// ```
pub fn to_string(comps: &[String]) -> String {
    if comps.is_empty() {
        "/".to_string()
    } else {
        let mut s = String::new();
        for c in comps {
            s.push('/');
            s.push_str(c);
        }
        s
    }
}

/// Whether `prefix` is a (non-strict) prefix of `path`, component-wise.
///
/// Used by the dcache for prefix invalidation after `rename`/`rmdir` and by
/// the CRL-H linearize-before relation (`SrcPrefix`, `LockPathPrefix`).
///
/// # Examples
///
/// ```
/// use atomfs_vfs::path::is_prefix;
/// let a = ["a".to_string(), "b".to_string()];
/// let ab = ["a".to_string(), "b".to_string(), "c".to_string()];
/// assert!(is_prefix(&a, &ab));
/// assert!(is_prefix(&a, &a));
/// assert!(!is_prefix(&ab, &a));
/// ```
pub fn is_prefix<T: PartialEq>(prefix: &[T], path: &[T]) -> bool {
    prefix.len() <= path.len() && prefix.iter().zip(path.iter()).all(|(a, b)| a == b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_handles_dot_and_dotdot() {
        assert_eq!(normalize("/a/./b").unwrap(), vec!["a", "b"]);
        assert_eq!(normalize("/a/b/..").unwrap(), vec!["a"]);
        assert_eq!(normalize("/..").unwrap(), Vec::<String>::new());
        assert_eq!(normalize("/../..").unwrap(), Vec::<String>::new());
        assert_eq!(normalize("/a/../../b").unwrap(), vec!["b"]);
    }

    #[test]
    fn normalize_rejects_relative() {
        assert_eq!(normalize("a/b"), Err(FsError::InvalidArgument));
        assert_eq!(normalize(""), Err(FsError::InvalidArgument));
    }

    #[test]
    fn normalize_rejects_long_names() {
        let long = format!("/{}", "x".repeat(MAX_NAME_LEN + 1));
        assert_eq!(normalize(&long), Err(FsError::NameTooLong));
        let ok = format!("/{}", "x".repeat(MAX_NAME_LEN));
        assert!(normalize(&ok).is_ok());
    }

    #[test]
    fn normalize_rejects_nul() {
        assert_eq!(normalize("/a\0b"), Err(FsError::InvalidArgument));
    }

    #[test]
    fn parent_and_name_of_nested() {
        let (p, n) = parent_and_name("/x").unwrap();
        assert!(p.is_empty());
        assert_eq!(n, "x");
        assert!(parent_and_name("/").is_err());
    }

    #[test]
    fn validate_name_rules() {
        assert!(validate_name("ok").is_ok());
        assert_eq!(validate_name("."), Err(FsError::InvalidArgument));
        assert_eq!(validate_name(".."), Err(FsError::InvalidArgument));
        assert_eq!(validate_name("a/b"), Err(FsError::InvalidArgument));
        assert_eq!(
            validate_name(&"y".repeat(MAX_NAME_LEN + 1)),
            Err(FsError::NameTooLong)
        );
    }

    #[test]
    fn to_string_roundtrip() {
        for p in ["/", "/a", "/a/b/c"] {
            let comps = normalize(p).unwrap();
            assert_eq!(to_string(&comps), p.to_string());
        }
    }

    #[test]
    fn normalize_ref_matches_normalize() {
        for p in [
            "/",
            "/a",
            "/a/b/c",
            "/a//b/./c",
            "/a/../b",
            "/..",
            "/../..",
            "/a/../../b",
        ] {
            assert_eq!(
                normalize(p).unwrap(),
                normalize_ref(p).unwrap()[..],
                "mismatch for {p}"
            );
        }
        assert_eq!(normalize_ref("a/b"), Err(FsError::InvalidArgument));
        assert_eq!(normalize_ref("/a\0b"), Err(FsError::InvalidArgument));
        let long = format!("/{}", "x".repeat(MAX_NAME_LEN + 1));
        assert_eq!(normalize_ref(&long), Err(FsError::NameTooLong));
    }

    /// The parser as it was before its components moved to the stack:
    /// one `Vec` per call. The reference for the differential below.
    fn normalize_vec(path: &str) -> FsResult<Vec<&str>> {
        if !path.starts_with('/') {
            return Err(FsError::InvalidArgument);
        }
        let mut out: Vec<&str> = Vec::new();
        for comp in path.split('/') {
            match comp {
                "" | "." => {}
                ".." => {
                    out.pop();
                }
                name => {
                    if name.len() > MAX_NAME_LEN {
                        return Err(FsError::NameTooLong);
                    }
                    if name.bytes().any(|b| b == 0) {
                        return Err(FsError::InvalidArgument);
                    }
                    out.push(name);
                }
            }
        }
        Ok(out)
    }

    /// `..` at a depth past the inline capacity pops from the heap buffer,
    /// and the components left read back in order.
    #[test]
    fn dotdot_pops_past_the_inline_depth() {
        let deep: String = (0..INLINE_COMPS + 4).map(|i| format!("/d{i}")).collect();
        let comps = normalize_ref(&deep).unwrap();
        assert!(comps.spilled());
        assert_eq!(comps.len(), INLINE_COMPS + 4);
        let back = format!("{deep}/../../../../../..");
        let comps = normalize_ref(&back).unwrap();
        assert_eq!(comps.len(), INLINE_COMPS - 2);
        let want: Vec<String> = (0..INLINE_COMPS - 2).map(|i| format!("d{i}")).collect();
        assert_eq!(comps[..], want);
        let again = format!("{back}/x/y/z/w");
        assert_eq!(
            normalize_ref(&again).unwrap()[..],
            normalize_vec(&again).unwrap()[..]
        );
    }

    /// Seeded random paths (up to three times the inline depth, with
    /// `.`, `..`, empty, over-long and NUL components) parse the same as
    /// with the `Vec` parser.
    #[test]
    fn normalize_ref_matches_the_vec_parser() {
        crate::rng::check_seeds(256, |rng| {
            let long = "n".repeat(MAX_NAME_LEN + 1);
            let mut path = String::new();
            if rng.random_bool(0.95) {
                path.push('/');
            }
            for _ in 0..rng.random_range(0..3 * INLINE_COMPS) {
                let comp = match rng.random_range(0u32..20) {
                    0 => "",
                    1 => ".",
                    2..=5 => "..",
                    6 => {
                        if rng.random_bool(0.1) {
                            long.as_str()
                        } else {
                            "n"
                        }
                    }
                    7 if rng.random_bool(0.1) => "a\0b",
                    k => ["a", "b", "c", "dd", "eee"][k as usize % 5],
                };
                path.push_str(comp);
                path.push('/');
            }
            match (normalize_ref(&path), normalize_vec(&path)) {
                (Ok(got), Ok(want)) => assert_eq!(got[..], want[..], "{path:?}"),
                (got, want) => assert_eq!(got.map(|_| ()), want.map(|_| ()), "{path:?}"),
            };
        });
    }

    #[test]
    fn split_keeps_raw_components() {
        assert_eq!(split("/a/../b").unwrap(), vec!["a", "..", "b"]);
        assert!(split("rel").is_err());
    }

    #[test]
    fn is_prefix_basics() {
        let empty: [&str; 0] = [];
        assert!(is_prefix(&empty, &["a"]));
        assert!(!is_prefix(&["a", "b"], &["a", "c"]));
    }
}
