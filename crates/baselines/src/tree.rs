//! A naive single-threaded file system tree.
//!
//! This is the shared engine behind the coarse-grained comparison file
//! systems: [`crate::SeqFs`] (a global mutex around it — the DFSCQ
//! stand-in) and [`crate::RwTreeFs`] (a readers/writer lock — the tmpfs
//! stand-in). It implements the same POSIX semantics and error precedence
//! as AtomFS, which the conformance suite verifies for every baseline.

use std::collections::BTreeMap;

use atomfs::blocks::MAX_FILE_SIZE;
use atomfs_vfs::{FileType, FsError, FsResult, Metadata};

/// Inode id within a [`Tree`].
pub type NodeId = u64;

/// The root id.
pub const ROOT: NodeId = 1;

/// One inode.
#[derive(Debug, Clone)]
pub enum TNode {
    /// A regular file's bytes.
    File(Vec<u8>),
    /// A directory's entries.
    Dir(BTreeMap<String, NodeId>),
}

impl TNode {
    fn ftype(&self) -> FileType {
        match self {
            TNode::File(_) => FileType::File,
            TNode::Dir(_) => FileType::Dir,
        }
    }
}

/// A whole file system image.
#[derive(Debug)]
pub struct Tree {
    map: BTreeMap<NodeId, TNode>,
    next: NodeId,
}

impl Default for Tree {
    fn default() -> Self {
        Self::new()
    }
}

impl Tree {
    /// Empty tree with a root directory.
    pub fn new() -> Self {
        let mut map = BTreeMap::new();
        map.insert(ROOT, TNode::Dir(BTreeMap::new()));
        Tree {
            map,
            next: ROOT + 1,
        }
    }

    /// Number of live inodes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether only the root exists.
    pub fn is_empty(&self) -> bool {
        self.map.len() == 1
    }

    fn alloc(&mut self, node: TNode) -> NodeId {
        let id = self.next;
        self.next += 1;
        self.map.insert(id, node);
        id
    }

    fn dir(&self, id: NodeId) -> Option<&BTreeMap<String, NodeId>> {
        match self.map.get(&id) {
            Some(TNode::Dir(d)) => Some(d),
            _ => None,
        }
    }

    /// Resolve `comps` to a node id with walk semantics.
    fn resolve(&self, comps: &[String]) -> FsResult<NodeId> {
        let mut cur = ROOT;
        for name in comps {
            let d = match self.map.get(&cur) {
                Some(TNode::Dir(d)) => d,
                Some(TNode::File(_)) => return Err(FsError::NotDir),
                None => return Err(FsError::NotFound),
            };
            cur = *d.get(name).ok_or(FsError::NotFound)?;
        }
        Ok(cur)
    }

    fn resolve_dir(&self, comps: &[String]) -> FsResult<NodeId> {
        let id = self.resolve(comps)?;
        match self.map.get(&id) {
            Some(TNode::Dir(_)) => Ok(id),
            _ => Err(FsError::NotDir),
        }
    }

    /// Create a file or directory.
    pub fn create(&mut self, comps: &[String], ftype: FileType) -> FsResult<()> {
        let Some((name, parent)) = comps.split_last() else {
            return Err(FsError::Exists);
        };
        let pid = self.resolve_dir(parent)?;
        if self.dir(pid).expect("dir").contains_key(name) {
            return Err(FsError::Exists);
        }
        let node = match ftype {
            FileType::File => TNode::File(Vec::new()),
            FileType::Dir => TNode::Dir(BTreeMap::new()),
        };
        let id = self.alloc(node);
        if let Some(TNode::Dir(d)) = self.map.get_mut(&pid) {
            d.insert(name.clone(), id);
        }
        Ok(())
    }

    /// Remove a file (`want_dir = false`) or empty directory.
    pub fn remove(&mut self, comps: &[String], want_dir: bool) -> FsResult<()> {
        let Some((name, parent)) = comps.split_last() else {
            return Err(if want_dir {
                FsError::Busy
            } else {
                FsError::IsDir
            });
        };
        let pid = self.resolve_dir(parent)?;
        let child = *self
            .dir(pid)
            .expect("dir")
            .get(name)
            .ok_or(FsError::NotFound)?;
        let cftype = self.map.get(&child).expect("linked").ftype();
        if want_dir && cftype == FileType::File {
            return Err(FsError::NotDir);
        }
        if !want_dir && cftype == FileType::Dir {
            return Err(FsError::IsDir);
        }
        if want_dir && !self.dir(child).expect("dir").is_empty() {
            return Err(FsError::NotEmpty);
        }
        if let Some(TNode::Dir(d)) = self.map.get_mut(&pid) {
            d.remove(name);
        }
        self.map.remove(&child);
        Ok(())
    }

    /// Rename, following the same decision order as AtomFS.
    pub fn rename(&mut self, src: &[String], dst: &[String]) -> FsResult<()> {
        if src.is_empty() || dst.is_empty() {
            return Err(FsError::Busy);
        }
        if src.len() < dst.len() && dst[..src.len()] == src[..] {
            return Err(FsError::InvalidArgument);
        }
        let dst_is_ancestor = dst.len() < src.len() && src[..dst.len()] == dst[..];
        let (sn, sp) = src.split_last().expect("nonempty");
        let (dn, dp) = dst.split_last().expect("nonempty");
        if src == dst {
            let pid = self.resolve_dir(sp)?;
            return if self.dir(pid).expect("dir").contains_key(sn) {
                Ok(())
            } else {
                Err(FsError::NotFound)
            };
        }
        let sdir = self.resolve_dir(sp)?;
        let ddir = self.resolve_dir(dp)?;
        let snode = *self
            .dir(sdir)
            .expect("dir")
            .get(sn)
            .ok_or(FsError::NotFound)?;
        if dst_is_ancestor {
            return Err(FsError::NotEmpty);
        }
        let dnode = self.dir(ddir).expect("dir").get(dn).copied();
        if dnode == Some(snode) {
            return Ok(());
        }
        let s_is_dir = self.map.get(&snode).expect("linked").ftype().is_dir();
        if let Some(d) = dnode {
            let d_is_dir = self.map.get(&d).expect("linked").ftype().is_dir();
            if s_is_dir && !d_is_dir {
                return Err(FsError::NotDir);
            }
            if !s_is_dir && d_is_dir {
                return Err(FsError::IsDir);
            }
            if d_is_dir && !self.dir(d).expect("dir").is_empty() {
                return Err(FsError::NotEmpty);
            }
            if let Some(TNode::Dir(dd)) = self.map.get_mut(&ddir) {
                dd.remove(dn);
            }
            self.map.remove(&d);
        }
        if let Some(TNode::Dir(sd)) = self.map.get_mut(&sdir) {
            sd.remove(sn);
        }
        if let Some(TNode::Dir(dd)) = self.map.get_mut(&ddir) {
            dd.insert(dn.clone(), snode);
        }
        Ok(())
    }

    /// Metadata lookup.
    pub fn stat(&self, comps: &[String]) -> FsResult<Metadata> {
        let id = self.resolve(comps)?;
        Ok(match self.map.get(&id).expect("resolved") {
            TNode::File(f) => Metadata::file(id, f.len() as u64),
            TNode::Dir(d) => {
                let subdirs = d
                    .values()
                    .filter(|c| matches!(self.map.get(c), Some(TNode::Dir(_))))
                    .count() as u32;
                Metadata::dir(id, d.len() as u64, subdirs)
            }
        })
    }

    /// Directory listing.
    pub fn readdir(&self, comps: &[String]) -> FsResult<Vec<String>> {
        let id = self.resolve(comps)?;
        match self.map.get(&id).expect("resolved") {
            TNode::Dir(d) => Ok(d.keys().cloned().collect()),
            TNode::File(_) => Err(FsError::NotDir),
        }
    }

    /// Positional read.
    pub fn read(&self, comps: &[String], offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        let id = self.resolve(comps)?;
        match self.map.get(&id).expect("resolved") {
            TNode::File(f) => {
                let off = offset as usize;
                if off >= f.len() {
                    return Ok(0);
                }
                let n = buf.len().min(f.len() - off);
                buf[..n].copy_from_slice(&f[off..off + n]);
                Ok(n)
            }
            TNode::Dir(_) => Err(FsError::IsDir),
        }
    }

    /// Positional write with zero-filled holes.
    pub fn write(&mut self, comps: &[String], offset: u64, data: &[u8]) -> FsResult<usize> {
        let id = self.resolve(comps)?;
        match self.map.get_mut(&id).expect("resolved") {
            TNode::File(f) => write_bytes(f, offset, data),
            TNode::Dir(_) => Err(FsError::IsDir),
        }
    }

    /// Resize a file.
    pub fn truncate(&mut self, comps: &[String], size: u64) -> FsResult<()> {
        let id = self.resolve(comps)?;
        match self.map.get_mut(&id).expect("resolved") {
            TNode::File(f) => truncate_bytes(f, size),
            TNode::Dir(_) => Err(FsError::IsDir),
        }
    }
}

/// Write `data` into a file's bytes at `offset`, zero-filling any hole,
/// under AtomFS's maximum file size.
pub(crate) fn write_bytes(f: &mut Vec<u8>, offset: u64, data: &[u8]) -> FsResult<usize> {
    if data.is_empty() {
        return Ok(0);
    }
    let end = offset
        .checked_add(data.len() as u64)
        .filter(|&end| end <= MAX_FILE_SIZE)
        .ok_or(FsError::FileTooBig)? as usize;
    if f.len() < end {
        f.resize(end, 0);
    }
    f[offset as usize..end].copy_from_slice(data);
    Ok(data.len())
}

/// Resize a file's bytes under AtomFS's maximum file size.
pub(crate) fn truncate_bytes(f: &mut Vec<u8>, size: u64) -> FsResult<()> {
    if size > MAX_FILE_SIZE {
        return Err(FsError::FileTooBig);
    }
    f.resize(size as usize, 0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comps(s: &[&str]) -> Vec<String> {
        s.iter().map(|c| c.to_string()).collect()
    }

    #[test]
    fn create_resolve_remove() {
        let mut t = Tree::new();
        t.create(&comps(&["a"]), FileType::Dir).unwrap();
        t.create(&comps(&["a", "f"]), FileType::File).unwrap();
        assert_eq!(
            t.create(&comps(&["a", "f"]), FileType::File),
            Err(FsError::Exists)
        );
        assert!(t.stat(&comps(&["a", "f"])).unwrap().ftype.is_file());
        assert_eq!(t.remove(&comps(&["a"]), true), Err(FsError::NotEmpty));
        t.remove(&comps(&["a", "f"]), false).unwrap();
        t.remove(&comps(&["a"]), true).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn rename_semantics_match_atomfs() {
        let mut t = Tree::new();
        t.create(&comps(&["a"]), FileType::Dir).unwrap();
        t.create(&comps(&["a", "b"]), FileType::Dir).unwrap();
        assert_eq!(
            t.rename(&comps(&["a"]), &comps(&["a", "b", "c"])),
            Err(FsError::InvalidArgument)
        );
        assert_eq!(
            t.rename(&comps(&["a", "b"]), &comps(&["a"])),
            Err(FsError::NotEmpty)
        );
        t.rename(&comps(&["a", "b"]), &comps(&["b2"])).unwrap();
        assert!(t.stat(&comps(&["b2"])).is_ok());
        assert_eq!(t.rename(&comps(&[]), &comps(&["x"])), Err(FsError::Busy));
    }

    #[test]
    fn io_roundtrip() {
        let mut t = Tree::new();
        t.create(&comps(&["f"]), FileType::File).unwrap();
        assert_eq!(t.write(&comps(&["f"]), 3, b"xy").unwrap(), 2);
        let mut buf = [9u8; 5];
        assert_eq!(t.read(&comps(&["f"]), 0, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"\0\0\0xy");
        t.truncate(&comps(&["f"]), 1).unwrap();
        assert_eq!(t.stat(&comps(&["f"])).unwrap().size, 1);
    }

    #[test]
    fn readdir_and_errors() {
        let mut t = Tree::new();
        t.create(&comps(&["f"]), FileType::File).unwrap();
        assert_eq!(t.readdir(&comps(&["f"])), Err(FsError::NotDir));
        assert_eq!(t.readdir(&comps(&[])).unwrap(), vec!["f"]);
        let mut buf = [0u8; 1];
        assert_eq!(t.read(&comps(&[]), 0, &mut buf), Err(FsError::IsDir));
    }
}
