//! Running generated ops against a stack and judging the results.
//!
//! Everything here calls the product only through its public functions:
//! the `FileSystem` trait, `FdTable`, `RpcClient`/`RemoteFs`.

use std::sync::Arc;

use atomfs_server::{RemoteFs, Request, Response, RpcClient, FLAG_READ, FLAG_WRITE};
use atomfs_vfs::{Fd, FdTable, FileSystem, FileType, FsError, FsResult, OpenOptions};

use crate::gen::{Layout, Op, Pattern, MAX_IO};
use crate::span;

/// What one client thread drives: a file system plus one FD slot.
pub trait Client: Send {
    fn fs(&self) -> &dyn FileSystem;
    fn fd_open(&mut self, path: &str) -> FsResult<()>;
    fn fd_write(&mut self, off: u64, data: &[u8]) -> FsResult<usize>;
    fn fd_read(&mut self, off: u64, buf: &mut [u8]) -> FsResult<usize>;
    fn fd_close(&mut self) -> FsResult<()>;
}

const RDWR: OpenOptions = OpenOptions {
    read: true,
    write: true,
    create: false,
    truncate: false,
    append: false,
};

/// In-process client: the file system itself, FDs through `vfs::FdTable`
/// exactly as the server keeps them per connection.
pub struct LocalClient<F: FileSystem> {
    fds: FdTable<F>,
    fd: Option<Fd>,
}

impl<F: FileSystem> LocalClient<F> {
    pub fn new(fs: Arc<F>) -> Self {
        LocalClient {
            fds: FdTable::new(fs),
            fd: None,
        }
    }
}

impl<F: FileSystem> Client for LocalClient<F> {
    fn fs(&self) -> &dyn FileSystem {
        &**self.fds.fs()
    }
    fn fd_open(&mut self, path: &str) -> FsResult<()> {
        self.fd = Some(self.fds.open(path, RDWR)?);
        Ok(())
    }
    fn fd_write(&mut self, off: u64, data: &[u8]) -> FsResult<usize> {
        self.fds.write_at(self.fd.ok_or(FsError::BadFd)?, off, data)
    }
    fn fd_read(&mut self, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.fds.read_at(self.fd.ok_or(FsError::BadFd)?, off, buf)
    }
    fn fd_close(&mut self) -> FsResult<()> {
        self.fds.close(self.fd.take().ok_or(FsError::BadFd)?)
    }
}

/// One loopback connection, one request in flight. `F` is `RemoteFs`, or
/// `SpanFs<RemoteFs>` on a traced run; FD calls bypass the `FileSystem`
/// trait, so on a traced run they record their client span here.
pub struct RemoteClient<F: FileSystem> {
    fs: F,
    rpc: Arc<RpcClient>,
    fd: Option<u32>,
    /// `Some(conn)` on a traced run.
    span_conn: Option<u8>,
}

impl RemoteClient<RemoteFs> {
    pub fn new(rpc: Arc<RpcClient>) -> Self {
        RemoteClient {
            fs: RemoteFs::new(Arc::clone(&rpc)),
            rpc,
            fd: None,
            span_conn: None,
        }
    }
}

impl RemoteClient<span::SpanFs<RemoteFs>> {
    pub fn traced(rpc: Arc<RpcClient>, conn: u8) -> Self {
        let fs = span::SpanFs::new(RemoteFs::new(Arc::clone(&rpc)), "client", Some(conn));
        RemoteClient {
            fs,
            rpc,
            fd: None,
            span_conn: Some(conn),
        }
    }
}

impl<F: FileSystem> RemoteClient<F> {
    fn span(&self, name: &'static str) -> Option<span::Open> {
        self.span_conn.map(|c| span::enter("client", name, Some(c)))
    }
}

impl<F: FileSystem> Client for RemoteClient<F> {
    fn fs(&self) -> &dyn FileSystem {
        &self.fs
    }
    fn fd_open(&mut self, path: &str) -> FsResult<()> {
        let _s = self.span("fd_open");
        self.fd = Some(self.rpc.open(path, FLAG_READ | FLAG_WRITE)?);
        Ok(())
    }
    fn fd_write(&mut self, off: u64, data: &[u8]) -> FsResult<usize> {
        let _s = self.span("fd_write");
        self.rpc.pwrite(self.fd.ok_or(FsError::BadFd)?, off, data)
    }
    fn fd_read(&mut self, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        let _s = self.span("fd_read");
        let data = self
            .rpc
            .pread(self.fd.ok_or(FsError::BadFd)?, off, buf.len() as u32)?;
        buf[..data.len()].copy_from_slice(&data);
        Ok(data.len())
    }
    fn fd_close(&mut self) -> FsResult<()> {
        let _s = self.span("fd_close");
        self.rpc.close_fd(self.fd.take().ok_or(FsError::BadFd)?)
    }
}

/// A read as generated: which bytes of which logical file, out of a file
/// of `size` bytes whose first `valid` hold the pattern.
struct Want {
    fid: u32,
    off: u32,
    len: u32,
    size: u32,
    valid: u32,
}

/// What an op's result is judged against.
pub struct Judge<'a> {
    pub layout: &'a Layout,
    pub pattern: &'a Pattern,
    /// The contended mix: `ENOENT`/`EEXIST` are what POSIX prescribes
    /// when another client got there first, sizes are not predictable.
    pub contended: bool,
}

impl Judge<'_> {
    fn expected_error(&self, e: FsError) -> bool {
        self.contended && matches!(e, FsError::NotFound | FsError::Exists)
    }

    fn unit(&self, r: FsResult<()>) -> bool {
        r.map_or_else(|e| self.expected_error(e), |()| true)
    }

    /// Whether `got` is what the read described by `want` must return.
    fn read_ok(&self, want: Want, got: &[u8]) -> bool {
        let full = want.size.saturating_sub(want.off).min(want.len) as usize;
        (self.contended || got.len() == full)
            && self
                .pattern
                .matches(want.fid, want.off as u64, want.valid as u64, got)
    }

    fn read(&self, r: FsResult<usize>, buf: &[u8], want: Want) -> bool {
        match r {
            Ok(n) => self.read_ok(want, &buf[..n]),
            Err(e) => self.expected_error(e),
        }
    }

    fn wrote(&self, r: FsResult<usize>, len: u32) -> bool {
        r.map_or_else(|e| self.expected_error(e), |n| n == len as usize)
    }

    /// Run `op` on `client`; `false` is a failed op.
    pub fn exec(&self, client: &mut dyn Client, buf: &mut [u8; MAX_IO], op: Op) -> bool {
        let path = |id: u32| self.layout.paths[id as usize].as_str();
        match op {
            Op::Mknod { path: p } => self.unit(client.fs().mknod(path(p))),
            Op::Unlink { path: p } => self.unit(client.fs().unlink(path(p))),
            Op::Rename { src, dst } => self.unit(client.fs().rename(path(src), path(dst))),
            Op::Truncate { path: p, size } => self.unit(client.fs().truncate(path(p), size as u64)),
            Op::Sync => self.unit(client.fs().sync()),
            Op::Stat { path: p, size } => match client.fs().stat(path(p)) {
                Ok(m) => m.ftype == FileType::File && (self.contended || m.size == size as u64),
                Err(e) => self.expected_error(e),
            },
            Op::Readdir { dir } => client.fs().readdir(&self.layout.dirs[dir as usize]).is_ok(),
            Op::Read {
                path: p,
                fid,
                off,
                len,
                size,
                valid,
            } => {
                let r = client
                    .fs()
                    .read(path(p), off as u64, &mut buf[..len as usize]);
                self.read(
                    r,
                    buf,
                    Want {
                        fid,
                        off,
                        len,
                        size,
                        valid,
                    },
                )
            }
            Op::Write {
                path: p,
                fid,
                off,
                len,
            } => {
                let data = self.pattern.slice(fid, off as u64, len as usize);
                self.wrote(client.fs().write(path(p), off as u64, data), len)
            }
            Op::FdOpen { path: p } => self.unit(client.fd_open(path(p))),
            Op::FdWrite { fid, off, len } => {
                let data = self.pattern.slice(fid, off as u64, len as usize);
                self.wrote(client.fd_write(off as u64, data), len)
            }
            Op::FdRead {
                fid,
                off,
                len,
                size,
                valid,
            } => {
                let r = client.fd_read(off as u64, &mut buf[..len as usize]);
                self.read(
                    r,
                    buf,
                    Want {
                        fid,
                        off,
                        len,
                        size,
                        valid,
                    },
                )
            }
            Op::FdClose => self.unit(client.fd_close()),
        }
    }

    /// `op` as an owned wire request, for `submit_batch`. `fd` is the
    /// descriptor the connection's last `Open` returned.
    pub fn request(&self, op: Op, fd: u32) -> Request {
        let path = |id: u32| self.layout.paths[id as usize].clone();
        let bytes = |fid: u32, off: u32, len: u32| {
            self.pattern.slice(fid, off as u64, len as usize).to_vec()
        };
        match op {
            Op::Mknod { path: p } => Request::Mknod { path: path(p) },
            Op::Unlink { path: p } => Request::Unlink { path: path(p) },
            Op::Rename { src, dst } => Request::Rename {
                src: path(src),
                dst: path(dst),
            },
            Op::Truncate { path: p, size } => Request::Truncate {
                path: path(p),
                size: size as u64,
            },
            Op::Sync => Request::Sync,
            Op::Stat { path: p, .. } => Request::Stat { path: path(p) },
            Op::Readdir { dir } => Request::Readdir {
                path: self.layout.dirs[dir as usize].clone(),
            },
            Op::Read {
                path: p, off, len, ..
            } => Request::Read {
                path: path(p),
                offset: off as u64,
                len,
            },
            Op::Write {
                path: p,
                fid,
                off,
                len,
            } => Request::Write {
                path: path(p),
                offset: off as u64,
                data: bytes(fid, off, len),
            },
            Op::FdOpen { path: p } => Request::Open {
                path: path(p),
                flags: FLAG_READ | FLAG_WRITE,
            },
            Op::FdWrite { fid, off, len } => Request::PWrite {
                fd,
                offset: off as u64,
                data: bytes(fid, off, len),
            },
            Op::FdRead { off, len, .. } => Request::PRead {
                fd,
                offset: off as u64,
                len,
            },
            Op::FdClose => Request::Close { fd },
        }
    }

    /// Whether `rsp` is the right answer to `op` (the pipelined twin of
    /// [`Judge::exec`]'s checks).
    pub fn response_ok(&self, op: Op, rsp: &FsResult<Response>) -> bool {
        let rsp = match rsp {
            Ok(Response::Err(e)) => return self.expected_error(*e),
            Ok(rsp) => rsp,
            Err(_) => return false, // transport
        };
        match (op, rsp) {
            (
                Op::Mknod { .. }
                | Op::Unlink { .. }
                | Op::Rename { .. }
                | Op::Truncate { .. }
                | Op::Sync
                | Op::FdClose,
                Response::Unit,
            ) => true,
            (Op::Stat { size, .. }, Response::Stat(m)) => {
                m.ftype == FileType::File && m.size == size as u64
            }
            (Op::Readdir { .. }, Response::Names(_)) => true,
            (
                Op::Read {
                    fid,
                    off,
                    len,
                    size,
                    valid,
                    ..
                }
                | Op::FdRead {
                    fid,
                    off,
                    len,
                    size,
                    valid,
                },
                Response::Data(d),
            ) => self.read_ok(
                Want {
                    fid,
                    off,
                    len,
                    size,
                    valid,
                },
                d,
            ),
            (Op::Write { len, .. } | Op::FdWrite { len, .. }, Response::Len(n)) => *n == len as u64,
            (Op::FdOpen { .. }, Response::Fd(_)) => true,
            _ => false,
        }
    }
}

/// Create the workload's starting tree through `fs`.
pub fn populate(fs: &dyn FileSystem, layout: &Layout, pattern: &Pattern) -> FsResult<()> {
    for dir in &layout.dirs {
        fs.mkdir(dir)?;
    }
    for seed in &layout.seeded {
        let path = &layout.paths[seed.path as usize];
        fs.mknod(path)?;
        let mut off = 0;
        while off < seed.size {
            let len = (seed.size - off).min(MAX_IO as u32);
            let n = fs.write(
                path,
                off as u64,
                pattern.slice(seed.fid, off as u64, len as usize),
            )?;
            if n != len as usize {
                return Err(FsError::Io);
            }
            off += len;
        }
    }
    Ok(())
}

/// Digest of the whole tree: every path, its type, its size and its
/// bytes, visited in name order.
pub fn tree_digest(fs: &dyn FileSystem) -> FsResult<u64> {
    fn mix(h: &mut u64, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            *h = (*h ^ u64::from_le_bytes(w))
                .wrapping_mul(0x100_0000_01b3)
                .rotate_left(23);
        }
        *h = (*h ^ bytes.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = vec![0u8; 1 << 16];
    let mut work = vec![String::from("/")];
    while let Some(dir) = work.pop() {
        let mut names = fs.readdir(&dir)?;
        names.sort_unstable();
        for name in names {
            let path = if dir == "/" {
                format!("/{name}")
            } else {
                format!("{dir}/{name}")
            };
            let meta = fs.stat(&path)?;
            mix(&mut h, path.as_bytes());
            mix(&mut h, &meta.size.to_le_bytes());
            match meta.ftype {
                FileType::Dir => {
                    mix(&mut h, b"d");
                    work.push(path);
                }
                FileType::File => {
                    let mut off = 0u64;
                    while off < meta.size {
                        let n = fs.read(&path, off, &mut buf)?;
                        if n == 0 {
                            return Err(FsError::Io);
                        }
                        mix(&mut h, &buf[..n]);
                        off += n as u64;
                    }
                }
            }
        }
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::OpGen;
    use crate::spec::Workload;
    use atomfs::AtomFs;

    /// Every non-contended stream must run clean, start to finish, on the
    /// simplest stack: the generator's model and the judge agree.
    #[test]
    fn generated_streams_run_clean_on_a_bare_fs() {
        for w in Workload::ALL {
            let layout = Layout::of(w);
            let pattern = Pattern::new(11);
            let judge = Judge {
                layout: &layout,
                pattern: &pattern,
                contended: w == Workload::LocalRenameChecked,
            };
            let fs = Arc::new(AtomFs::new());
            populate(&*fs, &layout, &pattern).unwrap();
            let mut buf = [0u8; MAX_IO];
            for t in 0..crate::gen::CLIENTS {
                let mut client = LocalClient::new(Arc::clone(&fs));
                let mut gen = OpGen::new(w, 11, t);
                for i in 0..20_000 {
                    let op = gen.next_op();
                    assert!(
                        judge.exec(&mut client, &mut buf, op),
                        "{w:?} thread {t} op {i}: {op:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn judge_flags_wrong_bytes_and_unexpected_errors() {
        let layout = Layout::of(Workload::LocalMeta);
        let pattern = Pattern::new(1);
        let other = Pattern::new(2);
        let fs = Arc::new(AtomFs::new());
        populate(&*fs, &layout, &other).unwrap(); // wrong contents on purpose
        let judge = Judge {
            layout: &layout,
            pattern: &pattern,
            contended: false,
        };
        let mut client = LocalClient::new(Arc::clone(&fs));
        let mut buf = [0u8; MAX_IO];
        let read = Op::Read {
            path: 0,
            fid: 0,
            off: 0,
            len: 4096,
            size: 4096,
            valid: 4096,
        };
        assert!(
            !judge.exec(&mut client, &mut buf, read),
            "bytes differ from the pattern"
        );
        assert!(
            !judge.exec(&mut client, &mut buf, Op::Mknod { path: 0 }),
            "EEXIST is a failure here"
        );
        let contended = Judge {
            contended: true,
            ..judge
        };
        assert!(
            contended.exec(&mut client, &mut buf, Op::Mknod { path: 0 }),
            "EEXIST is expected there"
        );
    }

    #[test]
    fn digest_sees_names_sizes_and_bytes() {
        let build = |f: &dyn Fn(&AtomFs)| {
            let fs = AtomFs::new();
            fs.mkdir("/a").unwrap();
            fs.mknod("/a/x").unwrap();
            fs.write("/a/x", 0, b"hello").unwrap();
            f(&fs);
            tree_digest(&fs).unwrap()
        };
        let base = build(&|_| {});
        assert_eq!(base, build(&|_| {}));
        assert_ne!(base, build(&|fs| fs.rename("/a/x", "/a/y").unwrap()));
        assert_ne!(base, build(&|fs| fs.truncate("/a/x", 4).unwrap()));
        assert_ne!(
            base,
            build(&|fs| fs.write("/a/x", 0, b"j").map(drop).unwrap())
        );
        assert_ne!(base, build(&|fs| fs.mkdir("/b").unwrap()));
    }
}
