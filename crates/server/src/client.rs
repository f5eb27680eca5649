//! Client library: pipelined RPC client and a [`FileSystem`] adapter.
//!
//! [`RpcClient`] owns one TCP connection. Requests are tagged and may be
//! kept in flight in any number (`submit` returns a [`Pending`] handle;
//! `call` is submit-then-wait); a dedicated reader thread matches
//! response frames back to their waiters by tag, so each reply completes
//! the right caller whatever order it arrives in. The reader pulls the
//! socket through a 64 KiB buffer, so a window of replies the server
//! wrote in one batch is read back in about one syscall.
//! [`submit_batch`] encodes a whole run of requests into one buffer and
//! hands it to the kernel with a single `write_all` — the client half of
//! the pipelined fast path the `serve_storm` benchmark measures.
//!
//! [`RemoteFs`] wraps an `Arc<RpcClient>` as a [`FileSystem`], so every
//! existing workload, wrapper (`MeteredFs`), and conformance check runs
//! unchanged against a server across the wire. I/O larger than
//! [`MAX_IO_LEN`] relies on the trait's partial-read/write contract: the
//! adapter clamps each transfer and the caller loops.
//!
//! [`submit_batch`]: RpcClient::submit_batch

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use atomfs_vfs::{FileSystem, FsError, FsResult, Metadata};
use parking_lot::Mutex;

use crate::wire::{self, ReqView, Request, Response, HDR_LEN, MAX_IO_LEN, RSP_MAGIC};

struct ClientInner {
    stream: TcpStream,
    writer: Mutex<TcpStream>,
    /// Waiters keyed by tag. `None` once the connection is dead — every
    /// sender was dropped, so parked `recv`s fail with `FsError::Io`.
    pending: Mutex<Option<HashMap<u64, mpsc::Sender<Response>>>>,
    next_tag: AtomicU64,
    dead: AtomicBool,
}

impl ClientInner {
    fn kill(&self) {
        self.dead.store(true, Ordering::Release);
        let _ = self.stream.shutdown(Shutdown::Both);
        // Dropping the map drops every sender: all waiters unblock.
        *self.pending.lock() = None;
    }
}

/// A response that has been sent but not yet awaited.
pub struct Pending {
    rx: mpsc::Receiver<Response>,
}

impl Pending {
    /// Block until the response frame for this request arrives.
    /// `FsError::Io` if the connection died first.
    pub fn wait(self) -> FsResult<Response> {
        self.rx.recv().map_err(|_| FsError::Io)
    }
}

/// A pipelined RPC client over one TCP connection.
pub struct RpcClient {
    inner: Arc<ClientInner>,
    reader: Mutex<Option<JoinHandle<()>>>,
}

impl RpcClient {
    /// Connect to a server at `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        let rstream = stream.try_clone()?;
        let inner = Arc::new(ClientInner {
            stream,
            writer: Mutex::new(writer),
            pending: Mutex::new(Some(HashMap::new())),
            next_tag: AtomicU64::new(1),
            dead: AtomicBool::new(false),
        });
        let reader = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("afs-cli-reader".into())
                .spawn(move || reader_loop(inner, rstream))?
        };
        Ok(RpcClient {
            inner,
            reader: Mutex::new(Some(reader)),
        })
    }

    /// Whether the connection has been torn down (by either end).
    pub fn is_dead(&self) -> bool {
        self.inner.dead.load(Ordering::Acquire)
    }

    fn register(&self, tag: u64) -> FsResult<Pending> {
        let (tx, rx) = mpsc::channel();
        match &mut *self.inner.pending.lock() {
            Some(map) => {
                map.insert(tag, tx);
            }
            None => return Err(FsError::Io),
        }
        Ok(Pending { rx })
    }

    /// Send one request without waiting; the returned [`Pending`]
    /// completes when its tagged response arrives. Any number of
    /// requests may be in flight at once.
    pub fn submit(&self, req: &ReqView<'_>) -> FsResult<Pending> {
        let tag = self.inner.next_tag.fetch_add(1, Ordering::Relaxed);
        let pending = self.register(tag)?;
        let mut buf = Vec::with_capacity(HDR_LEN + 64);
        wire::encode_request_frame(&mut buf, tag, req);
        if self.inner.writer.lock().write_all(&buf).is_err() {
            self.inner.kill();
            return Err(FsError::Io);
        }
        Ok(pending)
    }

    /// Encode every request into one buffer and send it with a single
    /// write — the whole batch enters the server's pipeline back to
    /// back. Responses complete out of order; each [`Pending`] is
    /// matched by tag.
    pub fn submit_batch(&self, reqs: &[Request]) -> FsResult<Vec<Pending>> {
        let mut buf = Vec::with_capacity(reqs.len() * (HDR_LEN + 64));
        let mut pendings = Vec::with_capacity(reqs.len());
        for req in reqs {
            let tag = self.inner.next_tag.fetch_add(1, Ordering::Relaxed);
            pendings.push(self.register(tag)?);
            wire::encode_request_frame(&mut buf, tag, &req.view());
        }
        if self.inner.writer.lock().write_all(&buf).is_err() {
            self.inner.kill();
            return Err(FsError::Io);
        }
        Ok(pendings)
    }

    /// Submit and wait: the serial (unpipelined) call path.
    pub fn call(&self, req: &ReqView<'_>) -> FsResult<Response> {
        self.submit(req)?.wait()
    }

    /// Sever the connection abruptly *without* closing descriptors
    /// first — simulates a client crash. The server's disconnect
    /// teardown must close everything this connection had open.
    pub fn abort(&self) {
        self.inner.kill();
    }

    fn expect_unit(&self, req: &ReqView<'_>) -> FsResult<()> {
        match self.call(req)? {
            Response::Unit => Ok(()),
            Response::Err(e) => Err(e),
            _ => Err(FsError::Io),
        }
    }

    /// Remote `open`: a descriptor in the server-side, per-connection
    /// FD table. `flags` are the `FLAG_*` bits.
    pub fn open(&self, path: &str, flags: u8) -> FsResult<u32> {
        match self.call(&ReqView::Open { path, flags })? {
            Response::Fd(fd) => Ok(fd),
            Response::Err(e) => Err(e),
            _ => Err(FsError::Io),
        }
    }

    /// Remote `close` of a descriptor from [`RpcClient::open`].
    pub fn close_fd(&self, fd: u32) -> FsResult<()> {
        self.expect_unit(&ReqView::Close { fd })
    }

    /// Remote positional read on a descriptor.
    pub fn pread(&self, fd: u32, offset: u64, len: u32) -> FsResult<Vec<u8>> {
        match self.call(&ReqView::PRead { fd, offset, len })? {
            Response::Data(d) => Ok(d),
            Response::Err(e) => Err(e),
            _ => Err(FsError::Io),
        }
    }

    /// Remote positional write on a descriptor.
    pub fn pwrite(&self, fd: u32, offset: u64, data: &[u8]) -> FsResult<usize> {
        match self.call(&ReqView::PWrite { fd, offset, data })? {
            Response::Len(n) => Ok(n as usize),
            Response::Err(e) => Err(e),
            _ => Err(FsError::Io),
        }
    }
}

impl Drop for RpcClient {
    fn drop(&mut self) {
        self.inner.kill();
        if let Some(h) = self.reader.lock().take() {
            let _ = h.join();
        }
    }
}

fn reader_loop(inner: Arc<ClientInner>, stream: TcpStream) {
    let mut stream = BufReader::with_capacity(64 << 10, stream);
    let mut hdr = [0u8; HDR_LEN];
    loop {
        if stream.read_exact(&mut hdr).is_err() {
            break;
        }
        let Some((_, total)) = wire::frame_size_hint(&hdr, RSP_MAGIC) else {
            break; // framing lost: unrecoverable
        };
        let mut frame = vec![0u8; total];
        frame[..HDR_LEN].copy_from_slice(&hdr);
        if stream.read_exact(&mut frame[HDR_LEN..]).is_err() {
            break;
        }
        let Some((tag, rsp, _)) = wire::decode_response_frame(&frame) else {
            break; // checksum/shape failure
        };
        let waiter = match &mut *inner.pending.lock() {
            Some(map) => map.remove(&tag),
            None => break,
        };
        if let Some(tx) = waiter {
            let _ = tx.send(rsp); // waiter may have given up; fine
        }
    }
    inner.kill();
}

/// [`FileSystem`] over an [`RpcClient`]: every operation becomes one RPC
/// (large I/O becomes several via the partial-transfer contract).
pub struct RemoteFs {
    client: Arc<RpcClient>,
}

impl RemoteFs {
    /// Wrap `client` as a file system.
    pub fn new(client: Arc<RpcClient>) -> Self {
        RemoteFs { client }
    }

    /// The underlying client (for descriptor ops or batch submission on
    /// the same connection).
    pub fn client(&self) -> &Arc<RpcClient> {
        &self.client
    }
}

impl FileSystem for RemoteFs {
    fn name(&self) -> &'static str {
        "remote"
    }

    fn mknod(&self, path: &str) -> FsResult<()> {
        self.client.expect_unit(&ReqView::Mknod { path })
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.client.expect_unit(&ReqView::Mkdir { path })
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        self.client.expect_unit(&ReqView::Unlink { path })
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.client.expect_unit(&ReqView::Rmdir { path })
    }

    fn rename(&self, src: &str, dst: &str) -> FsResult<()> {
        self.client.expect_unit(&ReqView::Rename { src, dst })
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        match self.client.call(&ReqView::Stat { path })? {
            Response::Stat(m) => Ok(m),
            Response::Err(e) => Err(e),
            _ => Err(FsError::Io),
        }
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        match self.client.call(&ReqView::Readdir { path })? {
            Response::Names(names) => Ok(names),
            Response::Err(e) => Err(e),
            _ => Err(FsError::Io),
        }
    }

    fn read(&self, path: &str, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        let want = buf.len().min(MAX_IO_LEN) as u32;
        match self.client.call(&ReqView::Read {
            path,
            offset,
            len: want,
        })? {
            Response::Data(d) => {
                let n = d.len().min(buf.len());
                buf[..n].copy_from_slice(&d[..n]);
                Ok(n)
            }
            Response::Err(e) => Err(e),
            _ => Err(FsError::Io),
        }
    }

    fn write(&self, path: &str, offset: u64, data: &[u8]) -> FsResult<usize> {
        let chunk = &data[..data.len().min(MAX_IO_LEN)];
        match self.client.call(&ReqView::Write {
            path,
            offset,
            data: chunk,
        })? {
            Response::Len(n) => Ok(n as usize),
            Response::Err(e) => Err(e),
            _ => Err(FsError::Io),
        }
    }

    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        self.client.expect_unit(&ReqView::Truncate { path, size })
    }

    fn sync(&self) -> FsResult<()> {
        self.client.expect_unit(&ReqView::Sync)
    }
}
