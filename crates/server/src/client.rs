//! Client library: pipelined RPC client and a [`FileSystem`] adapter.
//!
//! [`RpcClient`] owns one TCP connection. Requests are tagged and may be
//! kept in flight in any number (`submit` returns a [`Pending`] handle;
//! `call` is submit-then-wait). There is no reader thread: the callers
//! read their own replies. Whichever waiter finds no reader at work
//! takes the read role, pulls frames through a 64 KiB buffer into one
//! reused frame buffer, and keeps reading until its own tag arrives;
//! every other tag's reply it meets goes into that request's slot and
//! wakes the parked waiters, so a reply already read is never held up
//! behind a slow one. On the common path — one thread per connection —
//! a reply wakes at most that thread, out of its own `read`, and inside
//! a window usually nobody: the caller finds it in the buffer its
//! previous read filled. A window of replies the server wrote in one
//! batch is read back in about one syscall.
//! [`submit_batch`] encodes a whole run of requests into one reused
//! buffer and hands it to the kernel with a single `write_all` — the
//! client half of the pipelined fast path the `serve_storm` benchmark
//! measures.
//!
//! Replies are read only while some caller waits. A caller must
//! therefore not put more requests in flight, unawaited, than the two
//! socket buffers can hold replies for: the server's writes would block
//! against the unread replies, it would stop reading, and the caller's
//! own write would block in turn. Windows of small requests (the
//! benchmarks use 64) are far below that.
//!
//! A [`Pending`] dropped unawaited gives its slot up; its reply is
//! discarded when it arrives. EOF, a frame that fails to decode, a
//! failed write, or [`RpcClient::abort`] marks the connection dead:
//! every waiter, parked or reading, returns `FsError::Io`, except one
//! whose reply was read before the failure, which still gets it.
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
use std::sync::Arc;

use atomfs_vfs::{FileSystem, FsError, FsResult, Metadata};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::wire::{self, ReqView, Request, Response, HDR_LEN, MAX_IO_LEN, RSP_MAGIC};

/// Who is waiting for what, and whether anyone is reading.
struct ReplyState {
    /// One slot per request in flight, keyed by tag: `None` until the
    /// reply is read, then the reply until its owner takes it.
    slots: HashMap<u64, Option<Response>>,
    next_tag: u64,
    /// A waiter holds the read role (and `ClientInner::reader`).
    reading: bool,
    /// The connection failed; nothing more will be read or written.
    dead: bool,
    /// Waiters asleep on `ClientInner::wake`.
    parked: usize,
}

/// The send half: the socket and the buffer every request is encoded in.
struct Writer {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// The receive half, used only by the waiter holding the read role.
struct Receiver {
    stream: BufReader<TcpStream>,
    /// Holds one frame at a time; grows to the largest frame seen.
    frame: Vec<u8>,
}

impl Receiver {
    /// The next reply off the socket; `None` on EOF, a read error, or a
    /// frame that fails its framing or checksum (unrecoverable).
    fn next_frame(&mut self) -> Option<(u64, Response)> {
        let Receiver { stream, frame } = self;
        stream.read_exact(&mut frame[..HDR_LEN]).ok()?;
        let (_, total) = wire::frame_size_hint(&frame[..HDR_LEN], RSP_MAGIC)?;
        if frame.len() < total {
            frame.resize(total, 0);
        }
        stream.read_exact(&mut frame[HDR_LEN..total]).ok()?;
        let (tag, rsp, _) = wire::decode_response_frame(&frame[..total])?;
        Some((tag, rsp))
    }
}

struct ClientInner {
    /// Kept to shut the socket down without taking either half's lock.
    stream: TcpStream,
    writer: Mutex<Writer>,
    reader: Mutex<Receiver>,
    state: Mutex<ReplyState>,
    wake: Condvar,
}

impl ClientInner {
    /// Reserve `n` consecutive tags with an empty slot each; the first
    /// tag, or `FsError::Io` if the connection is dead.
    fn register(&self, n: usize) -> FsResult<u64> {
        let mut st = self.state.lock();
        if st.dead {
            return Err(FsError::Io);
        }
        let first = st.next_tag;
        st.next_tag += n as u64;
        for tag in first..st.next_tag {
            st.slots.insert(tag, None);
        }
        Ok(first)
    }

    /// Encode into the reused send buffer and write it in one call.
    fn send(&self, encode: impl FnOnce(&mut Vec<u8>)) -> FsResult<()> {
        let mut w = self.writer.lock();
        let Writer { stream, buf } = &mut *w;
        buf.clear();
        encode(buf);
        let sent = stream.write_all(buf).is_ok();
        drop(w);
        if sent {
            Ok(())
        } else {
            self.kill();
            Err(FsError::Io)
        }
    }

    fn kill(&self) {
        let mut st = self.state.lock();
        st.dead = true;
        // Unblocks a waiter reading the socket; parked ones are woken.
        let _ = self.stream.shutdown(Shutdown::Both);
        self.unlock_and_wake(st);
    }

    /// Release the state lock, then wake the parked waiters, if any.
    fn unlock_and_wake(&self, st: MutexGuard<'_, ReplyState>) {
        let parked = st.parked > 0;
        drop(st);
        if parked {
            self.wake.notify_all();
        }
    }

    /// Block until `tag`'s reply is in: take it from its slot, or take
    /// the read role and read the socket until it arrives.
    fn wait(&self, tag: u64) -> FsResult<Response> {
        let mut st = self.state.lock();
        loop {
            let dead = st.dead;
            match st.slots.get_mut(&tag).map(Option::take) {
                Some(Some(rsp)) => {
                    st.slots.remove(&tag);
                    return Ok(rsp);
                }
                Some(None) if !dead => {}
                _ => {
                    st.slots.remove(&tag);
                    return Err(FsError::Io);
                }
            }
            if !st.reading {
                st.reading = true;
                drop(st);
                return self.read_until(tag);
            }
            st.parked += 1;
            self.wake.wait(&mut st);
            st.parked -= 1;
        }
    }

    /// The read role: read frames until `tag`'s, filing every other
    /// tag's reply in its slot, then hand the role back.
    fn read_until(&self, tag: u64) -> FsResult<Response> {
        let mut rd = self.reader.lock();
        let result = loop {
            let frame = rd.next_frame();
            let mut st = self.state.lock();
            match frame {
                Some((t, rsp)) if t == tag => break (st, Ok(rsp)),
                Some((t, rsp)) => {
                    // No slot: its `Pending` was dropped; discard.
                    if let Some(slot) = st.slots.get_mut(&t) {
                        *slot = Some(rsp);
                    }
                    if st.dead {
                        break (st, Err(FsError::Io));
                    }
                    self.unlock_and_wake(st);
                }
                None => {
                    st.dead = true;
                    let _ = self.stream.shutdown(Shutdown::Both);
                    break (st, Err(FsError::Io));
                }
            }
        };
        drop(rd);
        // Hand the role back: a parked waiter takes it over, or finds
        // its reply, or the connection dead.
        let (mut st, rsp) = result;
        st.slots.remove(&tag);
        st.reading = false;
        self.unlock_and_wake(st);
        rsp
    }
}

/// A response that has been sent but not yet awaited. Dropping it
/// unawaited gives its slot up; the reply is discarded on arrival.
pub struct Pending {
    inner: Arc<ClientInner>,
    /// 0 once `wait` has consumed the slot (tags start at 1).
    tag: u64,
}

impl Pending {
    /// Block until the response frame for this request arrives.
    /// `FsError::Io` if the connection died first.
    pub fn wait(mut self) -> FsResult<Response> {
        let tag = std::mem::take(&mut self.tag);
        self.inner.wait(tag)
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        if self.tag != 0 {
            self.inner.state.lock().slots.remove(&self.tag);
        }
    }
}

/// A pipelined RPC client over one TCP connection.
pub struct RpcClient {
    inner: Arc<ClientInner>,
}

impl RpcClient {
    /// Connect to a server at `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let writer = Writer {
            stream: stream.try_clone()?,
            buf: Vec::with_capacity(HDR_LEN + 256),
        };
        let reader = Receiver {
            stream: BufReader::with_capacity(64 << 10, stream.try_clone()?),
            frame: vec![0; HDR_LEN + 256],
        };
        Ok(RpcClient {
            inner: Arc::new(ClientInner {
                stream,
                writer: Mutex::new(writer),
                reader: Mutex::new(reader),
                state: Mutex::new(ReplyState {
                    slots: HashMap::new(),
                    next_tag: 1,
                    reading: false,
                    dead: false,
                    parked: 0,
                }),
                wake: Condvar::new(),
            }),
        })
    }

    /// Whether the connection has been torn down (by either end). Turns
    /// true once a waiter or a writer observes the failure, or on
    /// [`RpcClient::abort`]; with no request in flight, a server that
    /// went away is noticed by the next call.
    pub fn is_dead(&self) -> bool {
        self.inner.state.lock().dead
    }

    /// Requests sent whose [`Pending`] is neither awaited nor dropped.
    #[doc(hidden)]
    pub fn outstanding(&self) -> usize {
        self.inner.state.lock().slots.len()
    }

    fn pending(&self, tag: u64) -> Pending {
        Pending {
            inner: Arc::clone(&self.inner),
            tag,
        }
    }

    /// Send one request without waiting; the returned [`Pending`]
    /// completes when its tagged response arrives. Any number of
    /// requests may be in flight at once.
    pub fn submit(&self, req: &ReqView<'_>) -> FsResult<Pending> {
        let pending = self.pending(self.inner.register(1)?);
        self.inner
            .send(|buf| wire::encode_request_frame(buf, pending.tag, req))?;
        Ok(pending)
    }

    /// Encode every request into one buffer and send it with a single
    /// write — the whole batch enters the server's pipeline back to
    /// back. Each [`Pending`] is matched by tag, whatever order the
    /// replies are awaited in.
    pub fn submit_batch(&self, reqs: &[Request]) -> FsResult<Vec<Pending>> {
        let first = self.inner.register(reqs.len())?;
        let pendings: Vec<Pending> = (first..first + reqs.len() as u64)
            .map(|tag| self.pending(tag))
            .collect();
        self.inner.send(|buf| {
            for (p, req) in pendings.iter().zip(reqs) {
                wire::encode_request_frame(buf, p.tag, &req.view());
            }
        })?;
        Ok(pendings)
    }

    /// Submit and wait: the serial (unpipelined) call path.
    pub fn call(&self, req: &ReqView<'_>) -> FsResult<Response> {
        self.submit(req)?.wait()
    }

    /// Sever the connection abruptly *without* closing descriptors
    /// first — simulates a client crash. The server's disconnect
    /// teardown must close everything this connection had open; every
    /// waiter on this client returns `FsError::Io`.
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
    }
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
