//! The TCP server: accept loop and one thread per connection.
//!
//! Each accepted connection gets its own OS thread, which reads,
//! executes and answers that connection's requests in arrival order.
//! Each connection carries its own [`FdTable`] layered on the shared
//! [`FileSystem`] — exactly the paper's FUSE split, with the network
//! connection standing in for the FUSE session. Connections are isolated
//! by their threads: a slow operation delays only its own connection.
//!
//! **Pipelining.** A client may keep many tagged requests in flight on
//! one connection; replies are matched by tag. The connection thread
//! runs them one at a time, so replies leave in request order —
//! per-connection FIFO, a strictly smaller set of behaviours than the
//! tagged protocol permits. The specification boundary stays the
//! linearizability of each operation — the same license BilbyFs's
//! sequential specification gives its asynchronous implementation.
//!
//! **Backpressure.** A connection thread that is executing or writing
//! does not read, so the kernel receive buffer fills and TCP flow
//! control pushes back to the client. Memory per connection is one
//! `READ_BUF` read buffer, one request frame, and at most `FLUSH_AT`
//! plus one reply of unsent output, with no explicit rejection path.
//!
//! **Reply batching.** Replies are encoded straight into one
//! per-connection output buffer, which goes to the kernel with one
//! `write_all` whenever the next read could block (the next header or
//! body is not already in the read buffer) or the buffer has passed
//! `FLUSH_AT`. A window of 64 pipelined requests thus costs about one
//! `read`, 64 inline dispatches and one `write`. The connection thread
//! owns its two buffers, the request frame and the output, and reuses
//! them for every request; a `read` reply is filled in place in the
//! output buffer. Once both have grown to the connection's largest
//! frame, the request path allocates nothing.
//!
//! **Panics.** Each request runs under `catch_unwind`: a panicking
//! operation tears down its own connection (closing its whole FD table)
//! and nothing else.
//!
//! **HTTP on the same listener.** A connection whose first four bytes
//! are `"GET "` is served as an HTTP scrape connection: `/metrics`
//! renders the registry's Prometheus exposition, `/spans` the
//! flight-recorder span JSON, and `/check` the live streaming-checker
//! verdict (when a [`CheckerPump`] is attached via [`serve_checked`]).
//! Responses always carry `Content-Length`, and the connection is kept
//! alive for further sequential GETs until the client closes it or
//! sends `Connection: close` — so one monitoring agent can poll all
//! three endpoints over a single connection. Anything else on that
//! connection path gets a 404.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use atomfs_obs::{FnKind, Registry, Span, SpanKind};
use atomfs_trace::ShardedSink;
use atomfs_vfs::{FdTable, FileSystem, FsError, OpenOptions};
use crlh::CheckReport;
use parking_lot::Mutex;

use crate::check::{CheckerPump, PumpConfig};
use crate::wire::{
    self, FLAG_APPEND, FLAG_CREATE, FLAG_READ, FLAG_TRUNC, FLAG_WRITE, HDR_LEN, REQ_MAGIC,
};

/// Capacity of each connection's socket read buffer.
const READ_BUF: usize = 64 << 10;

/// Unsent reply bytes past which a connection writes its output even
/// though its next request is already buffered.
const FLUSH_AT: usize = 64 << 10;

/// Server options. There are none: each connection thread owns its
/// buffers, so nothing is left to size. The type stays, field-less, so
/// callers keep passing `ServerConfig::default()` and a future option
/// has a home.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct ServerConfig {}

/// Monotonic counters describing a server's lifetime so far.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted (RPC and HTTP alike).
    pub conns_opened: AtomicU64,
    /// Connections fully torn down.
    pub conns_closed: AtomicU64,
    /// Request frames read off the wire.
    pub requests: AtomicU64,
    /// Reply frames handed to the kernel.
    pub replies_flushed: AtomicU64,
    /// `write_all` batches (each covers ≥ 1 reply frame).
    pub flush_batches: AtomicU64,
    /// Frames that failed envelope or payload decoding (each one kills
    /// its connection — framing cannot resync).
    pub malformed: AtomicU64,
    /// Descriptors force-closed by disconnect/panic teardown.
    pub fds_closed_on_teardown: AtomicU64,
    /// HTTP requests served on the listener (a kept-alive scrape
    /// connection counts once per GET).
    pub http_requests: AtomicU64,
    /// Requests whose execution panicked (each tore down its own
    /// connection).
    pub panics: AtomicU64,
}

/// A point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct StatsSnapshot {
    pub conns_opened: u64,
    pub conns_closed: u64,
    pub requests: u64,
    pub replies_flushed: u64,
    pub flush_batches: u64,
    pub malformed: u64,
    pub fds_closed_on_teardown: u64,
    pub http_requests: u64,
    /// [`ServerStats::panics`].
    pub worker_panics: u64,
}

/// A connection's unsent replies.
struct Outbox {
    buf: Vec<u8>,
    /// Complete reply frames in `buf`.
    frames: u64,
}

struct Shared<F: FileSystem> {
    fs: Arc<F>,
    stats: Arc<ServerStats>,
    /// A handle on every live connection's socket, so shutdown can
    /// sever it.
    conns: Mutex<HashMap<u64, TcpStream>>,
    registry: Option<Arc<Registry>>,
    /// Streaming-checker pump attached by [`serve_checked`]; `/check`
    /// renders its live verdict.
    checker: Mutex<Option<Arc<CheckerPump>>>,
}

impl<F: FileSystem + 'static> Shared<F> {
    /// Serve one connection until it ends, then tear it down: close
    /// every descriptor in its FD table and sever the socket. Every way
    /// a connection ends — client EOF, an I/O error, a malformed frame,
    /// a panicking request, server shutdown severing the socket — leaves
    /// the serving loop and lands here, so "disconnect closes every
    /// handle" holds no matter which end died first.
    fn conn_loop(&self, id: u64, stream: TcpStream) {
        let mut rd = BufReader::with_capacity(READ_BUF, stream);
        let fds = FdTable::new(Arc::clone(&self.fs));
        self.serve_conn(&mut rd, &fds);
        let closed = fds.close_all();
        self.stats
            .fds_closed_on_teardown
            .fetch_add(closed as u64, Ordering::Relaxed);
        let _ = rd.get_ref().shutdown(Shutdown::Both);
        self.conns.lock().remove(&id);
        self.stats.conns_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Read, execute and answer frames until the connection ends.
    fn serve_conn(&self, rd: &mut BufReader<TcpStream>, fds: &FdTable<F>) {
        // Sniff the first four bytes: "GET " means this connection is an
        // HTTP scrape, anything else must open an RPC frame.
        let mut hdr = [0u8; HDR_LEN];
        if rd.read_exact(&mut hdr[..4]).is_err() {
            return;
        }
        if &hdr[..4] == b"GET " {
            self.serve_http(rd);
            return;
        }
        let mut have = 4; // header bytes already read (the sniff)
        let mut frame = Vec::new();
        let mut out = Outbox {
            buf: Vec::new(),
            frames: 0,
        };
        loop {
            // Flush before any read that may block: replies never wait
            // behind a client that is waiting for them.
            if rd.buffer().len() < HDR_LEN - have && self.flush(rd, &mut out).is_err() {
                break;
            }
            if rd.read_exact(&mut hdr[have..]).is_err() {
                break; // EOF or error: client is gone
            }
            have = 0;
            let Some((_, total)) = wire::frame_size_hint(&hdr, REQ_MAGIC) else {
                // Bad magic/version or a forged length: framing is
                // unrecoverable on this connection.
                self.stats.malformed.fetch_add(1, Ordering::Relaxed);
                break;
            };
            if rd.buffer().len() < total - HDR_LEN && self.flush(rd, &mut out).is_err() {
                break;
            }
            // One sampled root per tagged request: payload read, decode,
            // dispatch and the fs-op spans all nest under it on this
            // thread.
            let mut rpc_sp = Span::op_root(SpanKind::Rpc, "rpc_request");
            frame.clear();
            frame.extend_from_slice(&hdr);
            frame.resize(total, 0);
            if rd.read_exact(&mut frame[HDR_LEN..]).is_err() {
                rpc_sp.fail();
                break;
            }
            self.stats.requests.fetch_add(1, Ordering::Relaxed);
            let mark = out.buf.len();
            match catch_unwind(AssertUnwindSafe(|| self.execute(fds, &frame, &mut out.buf))) {
                Ok(true) => out.frames += 1,
                Ok(false) => {
                    rpc_sp.fail();
                    self.stats.malformed.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(_) => {
                    rpc_sp.fail();
                    self.stats.panics.fetch_add(1, Ordering::Relaxed);
                    out.buf.truncate(mark); // drop the half-encoded reply
                    break;
                }
            }
            drop(rpc_sp);
            if out.buf.len() >= FLUSH_AT && self.flush(rd, &mut out).is_err() {
                break;
            }
        }
        // Replies of requests that did execute still go out.
        let _ = self.flush(rd, &mut out);
    }

    /// Write every buffered reply with one `write_all`. Counted before
    /// the write, so a client that has read a reply also sees it
    /// counted.
    fn flush(&self, rd: &mut BufReader<TcpStream>, out: &mut Outbox) -> std::io::Result<()> {
        if out.frames == 0 {
            return Ok(());
        }
        self.stats.flush_batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .replies_flushed
            .fetch_add(out.frames, Ordering::Relaxed);
        let res = rd.get_mut().write_all(&out.buf);
        out.buf.clear();
        out.frames = 0;
        res
    }

    /// Decode one request frame and append its reply to `out`. `false`
    /// when the frame fails strict decoding.
    fn execute(&self, fds: &FdTable<F>, frame: &[u8], out: &mut Vec<u8>) -> bool {
        let decoded = {
            let _sp = Span::child(SpanKind::Rpc, "decode");
            wire::decode_request_frame(frame)
        };
        let Some((tag, req, _)) = decoded else {
            return false;
        };
        let mut sp = Span::child(SpanKind::Rpc, "dispatch");
        sp.set_stamp(tag);
        self.dispatch(fds, tag, req, out);
        true
    }

    fn dispatch(&self, fds: &FdTable<F>, tag: u64, req: wire::ReqView<'_>, out: &mut Vec<u8>) {
        use wire::ReqView as R;
        let fs = &*self.fs;
        match req {
            R::Mknod { path } => unit(out, tag, fs.mknod(path)),
            R::Mkdir { path } => unit(out, tag, fs.mkdir(path)),
            R::Unlink { path } => unit(out, tag, fs.unlink(path)),
            R::Rmdir { path } => unit(out, tag, fs.rmdir(path)),
            R::Rename { src, dst } => unit(out, tag, fs.rename(src, dst)),
            R::Truncate { path, size } => unit(out, tag, fs.truncate(path, size)),
            R::Sync => unit(out, tag, fs.sync()),
            R::Stat { path } => match fs.stat(path) {
                Ok(meta) => wire::encode_response_stat(out, tag, &meta),
                Err(e) => wire::encode_response_err(out, tag, e),
            },
            R::Readdir { path } => match fs.readdir(path) {
                Ok(names) => {
                    if !wire::encode_response_names(out, tag, &names) {
                        wire::encode_response_err(out, tag, FsError::FileTooBig);
                    }
                }
                Err(e) => wire::encode_response_err(out, tag, e),
            },
            R::Read { path, offset, len } => {
                wire::encode_response_read(out, tag, len as usize, |buf| fs.read(path, offset, buf))
            }
            R::Write { path, offset, data } => match fs.write(path, offset, data) {
                Ok(n) => wire::encode_response_len(out, tag, n as u64),
                Err(e) => wire::encode_response_err(out, tag, e),
            },
            R::Open { path, flags } => {
                let opts = OpenOptions {
                    read: flags & FLAG_READ != 0,
                    write: flags & FLAG_WRITE != 0,
                    create: flags & FLAG_CREATE != 0,
                    truncate: flags & FLAG_TRUNC != 0,
                    append: flags & FLAG_APPEND != 0,
                };
                match fds.open(path, opts) {
                    Ok(fd) => wire::encode_response_fd(out, tag, fd.0),
                    Err(e) => wire::encode_response_err(out, tag, e),
                }
            }
            R::Close { fd } => unit(out, tag, fds.close(atomfs_vfs::Fd(fd))),
            R::PRead { fd, offset, len } => {
                wire::encode_response_read(out, tag, len as usize, |buf| {
                    fds.read_at(atomfs_vfs::Fd(fd), offset, buf)
                })
            }
            R::PWrite { fd, offset, data } => {
                match fds.write_at(atomfs_vfs::Fd(fd), offset, data) {
                    Ok(n) => wire::encode_response_len(out, tag, n as u64),
                    Err(e) => wire::encode_response_err(out, tag, e),
                }
            }
        }
    }

    /// HTTP scrapes on the RPC listener, keep-alive: the connection
    /// serves sequential GETs until the client closes it or asks for
    /// `Connection: close`. The first request's method (`"GET "`) was
    /// consumed by the protocol sniff; later requests are read whole.
    /// Reads go through the connection's buffered reader, which may
    /// already hold bytes past the sniff.
    fn serve_http(&self, rd: &mut BufReader<TcpStream>) {
        let mut first = true;
        // Ends at EOF between requests, an error, or an oversized head.
        while let Some(head) = read_http_head(rd) {
            let mut fields = head.split(|&b| b == b' ');
            let method: &[u8] = if first {
                b"GET" // the sniffed bytes
            } else {
                fields.next().unwrap_or(b"")
            };
            first = false;
            let target = fields
                .next()
                .and_then(|t| std::str::from_utf8(t).ok())
                .unwrap_or("");
            self.stats.http_requests.fetch_add(1, Ordering::Relaxed);
            let (status, ctype, body) = if method != b"GET" {
                (
                    "405 Method Not Allowed",
                    "text/plain",
                    "only GET is served here\n".to_string(),
                )
            } else {
                self.http_response(target)
            };
            // Always advertise the body length so the client can frame
            // the response and reuse the connection.
            let close = wants_close(&head);
            let conn_hdr = if close { "close" } else { "keep-alive" };
            if rd
                .get_mut()
                .write_all(
                    format!(
                        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: {conn_hdr}\r\n\r\n{body}",
                        body.len()
                    )
                    .as_bytes(),
                )
                .is_err()
                || close
            {
                break;
            }
        }
    }

    /// Route one GET.
    fn http_response(&self, target: &str) -> (&'static str, &'static str, String) {
        match target {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4",
                match &self.registry {
                    Some(reg) => reg.render_prometheus(),
                    None => String::new(),
                },
            ),
            "/spans" => (
                "200 OK",
                "application/json",
                atomfs_obs::render_spans_json(),
            ),
            "/check" => match self.checker.lock().as_ref().and_then(|p| p.status_json()) {
                Some(json) => ("200 OK", "application/json", json),
                None => (
                    "404 Not Found",
                    "application/json",
                    "{\"ok\":null,\"detail\":\"no checker attached\"}\n".to_string(),
                ),
            },
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        }
    }
}

/// Read one request head through the blank line, bounded (scrape
/// requests are tiny). `None` on EOF, error, or an oversized head.
fn read_http_head(rd: &mut impl Read) -> Option<Vec<u8>> {
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while head.len() < 4096 && !head.ends_with(b"\r\n\r\n") {
        match rd.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            _ => return None,
        }
    }
    head.ends_with(b"\r\n\r\n").then_some(head)
}

/// Whether the request head asks us to drop the connection after this
/// response (`Connection: close`, any case).
fn wants_close(head: &[u8]) -> bool {
    head.to_ascii_lowercase()
        .windows(b"connection: close".len())
        .any(|w| w == b"connection: close")
}

fn unit(out: &mut Vec<u8>, tag: u64, r: Result<(), FsError>) {
    match r {
        Ok(()) => wire::encode_response_unit(out, tag),
        Err(e) => wire::encode_response_err(out, tag, e),
    }
}

/// A running server; dropping it does *not* stop it — call
/// [`Server::shutdown`].
pub struct Server<F: FileSystem + 'static> {
    shared: Arc<Shared<F>>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Bind an ephemeral loopback port and serve `fs`. When a
/// `registry` is given, `/metrics` scrapes it and the server registers
/// its own gauges (`rpc_conns_open`, `rpc_requests_total`, ...) there.
pub fn serve<F: FileSystem + 'static>(
    fs: Arc<F>,
    registry: Option<Arc<Registry>>,
    cfg: ServerConfig,
) -> std::io::Result<Server<F>> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    serve_on(listener, fs, registry, cfg)
}

/// Like [`serve`], additionally starting a [`CheckerPump`] that follows
/// `sink` — the trace sink the served `fs` emits into — with a
/// streaming CRL-H checker. The live verdict is served at `/check` on
/// the same listener, the checker's `crlh_stream_*` gauges land on
/// `registry` when one is given, and
/// [`Server::shutdown_checked`] returns the final
/// [`CheckReport`].
pub fn serve_checked<F: FileSystem + 'static>(
    fs: Arc<F>,
    registry: Option<Arc<Registry>>,
    cfg: ServerConfig,
    sink: &Arc<ShardedSink>,
    pump: PumpConfig,
) -> std::io::Result<Server<F>> {
    let server = serve(fs, registry, cfg)?;
    let pump = CheckerPump::start(sink, pump, server.shared.registry.as_deref());
    *server.shared.checker.lock() = Some(Arc::new(pump));
    Ok(server)
}

/// Like [`serve`], over an already-bound listener.
pub fn serve_on<F: FileSystem + 'static>(
    listener: TcpListener,
    fs: Arc<F>,
    registry: Option<Arc<Registry>>,
    _cfg: ServerConfig,
) -> std::io::Result<Server<F>> {
    let addr = listener.local_addr()?;
    let stats = Arc::new(ServerStats::default());
    if let Some(reg) = &registry {
        register_stat_fns(reg, &stats);
    }
    let shared = Arc::new(Shared {
        fs,
        stats,
        conns: Mutex::new(HashMap::new()),
        registry,
        checker: Mutex::new(None),
    });
    let stop = Arc::new(AtomicBool::new(false));
    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept = {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop);
        let conn_threads = Arc::clone(&conn_threads);
        std::thread::Builder::new()
            .name("afs-srv-accept".into())
            .spawn(move || {
                let mut next_id = 0u64;
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_nodelay(true);
                    let Ok(handle) = stream.try_clone() else {
                        continue;
                    };
                    let id = next_id;
                    next_id += 1;
                    shared.stats.conns_opened.fetch_add(1, Ordering::Relaxed);
                    shared.conns.lock().insert(id, handle);
                    let shared = Arc::clone(&shared);
                    let thread = std::thread::Builder::new()
                        .name(format!("afs-conn-{id}"))
                        .spawn(move || shared.conn_loop(id, stream))
                        .expect("spawn connection thread");
                    let mut ts = conn_threads.lock();
                    ts.retain(|h| !h.is_finished()); // reap exited connections
                    ts.push(thread);
                }
            })?
    };

    Ok(Server {
        shared,
        addr,
        stop,
        accept_thread: Mutex::new(Some(accept)),
        conn_threads,
    })
}

/// One exported statistic: name, help text, kind and reader.
type StatFn = (&'static str, &'static str, FnKind, fn(&ServerStats) -> u64);

fn register_stat_fns(reg: &Registry, stats: &Arc<ServerStats>) {
    let fns: [StatFn; 6] = [
        (
            "rpc_conns_open",
            "Connections currently alive.",
            FnKind::Gauge,
            |s| {
                s.conns_opened
                    .load(Ordering::Relaxed)
                    .saturating_sub(s.conns_closed.load(Ordering::Relaxed))
            },
        ),
        (
            "rpc_requests_total",
            "Request frames admitted.",
            FnKind::Counter,
            |s| s.requests.load(Ordering::Relaxed),
        ),
        (
            "rpc_replies_flushed_total",
            "Reply frames written to sockets.",
            FnKind::Counter,
            |s| s.replies_flushed.load(Ordering::Relaxed),
        ),
        (
            "rpc_flush_batches_total",
            "Batched reply writes (each covers >= 1 frame).",
            FnKind::Counter,
            |s| s.flush_batches.load(Ordering::Relaxed),
        ),
        (
            "rpc_malformed_total",
            "Frames rejected by strict decoding.",
            FnKind::Counter,
            |s| s.malformed.load(Ordering::Relaxed),
        ),
        (
            "rpc_fds_torn_down_total",
            "Descriptors force-closed by disconnect cleanup.",
            FnKind::Counter,
            |s| s.fds_closed_on_teardown.load(Ordering::Relaxed),
        ),
    ];
    for (name, help, kind, f) in fns {
        let s = Arc::clone(stats);
        reg.register_fn(name, &[], help, kind, move || f(&s) as f64);
    }
}

impl<F: FileSystem + 'static> Server<F> {
    /// The bound address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.shared.stats;
        StatsSnapshot {
            conns_opened: s.conns_opened.load(Ordering::Relaxed),
            conns_closed: s.conns_closed.load(Ordering::Relaxed),
            requests: s.requests.load(Ordering::Relaxed),
            replies_flushed: s.replies_flushed.load(Ordering::Relaxed),
            flush_batches: s.flush_batches.load(Ordering::Relaxed),
            malformed: s.malformed.load(Ordering::Relaxed),
            fds_closed_on_teardown: s.fds_closed_on_teardown.load(Ordering::Relaxed),
            http_requests: s.http_requests.load(Ordering::Relaxed),
            worker_panics: s.panics.load(Ordering::Relaxed),
        }
    }

    /// The attached streaming-checker pump, when this server was
    /// started with [`serve_checked`].
    pub fn checker(&self) -> Option<Arc<CheckerPump>> {
        self.shared.checker.lock().clone()
    }

    /// [`Server::shutdown`], then stop the checker pump — the sink is
    /// quiescent once shutdown returns — and run its end-of-trace
    /// checks. The report is `None` when no pump was attached.
    pub fn shutdown_checked(self) -> (StatsSnapshot, Option<CheckReport>) {
        let pump = self.shared.checker.lock().take();
        let snap = self.shutdown();
        let report = pump.and_then(|p| p.stop_and_finish());
        (snap, report)
    }

    /// Stop accepting, sever every connection, and join all threads.
    /// Each connection thread closes its FD table on the way out, and
    /// every request it read has either executed or died with its
    /// connection by the time this returns — so a trace sink attached to
    /// the served file system is quiescent and safe to drain.
    pub fn shutdown(self) -> StatsSnapshot {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.lock().take() {
            let _ = h.join();
        }
        for stream in self.shared.conns.lock().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for h in self.conn_threads.lock().drain(..) {
            let _ = h.join();
        }
        // A pump left attached (plain shutdown, not `shutdown_checked`)
        // must still be joined or its thread leaks past the server.
        if let Some(pump) = self.shared.checker.lock().take() {
            pump.stop();
        }
        self.stats()
    }
}
