//! End-to-end RPC tests: a real AtomFS served over loopback TCP, driven
//! by the pipelined client. Covers the protocol surface (every op, error
//! mapping, descriptor sessions), pipelining (batched submission, reply
//! batching, backpressure), the HTTP scrape path sharing the RPC
//! listener, and connection isolation: malformed frames, panicking and
//! slow requests each affect only their own connection.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atomfs::AtomFs;
use atomfs_obs::Registry;
use atomfs_server::{
    serve, wire, RemoteFs, Request, Response, RpcClient, ServerConfig, FLAG_CREATE, FLAG_READ,
    FLAG_WRITE,
};
use atomfs_vfs::{FileSystem, FileType, FsError, FsResult, Metadata};

fn start(registry: Option<Arc<Registry>>) -> (atomfs_server::Server<AtomFs>, std::net::SocketAddr) {
    let fs = Arc::new(AtomFs::new());
    let srv = serve(fs, registry, ServerConfig::default()).expect("bind loopback");
    let addr = srv.local_addr();
    (srv, addr)
}

#[test]
fn every_operation_roundtrips_with_posix_errors() {
    let (srv, addr) = start(None);
    let client = Arc::new(RpcClient::connect(addr).unwrap());
    let fs = RemoteFs::new(Arc::clone(&client));

    fs.mkdir("/d").unwrap();
    fs.mknod("/d/f").unwrap();
    assert_eq!(fs.write("/d/f", 0, b"hello remote").unwrap(), 12);
    let mut buf = [0u8; 32];
    assert_eq!(fs.read("/d/f", 6, &mut buf).unwrap(), 6);
    assert_eq!(&buf[..6], b"remote");
    let meta = fs.stat("/d/f").unwrap();
    assert_eq!(meta.ftype, FileType::File);
    assert_eq!(meta.size, 12);
    assert_eq!(fs.readdir("/d").unwrap(), vec!["f".to_string()]);
    fs.rename("/d/f", "/d/g").unwrap();
    fs.truncate("/d/g", 5).unwrap();
    assert_eq!(fs.stat("/d/g").unwrap().size, 5);
    fs.sync().unwrap();

    // POSIX error mapping crosses the wire intact.
    assert_eq!(fs.stat("/nope"), Err(FsError::NotFound));
    assert_eq!(fs.mkdir("/d"), Err(FsError::Exists));
    assert_eq!(fs.rmdir("/d"), Err(FsError::NotEmpty));
    assert_eq!(fs.unlink("/d"), Err(FsError::IsDir));
    fs.unlink("/d/g").unwrap();
    fs.rmdir("/d").unwrap();

    // Descriptor session in the server-side, per-connection FD table.
    let fd = client
        .open("/h", FLAG_READ | FLAG_WRITE | FLAG_CREATE)
        .unwrap();
    assert_eq!(client.pwrite(fd, 0, b"fd-data").unwrap(), 7);
    assert_eq!(client.pread(fd, 3, 4).unwrap(), b"data");
    client.close_fd(fd).unwrap();
    assert_eq!(client.close_fd(fd), Err(FsError::BadFd));

    let stats = srv.shutdown();
    assert!(stats.requests >= 20);
    assert_eq!(stats.malformed, 0);
    assert_eq!(stats.worker_panics, 0);
}

#[test]
fn pipelined_batch_completes_out_of_order_by_tag() {
    let (srv, addr) = start(None);
    let client = Arc::new(RpcClient::connect(addr).unwrap());
    let fs = RemoteFs::new(Arc::clone(&client));
    fs.mkdir("/p").unwrap();
    for i in 0..8 {
        fs.mknod(&format!("/p/f{i}")).unwrap();
        fs.write(&format!("/p/f{i}"), 0, &[i as u8; 16]).unwrap();
    }

    // One write() syscall carries 64 requests; every response must
    // reach the waiter holding its tag.
    let reqs: Vec<Request> = (0..64)
        .map(|i| Request::Stat {
            path: format!("/p/f{}", i % 8),
        })
        .collect();
    let pendings = client.submit_batch(&reqs).unwrap();
    for (i, p) in pendings.into_iter().enumerate() {
        match p.wait().unwrap() {
            Response::Stat(m) => assert_eq!(m.size, 16, "stat {i} wrong file"),
            other => panic!("stat {i} got {other:?}"),
        }
    }

    // Mixed batch: each response kind must land on the right waiter.
    let mixed = vec![
        Request::Read {
            path: "/p/f0".into(),
            offset: 0,
            len: 16,
        },
        Request::Stat {
            path: "/p/f1".into(),
        },
        Request::Readdir { path: "/p".into() },
        Request::Stat {
            path: "/p/missing".into(),
        },
    ];
    let mut got = client
        .submit_batch(&mixed)
        .unwrap()
        .into_iter()
        .map(|p| p.wait().unwrap());
    assert_eq!(got.next().unwrap(), Response::Data(vec![0u8; 16]));
    assert!(matches!(got.next().unwrap(), Response::Stat(_)));
    assert!(matches!(got.next().unwrap(), Response::Names(n) if n.len() == 8));
    assert_eq!(got.next().unwrap(), Response::Err(FsError::NotFound));

    // Reply batching: one write carries 64 `stat` frames. The connection
    // thread finds them all in its read buffer, answers each inline, and
    // writes the replies back, in request order, in far fewer batches
    // than replies.
    let before = srv.stats();
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut out = Vec::new();
    for tag in 0..64u64 {
        wire::encode_request_frame(&mut out, tag, &wire::ReqView::Stat { path: "/p/f0" });
    }
    raw.write_all(&out).unwrap();
    for want in 0..64u64 {
        let (tag, rsp) = read_reply(&mut raw);
        assert_eq!(tag, want, "replies leave in request order");
        assert!(matches!(rsp, Response::Stat(m) if m.size == 16), "{rsp:?}");
    }
    // The server counts a batch before writing it, so every reply we
    // read is already counted.
    let after = srv.stats();
    let replies = after.replies_flushed - before.replies_flushed;
    let batches = after.flush_batches - before.flush_batches;
    assert_eq!(replies, 64);
    assert!(
        batches < replies,
        "pipelined replies must coalesce: {batches} batches for {replies} replies"
    );

    // Backpressure without deadlock: 64 max-size reads (16 MiB of
    // replies, more than any loopback socket buffers), and nothing is
    // read until every request is sent. The server blocks in
    // `write_all` against the full socket, then drains as we read.
    let big = vec![7u8; atomfs_server::MAX_IO_LEN];
    fs.mknod("/p/big").unwrap();
    assert_eq!(fs.write("/p/big", 0, &big).unwrap(), big.len());
    let mut out = Vec::new();
    for tag in 0..64u64 {
        wire::encode_request_frame(
            &mut out,
            tag,
            &wire::ReqView::Read {
                path: "/p/big",
                offset: 0,
                len: big.len() as u32,
            },
        );
    }
    raw.write_all(&out).unwrap();
    let mut seen = [false; 64];
    for _ in 0..64 {
        let (tag, rsp) = read_reply(&mut raw);
        assert!(!seen[tag as usize], "duplicate reply for tag {tag}");
        seen[tag as usize] = true;
        match rsp {
            Response::Data(d) => assert_eq!(d.len(), big.len()),
            other => panic!("read reply was {other:?}"),
        }
    }
    srv.shutdown();
}

/// Read one reply frame off a raw connection.
fn read_reply(raw: &mut TcpStream) -> (u64, Response) {
    let mut hdr = [0u8; wire::HDR_LEN];
    raw.read_exact(&mut hdr).unwrap();
    let (_, total) = wire::frame_size_hint(&hdr, wire::RSP_MAGIC).expect("response header");
    let mut frame = vec![0u8; total];
    frame[..wire::HDR_LEN].copy_from_slice(&hdr);
    raw.read_exact(&mut frame[wire::HDR_LEN..]).unwrap();
    let (tag, rsp, _) = wire::decode_response_frame(&frame).expect("response frame");
    (tag, rsp)
}

/// AtomFS with two trap paths: `stat("/boom")` panics, and
/// `stat("/slow")` sleeps 200 ms, flagging when it starts and ends.
struct TrapFs {
    fs: AtomFs,
    slow_started: AtomicBool,
    slow_done: AtomicBool,
}

impl TrapFs {
    fn new() -> Self {
        TrapFs {
            fs: AtomFs::new(),
            slow_started: AtomicBool::new(false),
            slow_done: AtomicBool::new(false),
        }
    }
}

impl FileSystem for TrapFs {
    fn name(&self) -> &'static str {
        "trap"
    }
    fn mknod(&self, path: &str) -> FsResult<()> {
        self.fs.mknod(path)
    }
    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.fs.mkdir(path)
    }
    fn unlink(&self, path: &str) -> FsResult<()> {
        self.fs.unlink(path)
    }
    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.fs.rmdir(path)
    }
    fn rename(&self, src: &str, dst: &str) -> FsResult<()> {
        self.fs.rename(src, dst)
    }
    fn stat(&self, path: &str) -> FsResult<Metadata> {
        match path {
            "/boom" => panic!("stat(/boom) trap"),
            "/slow" => {
                self.slow_started.store(true, Ordering::Release);
                std::thread::sleep(Duration::from_millis(200));
                self.slow_done.store(true, Ordering::Release);
                Err(FsError::NotFound)
            }
            _ => self.fs.stat(path),
        }
    }
    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        self.fs.readdir(path)
    }
    fn read(&self, path: &str, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.fs.read(path, offset, buf)
    }
    fn write(&self, path: &str, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.fs.write(path, offset, data)
    }
    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        self.fs.truncate(path, size)
    }
}

#[test]
fn panicking_request_kills_only_its_connection() {
    let fs = Arc::new(TrapFs::new());
    fs.mknod("/f").unwrap();
    let srv = serve(Arc::clone(&fs), None, ServerConfig::default()).expect("bind loopback");
    let addr = srv.local_addr();

    let doomed = Arc::new(RpcClient::connect(addr).unwrap());
    for _ in 0..3 {
        doomed.open("/f", FLAG_READ).unwrap();
    }
    let bystander = RemoteFs::new(Arc::new(RpcClient::connect(addr).unwrap()));
    assert!(bystander.stat("/f").is_ok());

    // The panic reaches the client as a dead connection.
    assert_eq!(
        RemoteFs::new(Arc::clone(&doomed)).stat("/boom"),
        Err(FsError::Io)
    );
    assert!(doomed.is_dead());
    for _ in 0..200 {
        if srv.stats().fds_closed_on_teardown >= 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        srv.stats().fds_closed_on_teardown,
        3,
        "the doomed FD table was reaped"
    );

    // The other connection never noticed.
    for i in 0..10 {
        bystander.mknod(&format!("/after{i}")).unwrap();
    }
    assert_eq!(bystander.stat("/after9").unwrap().size, 0);

    let stats = srv.shutdown();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.fds_closed_on_teardown, 3);
    assert_eq!(stats.conns_opened, stats.conns_closed);
}

#[test]
fn slow_request_delays_only_its_connection() {
    let fs = Arc::new(TrapFs::new());
    fs.mknod("/f").unwrap();
    let srv = serve(Arc::clone(&fs), None, ServerConfig::default()).expect("bind loopback");
    let addr = srv.local_addr();
    let fast = RemoteFs::new(Arc::new(RpcClient::connect(addr).unwrap()));
    assert!(fast.stat("/f").is_ok());

    let slow = std::thread::spawn(move || {
        let client = RemoteFs::new(Arc::new(RpcClient::connect(addr).unwrap()));
        assert_eq!(client.stat("/slow"), Err(FsError::NotFound));
    });
    while !fs.slow_started.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let t0 = Instant::now();
    for _ in 0..100 {
        assert!(fast.stat("/f").is_ok());
    }
    let took = t0.elapsed();
    assert!(
        !fs.slow_done.load(Ordering::Acquire),
        "100 stats took {took:?}: they waited behind the slow connection"
    );
    slow.join().unwrap();
    srv.shutdown();
}

#[test]
fn requests_after_shutdown_fail() {
    let (srv, addr) = start(None);
    let fs = RemoteFs::new(Arc::new(RpcClient::connect(addr).unwrap()));
    fs.mkdir("/s").unwrap();
    let stats = srv.shutdown();
    assert_eq!(stats.conns_opened, stats.conns_closed);
    assert_eq!(fs.stat("/s"), Err(FsError::Io));
}

#[test]
fn http_scrapes_share_the_rpc_listener() {
    let registry = Arc::new(Registry::new());
    let (srv, addr) = start(Some(Arc::clone(&registry)));

    // Generate some RPC traffic first so the counters are non-zero.
    let client = Arc::new(RpcClient::connect(addr).unwrap());
    let fs = RemoteFs::new(client);
    fs.mkdir("/m").unwrap();
    fs.stat("/m").unwrap();

    let get = |target: &str| -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(
            format!("GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    };

    let metrics = get("/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
    assert!(metrics.contains("rpc_requests_total"), "{metrics}");
    assert!(metrics.contains("rpc_conns_open"));

    let spans = get("/spans");
    assert!(spans.starts_with("HTTP/1.1 200 OK"));
    assert!(spans.contains("application/json"));

    let missing = get("/bogus");
    assert!(missing.starts_with("HTTP/1.1 404"));

    let stats = srv.shutdown();
    assert_eq!(stats.http_requests, 3);
}

/// Read one HTTP response off a kept-alive connection, framed by its
/// `Content-Length` (which the server must always send).
fn read_response(s: &mut TcpStream) -> String {
    let mut head = Vec::new();
    let mut b = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        s.read_exact(&mut b).expect("response head");
        head.push(b[0]);
    }
    let head = String::from_utf8_lossy(&head).to_string();
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            if k.eq_ignore_ascii_case("content-length") {
                v.trim().parse().ok()
            } else {
                None
            }
        })
        .expect("every response carries Content-Length");
    let mut body = vec![0u8; len];
    s.read_exact(&mut body).expect("response body");
    head + &String::from_utf8_lossy(&body)
}

#[test]
fn http_keep_alive_serves_sequential_gets_on_one_connection() {
    let registry = Arc::new(Registry::new());
    let (srv, addr) = start(Some(Arc::clone(&registry)));
    let client = Arc::new(RpcClient::connect(addr).unwrap());
    let fs = RemoteFs::new(client);
    fs.mkdir("/k").unwrap();

    let mut s = TcpStream::connect(addr).unwrap();
    // Several sequential scrapes ride one connection, each framed by
    // Content-Length and answered with keep-alive.
    for i in 0..3 {
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let resp = read_response(&mut s);
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "round {i}: {resp}");
        assert!(resp.contains("Connection: keep-alive"), "round {i}");
        assert!(resp.contains("rpc_requests_total"), "round {i}");
    }
    // Errors don't kill the connection either.
    s.write_all(b"GET /bogus HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    assert!(read_response(&mut s).starts_with("HTTP/1.1 404"));
    // /check without an attached pump reports so, and keeps the
    // connection usable.
    s.write_all(b"GET /check HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let check = read_response(&mut s);
    assert!(check.starts_with("HTTP/1.1 404"), "{check}");
    assert!(check.contains("no checker attached"));
    // An explicit Connection: close is honored — the server answers,
    // then shuts the socket down.
    s.write_all(b"GET /spans HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut rest = String::new();
    s.read_to_string(&mut rest).unwrap();
    assert!(rest.starts_with("HTTP/1.1 200 OK"), "{rest}");
    assert!(rest.contains("Connection: close"));

    let stats = srv.shutdown();
    assert_eq!(
        stats.http_requests, 6,
        "one count per GET, not per connection"
    );
}

#[test]
fn malformed_frame_poisons_its_connection_only() {
    let (srv, addr) = start(None);

    // A client that speaks garbage: correct magic sniff fails, so the
    // reader treats it as RPC and the frame check kills the connection.
    let mut bad = TcpStream::connect(addr).unwrap();
    bad.write_all(b"NOPE this is not a frame at all.........")
        .unwrap();
    let mut end = Vec::new();
    let _ = bad.read_to_end(&mut end); // server closes on us
    assert!(end.is_empty());

    // A well-behaved client on a fresh connection is unaffected.
    let client = Arc::new(RpcClient::connect(addr).unwrap());
    let fs = RemoteFs::new(client);
    fs.mkdir("/ok").unwrap();
    assert!(fs.stat("/ok").is_ok());

    let stats = srv.shutdown();
    assert!(stats.malformed >= 1);
    assert_eq!(stats.worker_panics, 0);
}

#[test]
fn disconnect_closes_every_descriptor_in_the_fd_table() {
    let (srv, addr) = start(None);
    let setup = Arc::new(RpcClient::connect(addr).unwrap());
    RemoteFs::new(Arc::clone(&setup)).mknod("/shared").unwrap();

    // Open several descriptors, then vanish without closing them.
    let doomed = Arc::new(RpcClient::connect(addr).unwrap());
    let mut fds = Vec::new();
    for _ in 0..5 {
        fds.push(doomed.open("/shared", FLAG_READ | FLAG_WRITE).unwrap());
    }
    doomed.abort();

    // The teardown is asynchronous; wait for the connection count to
    // drop rather than sleeping a fixed amount.
    for _ in 0..200 {
        if srv.stats().fds_closed_on_teardown >= 5 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let stats = srv.shutdown();
    assert!(
        stats.fds_closed_on_teardown >= 5,
        "teardown closed {} of 5 leaked descriptors",
        stats.fds_closed_on_teardown
    );
}
