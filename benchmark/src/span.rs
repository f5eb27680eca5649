//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! The traced run installs these wrappers where the benchmark itself
//! composes the stack: [`SpanFs`] around the client's `RemoteFs` and
//! around the file system handed to `serve`, [`TimedSink`] around the
//! trace observer, [`TimedDevice`] around the `Disk`. Nothing inside the
//! product crates is touched. Spans stay in per-thread memory until the
//! run ends; a layer's self time is its span minus the part its children
//! cover.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use atomfs_journal::device::Sector;
use atomfs_journal::{BlockDevice, DiskError};
use atomfs_trace::{Event, Inum, Tid, TraceSink};
use atomfs_vfs::{FileSystem, FsResult, Metadata};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root.
    pub parent: u64,
    /// Spans of one client request share this; 0 until linked.
    pub request: u64,
    pub layer: &'static str,
    pub name: &'static str,
    /// Client connection the span belongs to, when the path tells.
    pub conn: Option<u8>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

struct Local {
    buf: Buffer,
    /// Open spans of this thread, innermost last.
    stack: Vec<u64>,
    next: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Every thread's buffer, so the main thread can collect spans of
/// threads it does not own (server workers) once they are quiet.
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn with_local<T>(f: impl FnOnce(&mut Local) -> T) -> T {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let local = slot.get_or_insert_with(|| {
            let buf = Buffer::default();
            BUFFERS
                .lock()
                .expect("span registry")
                .push(Arc::clone(&buf));
            // Ids are `thread << 40 | counter`: unique without a shared counter.
            Local {
                buf,
                stack: Vec::new(),
                next: NEXT_THREAD.fetch_add(1, Ordering::Relaxed) << 40,
            }
        });
        f(local)
    })
}

/// An open span; records itself when dropped.
pub struct Open {
    id: u64,
    parent: u64,
    layer: &'static str,
    name: &'static str,
    conn: Option<u8>,
    start_ns: u64,
}

pub fn enter(layer: &'static str, name: &'static str, conn: Option<u8>) -> Open {
    let (id, parent) = with_local(|l| {
        l.next += 1;
        let parent = l.stack.last().copied().unwrap_or(0);
        l.stack.push(l.next);
        (l.next, parent)
    });
    Open {
        id,
        parent,
        layer,
        name,
        conn,
        start_ns: now_ns(),
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        let end_ns = now_ns();
        with_local(|l| {
            let popped = l.stack.pop();
            debug_assert_eq!(popped, Some(self.id), "spans close innermost first");
            l.buf.lock().expect("span buffer").push(Span {
                id: self.id,
                parent: self.parent,
                request: 0,
                layer: self.layer,
                name: self.name,
                conn: self.conn,
                start_ns: self.start_ns,
                end_ns,
            });
        });
    }
}

/// Take every span recorded so far, by any thread, ordered by start.
/// Call when the threads that record are quiet.
pub fn drain() -> Vec<Span> {
    let mut all = Vec::new();
    for buf in BUFFERS.lock().expect("span registry").iter() {
        all.append(&mut buf.lock().expect("span buffer"));
    }
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Give every server-side root span (`layer == child_layer`) the client
/// span that caused it as parent, and stamp both with one request id.
///
/// The wire carries no id the benchmark could read back, so the link is
/// made afterwards: a connection has one request in flight, so the
/// cause is the one span of that connection's client thread that was
/// open when the server span started. `sync` carries no path and hence
/// no connection; it links to whichever client `sync` contains it.
pub fn link_requests(spans: &mut [Span], client_layer: &str, child_layer: &str) {
    let clients: Vec<(u64, u64, u64, Option<u8>, &'static str)> = spans
        .iter()
        .filter(|s| s.layer == client_layer)
        .map(|s| (s.start_ns, s.end_ns, s.id, s.conn, s.name))
        .collect();
    for s in spans.iter_mut() {
        if s.layer == client_layer {
            s.request = s.id;
        } else if s.layer == child_layer && s.parent == 0 {
            // `clients` is start-ordered; walk back from the last one
            // that started before this span.
            let upto = clients.partition_point(|c| c.0 <= s.start_ns);
            let cause = clients[..upto].iter().rev().take(64).find(|c| {
                c.1 >= s.end_ns
                    && match s.conn {
                        Some(conn) => c.3 == Some(conn),
                        None => c.4 == s.name,
                    }
            });
            if let Some(c) = cause {
                s.parent = c.2;
                s.request = c.2;
            }
        }
    }
    // Descendants inherit their root's request id (parents start first).
    let mut request_of = std::collections::HashMap::new();
    for s in spans.iter_mut() {
        if s.request == 0 {
            s.request = request_of.get(&s.parent).copied().unwrap_or(0);
        }
        request_of.insert(s.id, s.request);
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span). Returned in input order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Write spans as JSON lines, at most `cap` of them; the first line
/// says how many there were.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span], cap: usize) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"spans_total\":{},\"spans_written\":{}}}",
        spans.len(),
        spans.len().min(cap)
    )?;
    for (s, self_ns) in spans.iter().zip(selfs).take(cap) {
        write!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"layer\":\"{}\",\"name\":\"{}\",",
            s.id, s.parent, s.request, s.layer, s.name
        )?;
        if let Some(c) = s.conn {
            write!(out, "\"conn\":{c},")?;
        }
        writeln!(
            out,
            "\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Which client connection owns `path`: workloads that need the link
/// put `c<digit>_` at the start of the file name.
fn conn_of(path: &str) -> Option<u8> {
    let name = path.rsplit('/').next()?.as_bytes();
    (name.len() > 2 && name[0] == b'c' && name[1].is_ascii_digit() && name[2] == b'_')
        .then(|| name[1] - b'0')
}

/// A [`FileSystem`] wrapper that records one span per call.
pub struct SpanFs<F> {
    inner: F,
    layer: &'static str,
    /// Fixed connection (client side); `None` reads it off the path.
    conn: Option<u8>,
}

impl<F: FileSystem> SpanFs<F> {
    pub fn new(inner: F, layer: &'static str, conn: Option<u8>) -> Self {
        SpanFs { inner, layer, conn }
    }

    #[inline]
    fn span(&self, name: &'static str, path: &str) -> Open {
        enter(self.layer, name, self.conn.or_else(|| conn_of(path)))
    }
}

impl<F: FileSystem> FileSystem for SpanFs<F> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn mknod(&self, path: &str) -> FsResult<()> {
        let _s = self.span("mknod", path);
        self.inner.mknod(path)
    }
    fn mkdir(&self, path: &str) -> FsResult<()> {
        let _s = self.span("mkdir", path);
        self.inner.mkdir(path)
    }
    fn unlink(&self, path: &str) -> FsResult<()> {
        let _s = self.span("unlink", path);
        self.inner.unlink(path)
    }
    fn rmdir(&self, path: &str) -> FsResult<()> {
        let _s = self.span("rmdir", path);
        self.inner.rmdir(path)
    }
    fn rename(&self, src: &str, dst: &str) -> FsResult<()> {
        let _s = self.span("rename", src);
        self.inner.rename(src, dst)
    }
    fn stat(&self, path: &str) -> FsResult<Metadata> {
        let _s = self.span("stat", path);
        self.inner.stat(path)
    }
    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        let _s = self.span("readdir", path);
        self.inner.readdir(path)
    }
    fn read(&self, path: &str, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        let _s = self.span("read", path);
        self.inner.read(path, offset, buf)
    }
    fn write(&self, path: &str, offset: u64, data: &[u8]) -> FsResult<usize> {
        let _s = self.span("write", path);
        self.inner.write(path, offset, data)
    }
    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        let _s = self.span("truncate", path);
        self.inner.truncate(path, size)
    }
    fn sync(&self) -> FsResult<()> {
        let _s = self.span("sync", "");
        self.inner.sync()
    }
}

/// Count and busy time of a boundary crossed too often for a span each.
/// Every `sample`-th call is timed and its time scaled by `sample`.
#[derive(Debug)]
pub struct Meter {
    calls: AtomicU64,
    sampled_ns: AtomicU64,
    sample: u64,
}

impl Meter {
    pub const fn new(sample: u64) -> Self {
        Meter {
            calls: AtomicU64::new(0),
            sampled_ns: AtomicU64::new(0),
            sample,
        }
    }

    #[inline]
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(self.sample) {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.sampled_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Estimated total busy time.
    pub fn busy_ns(&self) -> u64 {
        self.sampled_ns.load(Ordering::Relaxed) * self.sample
    }
}

/// A [`TraceSink`] wrapper metering `emit`.
pub struct TimedSink<S> {
    inner: Arc<S>,
    pub emits: Meter,
}

impl<S: TraceSink> TimedSink<S> {
    pub fn new(inner: Arc<S>) -> Self {
        TimedSink {
            inner,
            emits: Meter::new(16),
        }
    }
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn emit(&self, event: Event) {
        self.emits.time(|| self.inner.emit(event));
    }
    fn emit_ref(&self, event: &Event) {
        self.emits.time(|| self.inner.emit_ref(event));
    }
    fn shard_hint(&self, tid: Tid, primary: Inum) {
        self.inner.shard_hint(tid, primary);
    }
    fn admit_mutation(&self, primary: Inum) -> bool {
        self.inner.admit_mutation(primary)
    }
}

/// A [`BlockDevice`] wrapper: sector writes and reads are metered,
/// every flush barrier is a span.
pub struct TimedDevice<D> {
    inner: Arc<D>,
    pub writes: Meter,
    pub reads: Meter,
    pub flushes: Meter,
}

impl<D: BlockDevice> TimedDevice<D> {
    pub fn new(inner: Arc<D>) -> Self {
        TimedDevice {
            inner,
            writes: Meter::new(8),
            reads: Meter::new(8),
            flushes: Meter::new(1),
        }
    }
}

impl<D: BlockDevice> BlockDevice for TimedDevice<D> {
    fn read(&self, lba: u64) -> Result<Sector, DiskError> {
        self.reads.time(|| self.inner.read(lba))
    }
    fn write(&self, lba: u64, data: &Sector) -> Result<(), DiskError> {
        self.writes.time(|| self.inner.write(lba, data))
    }
    fn flush(&self) -> Result<(), DiskError> {
        let _s = enter("device", "flush", None);
        self.flushes.time(|| self.inner.flush())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            layer,
            name: "op",
            conn: Some(0),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "client", 0, 100),
            // Two overlapping children cover 10..50, a third 60..70.
            span(2, 1, "execute", 10, 40),
            span(3, 1, "execute", 30, 50),
            span(4, 1, "execute", 60, 70),
            // A grandchild only reduces its own parent.
            span(5, 2, "device", 15, 25),
            // A child leaking past its parent is clipped to it.
            span(6, 4, "device", 65, 90),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 5, 10, 25]);
    }

    #[test]
    fn nesting_on_one_thread_sets_parents() {
        std::thread::spawn(|| {
            {
                let _outer = enter("client", "write", Some(1));
                let _inner = enter("device", "flush", None);
            }
            let mine: Vec<Span> = with_local(|l| l.buf.lock().unwrap().clone());
            assert_eq!(mine.len(), 2);
            let (inner, outer) = (&mine[0], &mine[1]);
            assert_eq!(inner.parent, outer.id);
            assert_eq!(outer.parent, 0);
            assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn server_spans_link_to_the_client_span_that_contains_them() {
        let mut spans = vec![
            span(1, 0, "client", 0, 100),
            Span {
                conn: Some(1),
                ..span(2, 0, "client", 5, 90)
            },
            span(3, 0, "execute", 20, 30),
            Span {
                conn: Some(1),
                ..span(4, 0, "execute", 25, 60)
            },
            span(5, 3, "device", 22, 28),
            span(6, 0, "client", 110, 200),
            span(7, 0, "execute", 120, 130),
        ];
        link_requests(&mut spans, "client", "execute");
        let parent_of = |id: u64| spans.iter().find(|s| s.id == id).unwrap().parent;
        let request_of = |id: u64| spans.iter().find(|s| s.id == id).unwrap().request;
        assert_eq!((parent_of(3), parent_of(4), parent_of(7)), (1, 2, 6));
        assert_eq!((request_of(1), request_of(3), request_of(5)), (1, 1, 1));
        assert_eq!((request_of(4), request_of(7)), (2, 6));
    }

    #[test]
    fn connection_is_read_off_the_file_name() {
        assert_eq!(conn_of("/d03/c1_f07"), Some(1));
        assert_eq!(conn_of("/d03/f07"), None);
        assert_eq!(conn_of("/c1_dir/f07"), None);
        assert_eq!(conn_of(""), None);
    }

    #[test]
    fn meter_scales_sampled_time() {
        let m = Meter::new(4);
        for _ in 0..8 {
            m.time(|| std::thread::sleep(std::time::Duration::from_millis(1)));
        }
        assert_eq!(m.calls(), 8);
        // Calls 0 and 4 were timed (>= 1 ms each), scaled by 4.
        assert!(m.busy_ns() >= 8_000_000, "{}", m.busy_ns());
    }
}
