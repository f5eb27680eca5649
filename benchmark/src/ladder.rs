//! The layer ladder and the direct-call timings.
//!
//! One op stream — `rpc_serial_mixed`'s, the one stack with every layer
//! under the checker — is driven by one thread at each layer boundary in
//! turn. Each rung adds one layer to the stack below it and reports the
//! ns/op it *added*. Everything is timed from outside, through public
//! constructors and calls.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use atomfs::AtomFs;
use atomfs_journal::wire::{encode_frame_parts, FrameKind};
use atomfs_journal::{BlockDevice, Disk, JournaledFs};
use atomfs_obs::{ClockSource, Registry};
use atomfs_server::wire::{decode_request_frame, encode_request_frame};
use atomfs_server::{serve, Response, RpcClient, Server, ServerConfig};
use atomfs_trace::{CursorStats, Event, MicroOp, ShardedSink, Stamped, TraceSink};
use atomfs_vfs::{FileSystem, MeteredFs};
use crlh::{StreamChecker, StreamConfig};

use crate::exec::{populate, Client, Judge, LocalClient, RemoteClient};
use crate::gen::{Op, OpGen, SplitMix, MAX_IO};
use crate::rounds::{journal_config, Env, OneCpu, Sizes, WINDOW};
use crate::spec::Workload;
use crate::stats;

/// Ops a rung times per pass, and the warm-up each fresh stack gets first.
const LADDER: Sizes = Sizes {
    ops: 20_000,
    warm: 4_000,
    sample_every: 1,
};
/// Times the whole ladder is climbed; a rung reports the median.
const PASSES: usize = 3;
/// Bottom up; each adds one layer to the stack of the one before.
const RUNGS: [&str; 6] = [
    "core",
    "+trace",
    "+journal",
    "+vfs.metered",
    "+server.serial",
    "+server.pipelined",
];
/// Events per `StreamChecker::ingest` call at the check rungs.
const INGEST_BATCH: usize = 8192;
/// Ops of the checked workload's stream the small-tree check rung replays.
const SMALL_TREE_OPS: u64 = 60_000;
/// Ops of the ladder's capture the big-tree check rung times.
const BIG_TREE_OPS: usize = 200;

pub struct Ladder {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Cumulative ns/op per rung, bottom up, for the report.
    pub rungs: Vec<(&'static str, f64)>,
    pub mean_window: f64,
}

/// Thread 0's stream, continued across calls (warm-up, then the timed ops).
struct Stream<'a> {
    judge: Judge<'a>,
    gen: OpGen,
    buf: [u8; MAX_IO],
}

impl<'a> Stream<'a> {
    fn new(env: &'a Env) -> Self {
        Stream {
            judge: env.judge(),
            gen: OpGen::new(env.workload, env.seed, 0),
            buf: [0; MAX_IO],
        }
    }

    /// Run the next `n` ops on `client`; ns/op.
    fn run(&mut self, client: &mut dyn Client, n: u64) -> f64 {
        let t0 = Instant::now();
        for i in 0..n {
            let op = self.gen.next_op();
            assert!(
                self.judge.exec(client, &mut self.buf, op),
                "ladder op {i} failed: {op:?}"
            );
        }
        t0.elapsed().as_nanos() as f64 / n as f64
    }
}

fn filled<F: FileSystem>(env: &Env, fs: F) -> Arc<F> {
    populate(&fs, &env.layout, &env.pattern).expect("populate");
    fs.sync().expect("sync after populate");
    Arc::new(fs)
}

/// The journal rung's stack: sharded journal with a recording observer.
fn journal_stack(env: &Env) -> Arc<JournaledFs> {
    let device = Arc::new(Disk::new()) as Arc<dyn BlockDevice>;
    let observer = Arc::new(ShardedSink::new()) as Arc<dyn TraceSink>;
    filled(
        env,
        JournaledFs::create_sharded_observed(device, journal_config(), observer),
    )
}

type Metered = MeteredFs<Arc<JournaledFs>>;

fn metered_stack(env: &Env) -> Arc<Metered> {
    Arc::new(MeteredFs::new(
        journal_stack(env),
        &Registry::new(),
        ClockSource::monotonic(),
    ))
}

/// The metered stack behind a loopback server, and one connection to it.
fn over_loopback(env: &Env) -> (Server<Metered>, Arc<RpcClient>) {
    let server = serve(metered_stack(env), None, ServerConfig::default()).expect("bind loopback");
    let rpc = Arc::new(RpcClient::connect(server.local_addr()).expect("connect loopback"));
    (server, rpc)
}

fn shut_down(server: Server<Metered>, rpc: Arc<RpcClient>) {
    drop(rpc);
    let stats = server.shutdown();
    assert_eq!(
        (stats.malformed, stats.worker_panics),
        (0, 0),
        "server guard rails"
    );
}

/// The stream through `submit_batch` windows of up to [`WINDOW`]. The
/// server may execute one connection's requests out of order, so a
/// window closes before an op that touches a path (or the descriptor)
/// an op already in it touches.
struct Pipelined<'a> {
    judge: Judge<'a>,
    gen: OpGen,
    rpc: Arc<RpcClient>,
    /// The descriptor the last `Open` returned.
    fd: u32,
    window: Vec<Op>,
    touched: Vec<u32>,
    windows: u64,
}

/// Stands for "the open descriptor" among the paths a window touches.
const FD_KEY: u32 = u32::MAX;

impl<'a> Pipelined<'a> {
    fn new(env: &'a Env, rpc: Arc<RpcClient>) -> Self {
        let gen = OpGen::new(env.workload, env.seed, 0);
        Pipelined {
            judge: env.judge(),
            gen,
            rpc,
            fd: 0,
            window: Vec::new(),
            touched: Vec::new(),
            windows: 0,
        }
    }

    fn flush(&mut self) {
        if self.window.is_empty() {
            return;
        }
        let reqs: Vec<_> = self
            .window
            .iter()
            .map(|&op| self.judge.request(op, self.fd))
            .collect();
        let pending = self.rpc.submit_batch(&reqs).expect("submit_batch");
        for (op, p) in self.window.iter().zip(pending) {
            let rsp = p.wait();
            assert!(
                self.judge.response_ok(*op, &rsp),
                "pipelined {op:?} answered {rsp:?}"
            );
            if let (Op::FdOpen { .. }, Ok(Response::Fd(got))) = (op, &rsp) {
                self.fd = *got;
            }
        }
        self.windows += 1;
        self.window.clear();
        self.touched.clear();
    }

    /// Run the next `n` ops; (ns/op, mean window).
    fn run(&mut self, n: u64) -> (f64, f64) {
        let before = self.windows;
        let t0 = Instant::now();
        for _ in 0..n {
            let op = self.gen.next_op();
            let keys: [Option<u32>; 2] = match op {
                Op::Mknod { path }
                | Op::Unlink { path }
                | Op::Stat { path, .. }
                | Op::Read { path, .. }
                | Op::Write { path, .. }
                | Op::Truncate { path, .. } => [Some(path), None],
                Op::Rename { src, dst } => [Some(src), Some(dst)],
                Op::FdOpen { path } => [Some(path), Some(FD_KEY)],
                Op::FdWrite { .. } | Op::FdRead { .. } | Op::FdClose => [Some(FD_KEY), None],
                Op::Readdir { .. } | Op::Sync => [None, None],
            };
            if self.window.len() == WINDOW
                || keys.iter().flatten().any(|k| self.touched.contains(k))
            {
                self.flush();
            }
            self.window.push(op);
            self.touched.extend(keys.iter().flatten());
            // The descriptor number is only known from the reply.
            if matches!(op, Op::FdOpen { .. }) {
                self.flush();
            }
        }
        self.flush();
        let ns = t0.elapsed().as_nanos() as f64;
        (
            ns / n as f64,
            n as f64 / (self.windows - before).max(1) as f64,
        )
    }
}

/// ns per call of `f` over `n` calls.
fn per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / n.max(1) as f64
}

pub fn run(seed: u64) -> Ladder {
    // One CPU for every rung, as for the `rpc_*` rounds (see `OneCpu`).
    let _one_cpu = OneCpu::confine();
    let env = Env::with_sizes(Workload::RpcSerialMixed, seed, LADDER);

    // Each pass climbs the whole ladder on fresh stacks (a stack is
    // dropped before the next is built, so rungs do not compete for
    // memory); a rung reports the median of its passes, so a slow spell
    // of the host does not land on one rung's only measurement.
    let mut passes: Vec<Vec<f64>> = vec![Vec::new(); RUNGS.len()];
    let mut windows = Vec::new();
    let mut captured: Vec<Stamped> = Vec::new();
    let (mut populate_events, mut setup_events, mut emitted) = (0, 0, 0);
    for _ in 0..PASSES {
        let timed = |client: &mut dyn Client, mark: &mut dyn FnMut()| {
            let mut stream = Stream::new(&env);
            stream.run(client, LADDER.warm);
            mark();
            stream.run(client, LADDER.ops)
        };
        passes[0].push(timed(
            &mut LocalClient::new(filled(&env, AtomFs::new())),
            &mut || {},
        ));

        let sink = Arc::new(ShardedSink::new());
        let traced = filled(
            &env,
            AtomFs::traced(Arc::clone(&sink) as Arc<dyn TraceSink>),
        );
        populate_events = sink.stamps_issued() as usize;
        passes[1].push(timed(&mut LocalClient::new(traced), &mut || {
            setup_events = sink.stamps_issued()
        }));
        emitted = sink.stamps_issued();
        captured = sink.take_stamped();

        passes[2].push(timed(
            &mut LocalClient::new(journal_stack(&env)),
            &mut || {},
        ));
        passes[3].push(timed(
            &mut LocalClient::new(metered_stack(&env)),
            &mut || {},
        ));

        let (server, rpc) = over_loopback(&env);
        passes[4].push(timed(&mut RemoteClient::new(Arc::clone(&rpc)), &mut || {}));
        shut_down(server, rpc);

        let (server, rpc) = over_loopback(&env);
        let mut pipelined = Pipelined::new(&env, Arc::clone(&rpc));
        pipelined.run(LADDER.warm);
        let (ns, window) = pipelined.run(LADDER.ops);
        passes[5].push(ns);
        windows.push(window);
        drop(pipelined);
        shut_down(server, rpc);
    }
    let cumulative: Vec<(&'static str, f64)> = RUNGS
        .iter()
        .zip(&passes)
        .map(|(name, ns)| (*name, stats::median(ns)))
        .collect();

    let at = |name: &str| cumulative.iter().find(|r| r.0 == name).expect("rung").1;
    let mut m = BTreeMap::new();
    m.insert("core.ns_per_op", at("core"));
    m.insert("trace.added_ns_per_op", at("+trace") - at("core"));
    m.insert("journal.added_ns_per_op", at("+journal") - at("+trace"));
    m.insert(
        "vfs.metered_added_ns_per_op",
        at("+vfs.metered") - at("+journal"),
    );
    m.insert(
        "server.serial_added_ns_per_op",
        at("+server.serial") - at("+vfs.metered"),
    );
    m.insert(
        "server.pipelined_added_ns_per_op",
        at("+server.pipelined") - at("+vfs.metered"),
    );
    m.insert(
        "trace.events_per_op",
        (emitted - setup_events) as f64 / LADDER.ops as f64,
    );
    check_rungs(seed, &captured, populate_events, &mut m);

    direct_calls(&env, captured, &mut m);
    Ladder {
        metrics: m,
        rungs: cumulative,
        mean_window: stats::median(&windows),
    }
}

/// One `StreamChecker::ingest` pass over `events` in pump-sized batches;
/// returns the time it took in ns.
fn ingest(checker: &mut StreamChecker, events: &[Stamped]) -> f64 {
    let t0 = Instant::now();
    for batch in events.chunks(INGEST_BATCH) {
        let end = batch.last().expect("non-empty chunk").0 + 1;
        checker.ingest(
            batch,
            CursorStats {
                watermark: end,
                frontier: end,
                released: end,
                buffered: 0,
            },
        );
    }
    t0.elapsed().as_nanos() as f64
}

/// The checker's cost, twice, because it depends on the size of the tree.
///
/// The ladder's stream runs over 8192 files of 4 KiB, and there the
/// checker needs hundreds of microseconds per event once reads and stats
/// appear (set-up alone checks at ~1 us/event), so the whole capture
/// cannot be replayed in a benchmark run. `crlh.check_ns_per_event` and
/// `..._per_op` are therefore taken on the tree the checked workload
/// uses (its own stream, one thread, twelve names), where they predict
/// the pump's rate; `crlh.check_big_tree_us_per_op` replays the tree's
/// population untimed and then times the first [`BIG_TREE_OPS`] ops of
/// the capture.
fn check_rungs(
    seed: u64,
    captured: &[Stamped],
    populate_events: usize,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let small = Env::with_sizes(
        Workload::LocalRenameChecked,
        seed,
        Sizes {
            ops: SMALL_TREE_OPS,
            ..LADDER
        },
    );
    let sink = Arc::new(ShardedSink::new());
    let fs = filled(
        &small,
        AtomFs::traced(Arc::clone(&sink) as Arc<dyn TraceSink>),
    );
    let judge = small.judge();
    let mut client = LocalClient::new(fs);
    let mut gen = OpGen::new(small.workload, seed, 0);
    let mut buf = [0u8; MAX_IO];
    for _ in 0..small.sizes.ops {
        let op = gen.next_op();
        assert!(
            judge.exec(&mut client, &mut buf, op),
            "check rung op failed: {op:?}"
        );
    }
    let events = sink.take_stamped();
    let mut checker = StreamChecker::new(StreamConfig::default());
    let ns = ingest(&mut checker, &events);
    let report = checker.finish();
    assert!(
        report.is_ok(),
        "check rung trace must check clean: {:?}",
        report.violations.first()
    );
    m.insert("crlh.check_ns_per_event", ns / events.len() as f64);
    m.insert("crlh.check_ns_per_op", ns / small.sizes.ops as f64);
    m.insert(
        "crlh.relation_checks_per_op",
        report.stats.relation_checks as f64 / report.stats.ops_completed.max(1) as f64,
    );

    let mut checker = StreamChecker::new(StreamConfig::default());
    ingest(&mut checker, &captured[..populate_events]);
    let mut end = populate_events;
    let mut ops = 0;
    while ops < BIG_TREE_OPS && end < captured.len() {
        ops += matches!(captured[end].1, Event::OpEnd { .. }) as usize;
        end += 1;
    }
    let ns = ingest(&mut checker, &captured[populate_events..end]);
    assert!(
        checker.violations().is_empty(),
        "big-tree replay must check clean: {:?}",
        checker.violations().first()
    );
    m.insert(
        "crlh.check_big_tree_us_per_op",
        ns / 1e3 / ops.max(1) as f64,
    );
}

/// Timings of single public functions, beside the ladder.
fn direct_calls(env: &Env, captured: Vec<Stamped>, m: &mut BTreeMap<&'static str, f64>) {
    let judge = env.judge();

    // server::wire over the stream's requests.
    let mut gen = OpGen::new(env.workload, env.seed, 0);
    let reqs: Vec<_> = (0..20_000)
        .map(|_| judge.request(gen.next_op(), 3))
        .collect();
    let mut frames: Vec<Vec<u8>> = vec![Vec::new(); reqs.len()];
    let encode = per_call(reqs.len(), |i| {
        encode_request_frame(&mut frames[i], i as u64, &reqs[i].view())
    });
    let decode = per_call(frames.len(), |i| {
        let decoded = decode_request_frame(std::hint::black_box(&frames[i]));
        assert!(std::hint::black_box(decoded).is_some());
    });
    m.insert("server.wire_encode_ns_per_frame", encode);
    m.insert("server.wire_decode_ns_per_frame", decode);

    // journal::wire over the captured mutations, 16 micro-ops a frame.
    let mops: Vec<(u64, MicroOp)> = captured
        .iter()
        .filter_map(|(stamp, e)| match e {
            Event::Mutate { mop, .. } => Some((*stamp, mop.clone())),
            _ => None,
        })
        .collect();
    let records: Vec<&[(u64, MicroOp)]> = mops.chunks(16).collect();
    let record = per_call(records.len(), |i| {
        let frame = encode_frame_parts(1, 0, FrameKind::Batch, 1, i as u64, 0, records[i]);
        std::hint::black_box(frame);
    });
    m.insert("journal.wire_encode_ns_per_record", record);

    // ShardedSink::emit, then a consuming cursor over what was emitted.
    let events: Vec<Event> = captured.into_iter().map(|(_, e)| e).collect();
    let n = events.len();
    let sink = Arc::new(ShardedSink::new());
    let mut feed = events.into_iter();
    let emit = per_call(n, |_| sink.emit(feed.next().expect("n events")));
    m.insert("trace.emit_ns_per_event", emit);
    let t0 = Instant::now();
    let mut cursor = sink.follow_consuming();
    let mut drained = cursor.poll().len();
    drained += cursor.finish().len();
    m.insert(
        "trace.cursor_ns_per_event",
        t0.elapsed().as_nanos() as f64 / n as f64,
    );
    assert_eq!(drained, n, "cursor must release every event");

    // One FD session through vfs::FdTable on a bare AtomFs.
    let mut client = LocalClient::new(filled(env, AtomFs::new()));
    let mut rng = SplitMix::new(env.seed);
    let mut buf = [0u8; MAX_IO];
    let seeded = &env.layout.seeded;
    let session = per_call(20_000, |_| {
        let file = &seeded[rng.below(seeded.len() as u32) as usize];
        let ops = [
            Op::FdOpen { path: file.path },
            Op::FdWrite {
                fid: file.fid,
                off: 0,
                len: 1024,
            },
            Op::FdRead {
                fid: file.fid,
                off: 0,
                len: 1024,
                size: file.size,
                valid: file.size,
            },
            Op::FdClose,
        ];
        for op in ops {
            assert!(judge.exec(&mut client, &mut buf, op), "fd session {op:?}");
        }
    });
    m.insert("vfs.fd_session_ns", session);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_windows_never_hold_two_ops_on_one_path() {
        // The run itself asserts every response; a reordering hazard
        // would show as ENOENT/short reads there.
        let env = Env::with_sizes(
            Workload::RpcSerialMixed,
            9,
            Sizes {
                ops: 3_000,
                warm: 200,
                sample_every: 1,
            },
        );
        let (server, rpc) = over_loopback(&env);
        let (ns, mean_window) = Pipelined::new(&env, Arc::clone(&rpc)).run(env.sizes.ops);
        shut_down(server, rpc);
        assert!(ns > 0.0);
        assert!(
            mean_window > 1.0 && mean_window <= WINDOW as f64,
            "{mean_window}"
        );
    }
}
