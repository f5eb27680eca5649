//! One round of each workload: build a fresh stack through the product's
//! public constructors, drive the seeded op streams from two client
//! threads, check the outputs.
//!
//! A round is a fixed op count on a fresh stack, so rounds of one run are
//! repeats of one experiment and their quartile distance is the run's
//! own spread. The traced variant of a round differs only in the
//! wrappers the benchmark installs where it does the composing.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use atomfs::AtomFs;
use atomfs_journal::{BlockDevice, Disk, JournaledFs, ShardConfig};
use atomfs_server::{serve, CheckerPump, PumpConfig, RpcClient, ServerConfig};
use atomfs_trace::{ShardedSink, TraceSink};
use atomfs_vfs::FileSystem;

use crate::exec::{populate, tree_digest, Client, Judge, LocalClient, RemoteClient};
use crate::gen::{Layout, Op, OpGen, Pattern, CLIENTS, MAX_IO};
use crate::span::{self, SpanFs, TimedDevice, TimedSink};
use crate::spec::Workload;
use crate::stats;

/// Frozen per-workload sizes, calibrated once on the reference host
/// (2 shared cores) for rounds of about a second. Never derived at run
/// time: a faster program finishes a round sooner, it is not given more.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Ops per client thread in the measured part of a round.
    pub ops: u64,
    /// Ops per client thread run on the fresh stack before the clock
    /// starts (counted into `setup_s`).
    pub warm: u64,
    /// Time every n-th op (1 = all).
    pub sample_every: u64,
}

impl Workload {
    pub fn sizes(self) -> Sizes {
        match self {
            Workload::LocalMeta => Sizes {
                ops: 600_000,
                warm: 3_000,
                sample_every: 16,
            },
            Workload::LocalWriteSync => Sizes {
                ops: 16_000,
                warm: 1_600,
                sample_every: 16,
            },
            Workload::LocalRenameChecked => Sizes {
                ops: 120_000,
                warm: 8_192,
                sample_every: 16,
            },
            Workload::RpcSerialMixed => Sizes {
                ops: 24_000,
                warm: 2_000,
                sample_every: 1,
            },
            Workload::RpcPipelinedRead => Sizes {
                ops: 64 * 1_500,
                warm: 64 * 100,
                sample_every: 64,
            },
        }
    }
}

/// `submit_batch` window of the pipelined workload.
pub const WINDOW: usize = 64;
/// Unsynced ops each thread issues after the last `sync`, before the crash.
const UNSYNCED_TAIL: u64 = 8;
/// A client pauses while more events than this are emitted but unverified.
const VERIFIED_WINDOW: u64 = 32_768;
/// Clients look at the window every this many ops.
const WINDOW_CHECK_EVERY: u64 = 256;
/// Journal geometry: 4 shards x 256 MiB. A round must fill no region
/// beyond half (guard rail below).
pub fn journal_config() -> ShardConfig {
    ShardConfig {
        shards: 4,
        region_sectors: 1 << 19,
        ..ShardConfig::default()
    }
}

/// Everything a workload's rounds share.
pub struct Env {
    pub workload: Workload,
    pub seed: u64,
    pub layout: Layout,
    pub pattern: Pattern,
    pub sizes: Sizes,
    /// Digest the live tree must have after a round; `None` on the
    /// contended mix, whose final tree depends on the interleaving.
    pub expect_tree: Option<u64>,
    /// `local_write_sync`: digest of the tree up to the last acknowledged
    /// sync, which is what recovery must rebuild.
    pub expect_recovered: Option<u64>,
}

impl Env {
    pub fn new(workload: Workload, seed: u64) -> Env {
        Env::with_sizes(workload, seed, workload.sizes())
    }

    pub fn with_sizes(workload: Workload, seed: u64, sizes: Sizes) -> Env {
        let mut env = Env {
            workload,
            seed,
            layout: Layout::of(workload),
            pattern: Pattern::new(seed),
            sizes,
            expect_tree: None,
            expect_recovered: None,
        };
        if workload != Workload::LocalRenameChecked {
            (env.expect_recovered, env.expect_tree) = env.replay_reference();
        }
        env
    }

    pub fn judge(&self) -> Judge<'_> {
        Judge {
            layout: &self.layout,
            pattern: &self.pattern,
            contended: self.workload == Workload::LocalRenameChecked,
        }
    }

    fn tail(&self) -> u64 {
        if self.workload == Workload::LocalWriteSync {
            UNSYNCED_TAIL
        } else {
            0
        }
    }

    /// The oracle: replay each thread's stream, one after the other, on a
    /// fresh bare `AtomFs`. Threads own disjoint files, so any
    /// interleaving of the concurrent run must end in this tree. Returns
    /// the digests (up to the last sync, at the end).
    fn replay_reference(&self) -> (Option<u64>, Option<u64>) {
        let fs = Arc::new(AtomFs::new());
        populate(&*fs, &self.layout, &self.pattern).expect("reference populate");
        let judge = self.judge();
        let mut buf = [0u8; MAX_IO];
        let mut clients: Vec<_> = (0..CLIENTS)
            .map(|t| {
                (
                    LocalClient::new(Arc::clone(&fs)),
                    OpGen::new(self.workload, self.seed, t),
                )
            })
            .collect();
        let mut replay = |n: u64| {
            for (client, gen) in clients.iter_mut() {
                for _ in 0..n {
                    let op = gen.next_op();
                    if op.mutates() {
                        assert!(
                            judge.exec(client, &mut buf, op),
                            "reference replay failed on {op:?}"
                        );
                    }
                }
            }
        };
        replay(self.sizes.warm + self.sizes.ops);
        let mut synced = None;
        if self.tail() > 0 {
            synced = Some(tree_digest(&*fs).expect("reference digest"));
            replay(self.tail());
        }
        (synced, Some(tree_digest(&*fs).expect("reference digest")))
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Ops attempted inside the clock.
    pub ops: u64,
    /// Every op attempted on the stack (warm-up and tail included).
    pub attempted: u64,
    pub failed: u64,
    /// Ascending latency samples, ns.
    pub lat_ns: Vec<u64>,
    /// Ascending `sync` latencies, ns.
    pub sync_ns: Vec<u64>,
    /// `VmHWM` of the process over this round, MiB.
    pub peak_rss_mb: f64,
    /// The workload's oracle passed.
    pub check_ok: bool,
    /// Why not, and guard rails that tripped.
    pub complaints: Vec<String>,
    /// Layer numbers the round can see (mostly on traced rounds).
    pub extra: BTreeMap<&'static str, f64>,
}

impl Round {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    pub fn p50_us(&self) -> f64 {
        stats::quantile_sorted(&self.lat_ns, 0.5) as f64 / 1e3
    }

    pub fn p99_us(&self) -> Option<f64> {
        stats::tail_quantile_sorted(&self.lat_ns, 0.99).map(|ns| ns as f64 / 1e3)
    }

    fn complain(&mut self, what: String) {
        self.check_ok = false;
        self.complaints.push(what);
    }

    fn expect_digest(&mut self, what: &str, fs: &dyn FileSystem, expect: Option<u64>) {
        match (tree_digest(fs), expect) {
            (Ok(got), Some(want)) if got == want => {}
            (Ok(got), Some(want)) => self.complain(format!(
                "{what}: tree digest {got:016x}, reference replay {want:016x}"
            )),
            (Err(e), _) => self.complain(format!("{what}: tree walk failed: {e}")),
            (Ok(_), None) => {}
        }
    }
}

/// What a client thread brings back.
#[derive(Default)]
struct ThreadLog {
    lat_ns: Vec<u64>,
    sync_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    clocked: u64,
    wait_ns: u64,
    busy_ns: u64,
    backlog_max: u64,
    retained_max: u64,
    /// When the thread left the start line and when it finished its
    /// clocked ops. The round's clock is read on the client threads: the
    /// main thread may wake late from a barrier both CPUs are busy behind.
    began: Option<Instant>,
    end: Option<Instant>,
}

impl ThreadLog {
    /// Record the clocked part: `ops` ops between `began` and `end`.
    fn clock(&mut self, began: Instant, end: Instant, ops: u64) {
        (self.began, self.end) = (Some(began), Some(end));
        self.clocked = ops;
        self.busy_ns = (end - began).as_nanos() as u64;
    }
}

/// The verified window of the checked workload.
struct Throttle<'a> {
    sink: &'a ShardedSink,
    pump: &'a CheckerPump,
}

impl Throttle<'_> {
    /// Block while the checker is more than the window behind the emitters.
    fn wait(&self, log: &mut ThreadLog) {
        let t0 = Instant::now();
        while let Some(st) = self.pump.status() {
            let backlog = self.sink.stamps_issued().saturating_sub(st.events);
            let r = st.retained;
            let retained = r.descriptors
                + r.helplist
                + r.effect_entries
                + r.locks_held
                + r.private_inodes
                + r.pending_unbinds
                + r.opt_states
                + r.narration_lines;
            log.backlog_max = log.backlog_max.max(backlog);
            log.retained_max = log.retained_max.max(retained as u64);
            if backlog <= VERIFIED_WINDOW {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        log.wait_ns += t0.elapsed().as_nanos() as u64;
    }
}

/// Whether op `i` of a thread is timed: one op in every block of `every`,
/// at a position that rotates from block to block, so the sample cannot
/// lock onto a period in the stream (the `sync` every 16 ops).
#[inline]
fn sampled(i: u64, every: u64) -> bool {
    let block = i / every;
    i % every == (block * 5) % every
}

struct Drive {
    setup_from: Instant,
    logs: Vec<ThreadLog>,
}

/// Run `body(thread, client, line)` on one thread per client and collect
/// the logs. `line` is a barrier all clients (and nobody else) wait on.
fn on_client_threads<C: Send>(
    clients: Vec<C>,
    setup_from: Instant,
    body: impl Fn(usize, C, &Barrier) -> ThreadLog + Sync,
) -> Drive {
    assert_eq!(clients.len(), CLIENTS);
    let line = Barrier::new(CLIENTS);
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(t, client)| {
                let (body, line) = (&body, &line);
                s.spawn(move || body(t, client, line))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Drive { setup_from, logs }
}

/// Run warm-up, the measured ops and the unsynced tail on `clients`, one
/// thread each. `setup_from` is when the caller began building the stack.
fn drive(
    env: &Env,
    clients: Vec<Box<dyn Client>>,
    setup_from: Instant,
    throttle: Option<&Throttle>,
) -> Drive {
    let judge = env.judge();
    let sizes = env.sizes;
    on_client_threads(clients, setup_from, |t, mut client, line| {
        let mut gen = OpGen::new(env.workload, env.seed, t);
        let mut buf = [0u8; MAX_IO];
        let mut log = ThreadLog::default();
        log.lat_ns
            .reserve((sizes.ops / sizes.sample_every) as usize + 1);
        let mut run = |log: &mut ThreadLog, op: Op| {
            log.attempted += 1;
            if !judge.exec(&mut *client, &mut buf, op) {
                log.failed += 1;
            }
        };
        // The window holds during warm-up too, or the measured part would
        // start by working off warm-up's backlog.
        let throttled = |log: &mut ThreadLog, i: u64| {
            if let (Some(th), true) = (throttle, i.is_multiple_of(WINDOW_CHECK_EVERY)) {
                th.wait(log);
            }
        };
        for i in 0..sizes.warm {
            throttled(&mut log, i);
            run(&mut log, gen.next_op());
        }
        (log.wait_ns, log.backlog_max) = (0, 0);
        line.wait();
        let began = Instant::now();
        for i in 0..sizes.ops {
            throttled(&mut log, i);
            let op = gen.next_op();
            if op == Op::Sync {
                let t0 = Instant::now();
                run(&mut log, op);
                let ns = t0.elapsed().as_nanos() as u64;
                log.sync_ns.push(ns);
                if sampled(i, sizes.sample_every) {
                    log.lat_ns.push(ns);
                }
            } else if sampled(i, sizes.sample_every) {
                let t0 = Instant::now();
                run(&mut log, op);
                log.lat_ns.push(t0.elapsed().as_nanos() as u64);
            } else {
                run(&mut log, op);
            }
        }
        log.clock(began, Instant::now(), sizes.ops);
        if env.tail() > 0 {
            // Every thread's last sync is acknowledged before anyone
            // issues an op that must not survive.
            line.wait();
            for _ in 0..env.tail() {
                run(&mut log, gen.next_op());
            }
        }
        log
    })
}

impl Drive {
    /// Fold the thread logs into a round whose clock stops at `end`
    /// (default: when the last client finished).
    fn into_round(self, end: Option<Instant>) -> Round {
        let start = self
            .logs
            .iter()
            .filter_map(|l| l.began)
            .min()
            .expect("clients ran");
        let last = self
            .logs
            .iter()
            .filter_map(|l| l.end)
            .max()
            .expect("clients ran");
        let mut round = Round {
            setup_s: (start - self.setup_from).as_secs_f64(),
            wall_s: (end.unwrap_or(last) - start).as_secs_f64(),
            check_ok: true,
            ..Round::default()
        };
        let (mut wait_ns, mut busy_ns) = (0, 0);
        for mut log in self.logs {
            round.ops += log.clocked;
            round.attempted += log.attempted;
            round.failed += log.failed;
            round.lat_ns.append(&mut log.lat_ns);
            round.sync_ns.append(&mut log.sync_ns);
            wait_ns += log.wait_ns;
            busy_ns += log.busy_ns;
            let e = &mut round.extra;
            let max = |e: &mut BTreeMap<&'static str, f64>, k, v: u64| {
                let slot = e.entry(k).or_insert(0.0);
                *slot = slot.max(v as f64);
            };
            max(e, "backlog_max_events", log.backlog_max);
            max(e, "retained_max", log.retained_max);
        }
        round.lat_ns.sort_unstable();
        round.sync_ns.sort_unstable();
        round.extra.insert("client_busy_ns", busy_ns as f64);
        round.extra.insert(
            "throttle_wait_share",
            wait_ns as f64 / busy_ns.max(1) as f64,
        );
        if round.failed > 0 {
            round.complain(format!(
                "{} of {} ops failed",
                round.failed, round.attempted
            ));
        }
        round
    }
}

fn boxed<C: Client + 'static>(clients: impl IntoIterator<Item = C>) -> Vec<Box<dyn Client>> {
    clients
        .into_iter()
        .map(|c| Box::new(c) as Box<dyn Client>)
        .collect()
}

/// Total duration of the spans of `layer`, ns.
fn span_total(spans: &[span::Span], layer: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.dur() as f64)
        .sum()
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// Confines the calling thread, and every thread spawned while the guard
/// lives, to one CPU; restores the old mask when dropped.
///
/// The `rpc_*` rounds and the ladder run under it. On the reference host
/// (a 2-vCPU microVM) a wake-up that crosses CPUs costs ~18 us against
/// ~2 us on one CPU, and which of the two a request pays is decided by
/// where the scheduler happened to put a dozen server and client
/// threads: left free, `rpc_serial_mixed` swings 2x from round to round
/// on placement alone. On one CPU the round measures the server's own
/// path. The `local_*` rounds stay unconfined: two threads in parallel
/// on shared inodes is what they measure, and pinning each client to a
/// CPU of its own starves the threads the product starts beside them
/// (checker pump, journal committer) without steadying anything.
pub struct OneCpu {
    saved: Option<CpuSet>,
}

impl OneCpu {
    pub fn confine() -> OneCpu {
        let mut all: CpuSet = [0; 16];
        // SAFETY: `all` is a writable buffer of the size passed; pid 0 is
        // the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), all.as_mut_ptr()) } != 0 {
            return OneCpu { saved: None };
        }
        let mut one: CpuSet = [0; 16];
        if let Some(word) = all.iter().position(|w| *w != 0) {
            one[word] = 1 << all[word].trailing_zeros();
        }
        // SAFETY: `one` is a readable buffer of the size passed.
        let done =
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) } == 0;
        OneCpu {
            saved: done.then_some(all),
        }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if let Some(all) = self.saved {
            // SAFETY: `all` is a readable buffer of the size passed.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), all.as_ptr()) };
        }
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// How a round is run.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Install the benchmark's span/meter wrappers.
    pub traced: bool,
    /// `local_write_sync`: after the round, cut the power, recover, and
    /// hold the recovered tree to the reference. Takes several times as
    /// long as the round itself, so a measured run does it on its
    /// warm-up round only; every round still checks the live tree.
    pub crash_recover: bool,
}

/// One round of `env.workload`. On a traced round the spans recorded are
/// returned as well.
pub fn run_round(env: &Env, mode: Mode) -> (Round, Vec<span::Span>) {
    let traced = mode.traced;
    // The stack of the round before was just dropped, and glibc sorts
    // such a mass of freed chunks on the next large request, in whichever
    // thread makes it: tens of milliseconds that landed in set-up or on
    // one op, at random. Paid here, outside every clock, each round
    // starts from the same heap.
    // SAFETY: no preconditions; glibc's allocator is the process allocator.
    unsafe { malloc_trim(0) };
    // Writing 5 resets the peak to the current resident size.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    if traced {
        span::drain(); // spans of earlier rounds are not this round's
    }
    let mut round = match env.workload {
        Workload::LocalMeta => local_meta(env, traced),
        Workload::LocalWriteSync => local_write_sync(env, mode),
        Workload::LocalRenameChecked => local_rename_checked(env, traced),
        Workload::RpcSerialMixed => {
            let _one_cpu = OneCpu::confine();
            rpc_serial_mixed(env, traced)
        }
        Workload::RpcPipelinedRead => {
            let _one_cpu = OneCpu::confine();
            rpc_pipelined_read(env, traced)
        }
    };
    round.peak_rss_mb = peak_rss_mib();
    let mut spans = if traced { span::drain() } else { Vec::new() };
    if traced {
        span::link_requests(&mut spans, "client", "execute");
        if spans.iter().any(|s| s.layer == "execute") {
            round
                .extra
                .insert("client_total_ns", span_total(&spans, "client"));
            round
                .extra
                .insert("execute_total_ns", span_total(&spans, "execute"));
        }
    }
    (round, spans)
}

// ---- local_meta ----------------------------------------------------------

fn local_meta(env: &Env, traced: bool) -> Round {
    let t0 = Instant::now();
    let fs = Arc::new(AtomFs::new());
    populate(&*fs, &env.layout, &env.pattern).expect("populate");
    let clients = if traced {
        let spanned = Arc::new(SpanFs::new(Arc::clone(&fs), "core", None));
        boxed((0..CLIENTS).map(|_| LocalClient::new(Arc::clone(&spanned))))
    } else {
        boxed((0..CLIENTS).map(|_| LocalClient::new(Arc::clone(&fs))))
    };
    let mut round = drive(env, clients, t0, None).into_round(None);
    round.expect_digest("live tree", &*fs, env.expect_tree);
    round
}

/// The workload's streams on a bare `AtomFs`, whatever stack it normally
/// runs on: what the core layer alone costs for the same ops.
pub fn bare_round(env: &Env) -> Round {
    local_meta(env, false)
}

// ---- local_write_sync ----------------------------------------------------

/// A journaled mount over `disk`; on a traced round the device is wrapped.
fn journaled(disk: &Arc<Disk>, traced: bool) -> (Arc<JournaledFs>, Option<Arc<TimedDevice<Disk>>>) {
    let timed = traced.then(|| Arc::new(TimedDevice::new(Arc::clone(disk))));
    let device: Arc<dyn BlockDevice> = match &timed {
        Some(t) => Arc::clone(t) as Arc<dyn BlockDevice>,
        None => Arc::clone(disk) as Arc<dyn BlockDevice>,
    };
    (
        Arc::new(JournaledFs::create_sharded(device, journal_config())),
        timed,
    )
}

/// Guard rail, a benchmark bug and not a result: a region more than half
/// full means the round's size has outgrown the journal geometry.
fn guard_journal_room(round: &mut Round, jfs: &JournaledFs) {
    let sink = jfs.sharded_sink().expect("sharded mount");
    let half = journal_config().region_bytes() / 2;
    for r in sink.shard_reports() {
        if r.log_bytes > half {
            round.complain(format!(
                "guard rail: journal shard {} holds {} bytes, over half its region",
                r.shard, r.log_bytes
            ));
        }
    }
    if jfs.health().is_degraded() || !sink.quarantined_shards().is_empty() {
        round.complain("journal degraded or a shard quarantined during the round".into());
    }
}

fn local_write_sync(env: &Env, mode: Mode) -> Round {
    let traced = mode.traced;
    let t0 = Instant::now();
    let disk = Arc::new(Disk::new());
    let (jfs, timed) = journaled(&disk, traced);
    populate(&*jfs, &env.layout, &env.pattern).expect("populate");
    jfs.sync().expect("sync after populate");
    let log_before = jfs.log_bytes();
    let clients = if traced {
        let spanned = Arc::new(SpanFs::new(Arc::clone(&jfs), "journal", None));
        boxed((0..CLIENTS).map(|_| LocalClient::new(Arc::clone(&spanned))))
    } else {
        boxed((0..CLIENTS).map(|_| LocalClient::new(Arc::clone(&jfs))))
    };
    let driven = drive(env, clients, t0, None);
    let device_at_end = timed.as_ref().map(|t| {
        (
            t.writes.calls(),
            t.flushes.calls(),
            t.writes.busy_ns() + t.flushes.busy_ns(),
        )
    });
    let mut round = driven.into_round(None);
    round.expect_digest("live tree", &*jfs, env.expect_tree);
    guard_journal_room(&mut round, &jfs);

    if let Some((writes, flushes, busy_ns)) = device_at_end {
        let syncs = round.sync_ns.len().max(1) as f64;
        let e = &mut round.extra;
        e.insert("journal.device_writes_per_sync", writes as f64 / syncs);
        e.insert("journal.device_flushes_per_sync", flushes as f64 / syncs);
        e.insert(
            "journal.device_busy_ns_per_op",
            busy_ns as f64 / round.attempted as f64,
        );
        // Bytes the ops since `log_before` asked to write, for log
        // amplification.
        let mut user_bytes = 0u64;
        for t in 0..CLIENTS {
            let mut gen = OpGen::new(env.workload, env.seed, t);
            for _ in 0..env.sizes.warm + env.sizes.ops {
                if let Op::Write { len, .. } = gen.next_op() {
                    user_bytes += len as u64;
                }
            }
        }
        e.insert(
            "journal.log_bytes_per_user_byte",
            (jfs.log_bytes() - log_before) as f64 / user_bytes.max(1) as f64,
        );
    }

    if !mode.crash_recover {
        return round;
    }
    // Power cut: only flushed sectors survive. Then recover and compare
    // with the reference replay up to the last acknowledged sync.
    drop(jfs);
    disk.crash(|_| false);
    let t_rec = Instant::now();
    let recovered = JournaledFs::recover_sharded(Arc::clone(&disk), journal_config());
    let recover_s = t_rec.elapsed().as_secs_f64();
    round.extra.insert("journal.recover_s", recover_s);
    match recovered {
        Err(e) => round.complain(format!("recovery failed: {e}")),
        Ok((rfs, rstats)) => {
            round.extra.insert(
                "journal.recover_ns_per_record",
                recover_s * 1e9 / rstats.ops_replayed.max(1) as f64,
            );
            round.expect_digest("recovered tree", &rfs, env.expect_recovered);
            let quarantined = rfs
                .sharded_sink()
                .expect("sharded mount")
                .quarantined_shards();
            if rfs.health().is_degraded()
                || !quarantined.is_empty()
                || rstats.lost_ops > 0
                || !rstats.skipped.is_empty()
            {
                round.complain(format!(
                    "recovery not clean: degraded={} quarantined={quarantined:?} lost_ops={} skipped={}",
                    rfs.health().is_degraded(),
                    rstats.lost_ops,
                    rstats.skipped.len()
                ));
            }
        }
    }
    round
}

// ---- local_rename_checked ------------------------------------------------

fn local_rename_checked(env: &Env, traced: bool) -> Round {
    let t0 = Instant::now();
    let sink = Arc::new(ShardedSink::new());
    let timed = traced.then(|| Arc::new(TimedSink::new(Arc::clone(&sink))));
    let observer: Arc<dyn TraceSink> = match &timed {
        Some(t) => Arc::clone(t) as Arc<dyn TraceSink>,
        None => Arc::clone(&sink) as Arc<dyn TraceSink>,
    };
    // The checker starts from an empty tree, so it must see set-up too.
    let fs = Arc::new(AtomFs::traced(observer));
    let pump = CheckerPump::start(&sink, PumpConfig::default(), None);
    populate(&*fs, &env.layout, &env.pattern).expect("populate");
    let clients = if traced {
        let spanned = Arc::new(SpanFs::new(Arc::clone(&fs), "core", None));
        boxed((0..CLIENTS).map(|_| LocalClient::new(Arc::clone(&spanned))))
    } else {
        boxed((0..CLIENTS).map(|_| LocalClient::new(Arc::clone(&fs))))
    };
    let throttle = Throttle {
        sink: &sink,
        pump: &pump,
    };
    let driven = drive(env, clients, t0, Some(&throttle));

    // The clock runs until the checker has ruled on the last event.
    let issued = sink.stamps_issued();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut checked = 0;
    while let Some(st) = pump.status() {
        checked = st.events;
        if checked >= issued || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let report = pump.stop_and_finish();
    let verdict_at = Instant::now();

    let mut round = driven.into_round(Some(verdict_at));
    if checked != issued {
        round.complain(format!(
            "checker saw {checked} events, {issued} were emitted"
        ));
    }
    match report {
        None => round.complain("checker report already taken".into()),
        Some(report) => {
            if !report.is_ok() {
                round.complain(format!(
                    "{} CRL-H violations, first: {}",
                    report.violations.len(),
                    report.violations[0]
                ));
                round.failed += report.violations.len() as u64;
            }
            let s = report.stats;
            round.extra.insert(
                "opt_retries_per_claim",
                s.opt_retries as f64 / s.opt_claims.max(1) as f64,
            );
        }
    }
    if round.extra["backlog_max_events"] > (2 * VERIFIED_WINDOW) as f64 {
        round.complain(format!(
            "guard rail: backlog reached {} events, window is {VERIFIED_WINDOW}",
            round.extra["backlog_max_events"]
        ));
    }
    round
        .extra
        .insert("pump_events_per_s", issued as f64 / round.wall_s);
    round.extra.insert("events", issued as f64);
    if let Some(t) = timed {
        round.extra.insert(
            "record_busy_ns_per_op",
            t.emits.busy_ns() as f64 / round.attempted as f64,
        );
    }
    round
}

// ---- rpc_serial_mixed ----------------------------------------------------

/// Serve `served`, run `body` against the bound address, shut down, and
/// hold the server to its guard rails.
fn with_server<F: FileSystem + 'static>(
    served: Arc<F>,
    body: impl FnOnce(std::net::SocketAddr) -> Round,
) -> Round {
    let server = serve(served, None, ServerConfig::default()).expect("bind loopback");
    let mut round = body(server.local_addr());
    let stats = server.shutdown();
    if stats.malformed != 0 || stats.worker_panics != 0 {
        round.complain(format!(
            "guard rail: server saw {} malformed frames, {} worker panics",
            stats.malformed, stats.worker_panics
        ));
    }
    if stats.requests != round.attempted {
        round.complain(format!(
            "server admitted {} requests, clients sent {}",
            stats.requests, round.attempted
        ));
    }
    round.extra.insert(
        "replies_per_flush",
        stats.replies_flushed as f64 / stats.flush_batches.max(1) as f64,
    );
    round
}

fn connect(addr: std::net::SocketAddr) -> Arc<RpcClient> {
    Arc::new(RpcClient::connect(addr).expect("connect loopback"))
}

fn rpc_serial_mixed(env: &Env, traced: bool) -> Round {
    let t0 = Instant::now();
    let disk = Arc::new(Disk::new());
    let (jfs, _timed) = journaled(&disk, traced);
    populate(&*jfs, &env.layout, &env.pattern).expect("populate");
    jfs.sync().expect("sync after populate");
    let body = |addr| {
        let clients = if traced {
            boxed((0..CLIENTS).map(|c| RemoteClient::traced(connect(addr), c as u8)))
        } else {
            boxed((0..CLIENTS).map(|_| RemoteClient::new(connect(addr))))
        };
        // `drive` drops the clients, which closes the connections.
        drive(env, clients, t0, None).into_round(None)
    };
    let mut round = if traced {
        with_server(
            Arc::new(SpanFs::new(Arc::clone(&jfs), "execute", None)),
            body,
        )
    } else {
        with_server(Arc::clone(&jfs), body)
    };
    round.expect_digest("served tree", &*jfs, env.expect_tree);
    guard_journal_room(&mut round, &jfs);
    round
}

// ---- rpc_pipelined_read --------------------------------------------------

fn rpc_pipelined_read(env: &Env, traced: bool) -> Round {
    let t0 = Instant::now();
    let fs = Arc::new(AtomFs::new());
    populate(&*fs, &env.layout, &env.pattern).expect("populate");
    let body = |addr| {
        let rpcs: Vec<_> = (0..CLIENTS).map(|_| connect(addr)).collect();
        drive_windows(env, rpcs, t0, traced).into_round(None)
    };
    let mut round = if traced {
        with_server(
            Arc::new(SpanFs::new(Arc::clone(&fs), "execute", None)),
            body,
        )
    } else {
        with_server(Arc::clone(&fs), body)
    };
    round.expect_digest("served tree", &*fs, env.expect_tree);
    round
}

/// The pipelined twin of [`drive`]: each thread keeps one `submit_batch`
/// window of [`WINDOW`] requests in flight and times the window.
fn drive_windows(env: &Env, rpcs: Vec<Arc<RpcClient>>, setup_from: Instant, traced: bool) -> Drive {
    let judge = env.judge();
    let sizes = env.sizes;
    on_client_threads(rpcs, setup_from, |t, rpc, line| {
        let mut gen = OpGen::new(env.workload, env.seed, t);
        let mut log = ThreadLog::default();
        let mut window = |log: &mut ThreadLog| {
            let ops: Vec<Op> = (0..WINDOW).map(|_| gen.next_op()).collect();
            let reqs: Vec<_> = ops.iter().map(|&op| judge.request(op, 0)).collect();
            let _s = traced.then(|| span::enter("client", "window", Some(t as u8)));
            let t0 = Instant::now();
            log.attempted += WINDOW as u64;
            match rpc.submit_batch(&reqs) {
                Err(_) => log.failed += WINDOW as u64,
                Ok(pending) => {
                    for (op, p) in ops.iter().zip(pending) {
                        if !judge.response_ok(*op, &p.wait()) {
                            log.failed += 1;
                        }
                    }
                }
            }
            t0.elapsed().as_nanos() as u64
        };
        let windows = sizes.ops / WINDOW as u64;
        for _ in 0..sizes.warm / WINDOW as u64 {
            window(&mut log);
        }
        line.wait();
        let began = Instant::now();
        for _ in 0..windows {
            let ns = window(&mut log);
            log.lat_ns.push(ns);
        }
        log.clock(began, Instant::now(), windows * WINDOW as u64);
        log
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_hits_every_position_of_a_block_equally() {
        let every = 16;
        let mut hits = vec![0u32; every as usize];
        for i in 0..every * every * 4 {
            if sampled(i, every) {
                hits[(i % every) as usize] += 1;
            }
        }
        assert!(hits.iter().all(|&h| h == 4), "{hits:?}");
        assert!((0..100).all(|i| sampled(i, 1)));
    }

    /// Every workload, end to end, at a size small enough for a unit test:
    /// oracles pass, nothing fails, traced rounds yield linked spans.
    #[test]
    fn small_rounds_pass_their_oracles() {
        for w in Workload::ALL {
            let sizes = Sizes {
                ops: 64 * 40,
                warm: 64 * 4,
                ..w.sizes()
            };
            let env = Env::with_sizes(w, 5, sizes);
            for traced in [false, true] {
                let (round, spans) = run_round(
                    &env,
                    Mode {
                        traced,
                        crash_recover: true,
                    },
                );
                assert!(
                    round.check_ok,
                    "{w:?} traced={traced}: {:?}",
                    round.complaints
                );
                assert_eq!(round.failed, 0, "{w:?}");
                assert_eq!(round.ops, sizes.ops * CLIENTS as u64, "{w:?}");
                assert!(!round.lat_ns.is_empty() && round.wall_s > 0.0 && round.setup_s > 0.0);
                assert_eq!(spans.is_empty(), !traced, "{w:?}");
                if traced && w == Workload::RpcSerialMixed {
                    let linked = spans
                        .iter()
                        .filter(|s| s.layer == "execute" && s.parent != 0)
                        .count();
                    let executes = spans.iter().filter(|s| s.layer == "execute").count();
                    assert!(
                        linked * 10 >= executes * 9,
                        "{linked} of {executes} execute spans linked"
                    );
                }
            }
        }
    }

    /// The oracle must be able to fail: a stack that loses a write is caught.
    #[test]
    fn a_wrong_tree_fails_the_digest_check() {
        let env = Env::with_sizes(
            Workload::LocalMeta,
            5,
            Sizes {
                ops: 600,
                warm: 60,
                sample_every: 16,
            },
        );
        let fs = AtomFs::new();
        populate(&fs, &env.layout, &env.pattern).unwrap();
        let mut round = Round {
            check_ok: true,
            ..Round::default()
        };
        round.expect_digest("live tree", &fs, env.expect_tree);
        assert!(round.check_ok);
        fs.truncate(&env.layout.paths[7], 100).unwrap();
        round.expect_digest("live tree", &fs, env.expect_tree);
        assert!(!round.check_ok);
    }
}
