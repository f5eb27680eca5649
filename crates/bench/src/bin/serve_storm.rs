//! Client-observed throughput of the RPC serving layer: pipelined
//! versus serial request submission.
//!
//! N client threads each hold one connection to a served AtomFS and
//! drive a cheap-op mix (70% `stat`, 30% 256-byte `read`) over a
//! pre-created tree. Two submission modes:
//!
//! * `serial` — one request in flight per connection: every op is
//!   submit-then-wait, so each pays a full wire round trip (pipelining
//!   off — the baseline the tentpole exists to beat);
//! * `pipelined` — requests submitted in windows of [`WINDOW`], encoded
//!   into one `write` per window; the connection thread reads the window
//!   in one go, executes it inline, and answers it with one batched
//!   `write`.
//!
//! A metered pass (serial, `MeteredFs` over the remote adapter) reports
//! client-observed p50/p99 per op — the latency a caller of the client
//! library actually experiences, wire and queueing included.
//!
//! Usage:
//! `cargo run --release -p atomfs-bench --bin serve_storm -- [ops_per_thread] [--gate]`
//!
//! With `--gate`, exits nonzero unless pipelined beats serial by
//! ≥ 2.0x at 8 client threads. Writes `BENCH_serve.json`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use atomfs::AtomFs;
use atomfs_bench::harness::{best_of, Args, Json};
use atomfs_bench::report::Table;
use atomfs_obs::{ClockSource, Registry};
use atomfs_server::{serve, RemoteFs, Request, RpcClient, Server, ServerConfig};
use atomfs_vfs::{FileSystem, MeteredFs};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Runs per cell; the best is kept.
const REPS: usize = 3;
const GATE_BAR: f64 = 2.0;
/// In-flight requests per connection in pipelined mode.
const WINDOW: usize = 64;
const DIRS: usize = 4;
const FILES: usize = 16;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serial,
    Pipelined,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Serial => "serial",
            Mode::Pipelined => "pipelined",
        }
    }
}

fn start_server() -> (Server<AtomFs>, SocketAddr) {
    let fs = Arc::new(AtomFs::new());
    for d in 0..DIRS {
        fs.mkdir(&format!("/d{d}")).unwrap();
        for f in 0..FILES {
            let path = format!("/d{d}/f{f}");
            fs.mknod(&path).unwrap();
            fs.write(&path, 0, &[f as u8; 1024]).unwrap();
        }
    }
    let srv = serve(fs, None, ServerConfig::default()).expect("bind loopback");
    let addr = srv.local_addr();
    (srv, addr)
}

fn op_request(i: usize) -> Request {
    let path = format!("/d{}/f{}", i % DIRS, i % FILES);
    if i % 10 < 7 {
        Request::Stat { path }
    } else {
        Request::Read {
            path,
            offset: 0,
            len: 256,
        }
    }
}

/// One timed run: total client-observed ops per second across threads.
fn run(mode: Mode, threads: usize, ops_per_thread: usize) -> f64 {
    let (srv, addr) = start_server();
    let start = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..threads {
        handles.push(std::thread::spawn(move || {
            let client = RpcClient::connect(addr).expect("connect");
            match mode {
                Mode::Serial => {
                    for i in 0..ops_per_thread {
                        client.call(&op_request(i).view()).expect("serial call");
                    }
                }
                Mode::Pipelined => {
                    let mut i = 0;
                    while i < ops_per_thread {
                        let n = WINDOW.min(ops_per_thread - i);
                        let batch: Vec<Request> = (i..i + n).map(op_request).collect();
                        let pendings = client.submit_batch(&batch).expect("batch submit");
                        for p in pendings {
                            p.wait().expect("batch reply");
                        }
                        i += n;
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = srv.shutdown();
    assert_eq!(stats.malformed, 0);
    assert_eq!(stats.worker_panics, 0);
    (threads * ops_per_thread) as f64 / elapsed
}

/// Client-observed latency: a serial metered pass at 8 threads, p50/p99
/// from the shared `fs_op_ns` histograms.
fn latency_pass(ops_per_thread: usize) -> Vec<(String, u64, u64)> {
    let (srv, addr) = start_server();
    let registry = Arc::new(Registry::new());
    let mut handles = Vec::new();
    for _ in 0..8 {
        let registry = Arc::clone(&registry);
        handles.push(std::thread::spawn(move || {
            let client = Arc::new(RpcClient::connect(addr).expect("connect"));
            let fs = MeteredFs::new(RemoteFs::new(client), &registry, ClockSource::monotonic());
            let mut buf = [0u8; 256];
            for i in 0..ops_per_thread {
                let path = format!("/d{}/f{}", i % DIRS, i % FILES);
                if i % 10 < 7 {
                    fs.stat(&path).expect("stat");
                } else {
                    fs.read(&path, 0, &mut buf).expect("read");
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    srv.shutdown();
    ["stat", "read"]
        .iter()
        .map(|op| {
            let h = registry.histogram("fs_op_ns", &[("op", op)], "");
            let snap = h.snapshot();
            (op.to_string(), snap.quantile(0.5), snap.quantile(0.99))
        })
        .collect()
}

fn main() {
    let args = Args::parse();
    let ops_per_thread: usize = args.get(0, "ops_per_thread", 20_000);
    println!(
        "RPC serving throughput, {ops_per_thread} ops/thread, window {WINDOW}, mix 70% stat / 30% read-256B"
    );

    // Ops/s per mode, one cell per thread count.
    let modes = [Mode::Serial, Mode::Pipelined];
    let rates: Vec<Vec<f64>> = modes
        .iter()
        .map(|&mode| {
            THREAD_COUNTS
                .iter()
                .map(|&threads| best_of(REPS, || run(mode, threads, ops_per_thread)))
                .collect()
        })
        .collect();
    let latency = latency_pass(ops_per_thread / 4);

    let mut table = Table::new(&["mode", "1T kop/s", "2T kop/s", "4T kop/s", "8T kop/s"]);
    for (mode, row) in modes.iter().zip(&rates) {
        let mut cells = vec![mode.name().to_string()];
        cells.extend(row.iter().map(|r| format!("{:.1}", r / 1e3)));
        table.row(cells);
    }
    table.print();
    println!();
    println!("client-observed latency (serial, 8 threads):");
    for (op, p50, p99) in &latency {
        println!("  {op:8} p50 {p50:>8} ns   p99 {p99:>8} ns");
    }

    // The last cell is 8 client threads.
    let speedup = rates[1][THREAD_COUNTS.len() - 1] / rates[0][THREAD_COUNTS.len() - 1];
    println!();
    println!("pipelined vs serial at 8 threads: {speedup:.2}x (gate bar {GATE_BAR}x)");
    Json::new()
        .str("bench", "serve_storm")
        .num("ops_per_thread", ops_per_thread)
        .num("window", WINDOW)
        .list(
            "series",
            modes.iter().zip(&rates).flat_map(|(mode, row)| {
                THREAD_COUNTS.iter().zip(row).map(|(threads, ops)| {
                    Json::new()
                        .str("mode", mode.name())
                        .num("threads", threads)
                        .fixed("ops_per_sec", *ops, 1)
                })
            }),
        )
        .list(
            "client_latency_ns",
            latency
                .iter()
                .map(|(op, p50, p99)| Json::new().str("op", op).num("p50", p50).num("p99", p99)),
        )
        .obj(
            "gate",
            Json::new()
                .str("metric", "pipelined vs serial, 8 client threads")
                .fixed("speedup", speedup, 2)
                .num("bar", GATE_BAR),
        )
        .write("serve");

    if args.gate && speedup < GATE_BAR {
        eprintln!("GATE FAIL: pipelined speedup {speedup:.2}x < {GATE_BAR}x");
        std::process::exit(1);
    }
}
