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
use atomfs_bench::report::Table;
use atomfs_obs::{ClockSource, Registry};
use atomfs_server::{serve, RemoteFs, Request, RpcClient, Server, ServerConfig};
use atomfs_vfs::{FileSystem, MeteredFs};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
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

/// Best of [`REPS`] runs.
fn best(mut f: impl FnMut() -> f64) -> f64 {
    (0..REPS).map(|_| f()).fold(f64::MIN, f64::max)
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

struct Series {
    mode: &'static str,
    threads: usize,
    ops_per_sec: f64,
}

fn write_json(
    path: &str,
    ops_per_thread: usize,
    series: &[Series],
    latency: &[(String, u64, u64)],
    speedup: f64,
) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"serve_storm\",\n");
    out.push_str(&format!("  \"ops_per_thread\": {ops_per_thread},\n"));
    out.push_str(&format!("  \"window\": {WINDOW},\n"));
    out.push_str("  \"series\": [\n");
    let rows: Vec<String> = series
        .iter()
        .map(|s| {
            format!(
                "    {{\"mode\": \"{}\", \"threads\": {}, \"ops_per_sec\": {:.1}}}",
                s.mode, s.threads, s.ops_per_sec
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str("  \"client_latency_ns\": [\n");
    let lrows: Vec<String> = latency
        .iter()
        .map(|(op, p50, p99)| format!("    {{\"op\": \"{op}\", \"p50\": {p50}, \"p99\": {p99}}}"))
        .collect();
    out.push_str(&lrows.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str(&format!(
        "  \"gate\": {{\"metric\": \"pipelined vs serial, 8 client threads\", \"speedup\": {speedup:.2}, \"bar\": {GATE_BAR}}}\n"
    ));
    out.push_str("}\n");
    std::fs::write(path, out).expect("write BENCH_serve.json");
}

fn main() {
    let mut ops_per_thread = 20_000usize;
    let mut gate = false;
    for arg in std::env::args().skip(1) {
        if arg == "--gate" {
            gate = true;
        } else {
            ops_per_thread = arg.parse().expect("ops_per_thread");
        }
    }
    println!(
        "RPC serving throughput, {ops_per_thread} ops/thread, window {WINDOW}, mix 70% stat / 30% read-256B"
    );

    let mut series = Vec::new();
    for mode in [Mode::Serial, Mode::Pipelined] {
        for &threads in &THREAD_COUNTS {
            let ops = best(|| run(mode, threads, ops_per_thread));
            series.push(Series {
                mode: mode.name(),
                threads,
                ops_per_sec: ops,
            });
        }
    }
    let latency = latency_pass(ops_per_thread / 4);

    let lookup = |mode: Mode, threads: usize| {
        series
            .iter()
            .find(|s| s.mode == mode.name() && s.threads == threads)
            .expect("series present")
            .ops_per_sec
    };
    let mut table = Table::new(&["mode", "1T kop/s", "2T kop/s", "4T kop/s", "8T kop/s"]);
    for mode in [Mode::Serial, Mode::Pipelined] {
        let mut cells = vec![mode.name().to_string()];
        for &threads in &THREAD_COUNTS {
            cells.push(format!("{:.1}", lookup(mode, threads) / 1e3));
        }
        table.row(cells);
    }
    table.print();
    println!();
    println!("client-observed latency (serial, 8 threads):");
    for (op, p50, p99) in &latency {
        println!("  {op:8} p50 {p50:>8} ns   p99 {p99:>8} ns");
    }

    let speedup = lookup(Mode::Pipelined, 8) / lookup(Mode::Serial, 8);
    println!();
    println!("pipelined vs serial at 8 threads: {speedup:.2}x (gate bar {GATE_BAR}x)");
    write_json(
        "BENCH_serve.json",
        ops_per_thread,
        &series,
        &latency,
        speedup,
    );
    println!("wrote BENCH_serve.json");

    if gate && speedup < GATE_BAR {
        eprintln!("GATE FAIL: pipelined speedup {speedup:.2}x < {GATE_BAR}x");
        std::process::exit(1);
    }
}
