//! Client-storm workload: many RPC connections hammering one server.
//!
//! Where the other workloads in this crate call a [`FileSystem`]
//! in-process, the storm goes through the serving layer: every
//! connection is an `RpcClient` wrapped in `RemoteFs` wrapped in
//! `MeteredFs`, so the `fs_op_ns{op=...}` histograms record latency *as
//! a client observes it* — wire framing, execution, and reply flushing
//! included, exactly the vantage point the paper's FUSE-mounted
//! benchmarks measure from.
//!
//! The mix is deliberately hostile to per-connection cleanup: FD
//! sessions (open / pwrite / pread / close) are interleaved with
//! path-based traffic, some files are unlinked *while a descriptor from
//! another connection is still open on them*, and every `drop_every`-th
//! connection is aborted mid-session with descriptors deliberately left
//! open — the server's disconnect teardown has to close them, and the
//! trace the checker sees must still be complete.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use atomfs_obs::{ClockSource, Registry};
use atomfs_server::{RemoteFs, RpcClient, FLAG_CREATE, FLAG_READ, FLAG_WRITE};
use atomfs_vfs::{FileSystem, MeteredFs, SplitMix64};

/// Shape of a client storm.
#[derive(Debug, Clone, Copy)]
pub struct StormConfig {
    /// Total connections to run.
    pub conns: usize,
    /// OS threads driving them (each thread runs its share serially,
    /// but all threads storm the server concurrently).
    pub threads: usize,
    /// Operations per connection.
    pub ops_per_conn: usize,
    /// Directories in the shared tree.
    pub dirs: usize,
    /// File names per directory.
    pub names: usize,
    /// Run an FD session every this many ops (0 = never).
    pub fd_session_every: usize,
    /// Abort (client crash, descriptors left open) every this many
    /// connections (0 = never).
    pub drop_every: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            conns: 64,
            threads: 8,
            ops_per_conn: 200,
            dirs: 4,
            names: 8,
            fd_session_every: 10,
            drop_every: 7,
            seed: 0x5eed,
        }
    }
}

/// What a storm did, summed over every connection.
#[derive(Debug, Default)]
pub struct StormStats {
    /// Connections fully run (including aborted ones).
    pub conns: u64,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that returned an error (expected under contention).
    pub errors: u64,
    /// Connections aborted with descriptors still open.
    pub dropped_conns: u64,
    /// Descriptors deliberately left open across aborts.
    pub fds_left_open: u64,
}

/// Create the directory skeleton and seed files through one connection.
pub fn storm_setup(addr: SocketAddr, cfg: &StormConfig) -> std::io::Result<()> {
    let client = Arc::new(RpcClient::connect(addr)?);
    let fs = RemoteFs::new(client);
    for d in 0..cfg.dirs {
        let _ = fs.mkdir(&format!("/s{d}"));
        for f in 0..cfg.names {
            let path = format!("/s{d}/f{f}");
            let _ = fs.mknod(&path);
            let _ = fs.write(&path, 0, &[d as u8; 512]);
        }
    }
    Ok(())
}

/// Run the storm against a server at `addr`. Every connection's
/// operations are metered into `registry` (shared `fs_op_ns` series), so
/// client-observed p50/p99 come straight out of a scrape or snapshot.
pub fn run_storm(addr: SocketAddr, registry: &Arc<Registry>, cfg: StormConfig) -> StormStats {
    let ops = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicU64::new(0));
    let left_open = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for t in 0..cfg.threads.max(1) {
        let registry = Arc::clone(registry);
        let ops = Arc::clone(&ops);
        let errors = Arc::clone(&errors);
        let dropped = Arc::clone(&dropped);
        let left_open = Arc::clone(&left_open);
        handles.push(std::thread::spawn(move || {
            // Thread t runs connections t, t+threads, t+2*threads, ...
            let mut c = t;
            while c < cfg.conns {
                let Ok(client) = RpcClient::connect(addr) else {
                    c += cfg.threads;
                    continue;
                };
                let client = Arc::new(client);
                let fs = MeteredFs::new(
                    RemoteFs::new(Arc::clone(&client)),
                    &registry,
                    ClockSource::monotonic(),
                );
                let abort_this = cfg.drop_every != 0 && (c + 1) % cfg.drop_every == 0;
                let mut rng = SplitMix64::new(cfg.seed ^ (c as u64) << 8);
                let mut my_ops = 0u64;
                let mut my_errs = 0u64;
                let mut open_fds: Vec<u32> = Vec::new();
                for i in 0..cfg.ops_per_conn {
                    let d = rng.random_range(0..cfg.dirs);
                    let f = rng.random_range(0..cfg.names);
                    let path = format!("/s{d}/f{f}");
                    my_ops += 1;
                    let r: Result<(), atomfs_vfs::FsError> =
                        if cfg.fd_session_every != 0 && i % cfg.fd_session_every == 0 {
                            // FD session on the raw client (descriptor ops
                            // are a server-side concept, not FileSystem).
                            client
                                .open(&path, FLAG_READ | FLAG_WRITE | FLAG_CREATE)
                                .and_then(|fd| {
                                    let keep = abort_this && rng.random_range(0..3u32) == 0;
                                    client.pwrite(fd, 0, &[i as u8; 64])?;
                                    client.pread(fd, 0, 64)?;
                                    if keep {
                                        // Deliberately leak the descriptor
                                        // into the abort: teardown must
                                        // close it.
                                        open_fds.push(fd);
                                        Ok(())
                                    } else {
                                        client.close_fd(fd)
                                    }
                                })
                        } else {
                            match rng.random_range(0..10u32) {
                                0 => fs.mknod(&format!("/s{d}/n{c}_{i}")),
                                1 => fs.unlink(&path),
                                2 => fs.rename(&path, &format!("/s{d}/f{f}r")),
                                3 => fs.readdir(&format!("/s{d}")).map(|_| ()),
                                4..=6 => fs.stat(&path).map(|_| ()),
                                7 => fs.write(&path, 0, &[i as u8; 256]).map(|_| ()),
                                _ => {
                                    let mut buf = [0u8; 256];
                                    fs.read(&path, 0, &mut buf).map(|_| ())
                                }
                            }
                        };
                    if r.is_err() {
                        my_errs += 1;
                    }
                    if abort_this && i + 1 == cfg.ops_per_conn / 2 {
                        break; // crash mid-storm
                    }
                }
                ops.fetch_add(my_ops, Ordering::Relaxed);
                errors.fetch_add(my_errs, Ordering::Relaxed);
                if abort_this {
                    dropped.fetch_add(1, Ordering::Relaxed);
                    left_open.fetch_add(open_fds.len() as u64, Ordering::Relaxed);
                    client.abort(); // hard cut: no closes, no goodbye
                } else {
                    for fd in open_fds.drain(..) {
                        let _ = client.close_fd(fd);
                    }
                }
                c += cfg.threads;
            }
        }));
    }
    for h in handles {
        h.join().expect("storm thread");
    }
    StormStats {
        conns: cfg.conns as u64,
        ops: ops.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        dropped_conns: dropped.load(Ordering::Relaxed),
        fds_left_open: left_open.load(Ordering::Relaxed),
    }
}
