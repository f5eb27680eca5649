//! The serving layer under the CRL-H checker: a traced AtomFS served
//! over TCP, stormed by dozens of pipelined client connections — with
//! abrupt disconnects that leave descriptors open and files unlinked
//! while other connections still hold descriptors on them — must yield
//! a stamped trace the full checker (helpers + roll-back relation + all
//! invariants) replays cleanly. This is the end-to-end claim of the
//! serving layer: network framing, per-connection execution,
//! backpressure, and disconnect teardown add *no* new interleavings the
//! specification cannot explain.

use std::sync::Arc;

use atomfs::AtomFs;
use atomfs_obs::Registry;
use atomfs_server::{serve, RemoteFs, RpcClient, ServerConfig, FLAG_READ, FLAG_WRITE};
use atomfs_trace::{ShardedSink, TraceSink};
use atomfs_vfs::FileSystem;
use atomfs_workloads::storm::{run_storm, storm_setup, StormConfig};
use crlh::{CheckerConfig, HelperMode, LpChecker, RelationCadence};

#[test]
fn client_storm_trace_passes_full_checker() {
    let sink = Arc::new(ShardedSink::new());
    let fs = Arc::new(AtomFs::traced(sink.clone() as Arc<dyn TraceSink>));
    let registry = Arc::new(Registry::new());
    let srv = serve(fs, Some(Arc::clone(&registry)), ServerConfig::default()).expect("bind");
    let addr = srv.local_addr();

    let cfg = StormConfig {
        conns: 48,
        threads: 8,
        ops_per_conn: 120,
        drop_every: 5,
        ..StormConfig::default()
    };
    storm_setup(addr, &cfg).unwrap();
    let stats = run_storm(addr, &registry, cfg);
    assert_eq!(stats.conns, 48);
    assert!(stats.ops > 3000, "storm ran {} ops", stats.ops);
    assert!(
        stats.dropped_conns >= 8,
        "only {} drops",
        stats.dropped_conns
    );

    // Unlink-while-open across a dropped connection: one connection
    // opens and then vanishes; a second unlinks the file while the
    // server-side descriptor still exists; teardown must reap it.
    let victim = Arc::new(RpcClient::connect(addr).unwrap());
    RemoteFs::new(Arc::clone(&victim)).mknod("/doomed").unwrap();
    let _fd = victim.open("/doomed", FLAG_READ | FLAG_WRITE).unwrap();
    let other = Arc::new(RpcClient::connect(addr).unwrap());
    RemoteFs::new(Arc::clone(&other)).unlink("/doomed").unwrap();
    victim.abort();
    drop(other);

    // Server shutdown drains every admitted request and tears down every
    // connection, so the sink is quiescent after this returns.
    let srv_stats = srv.shutdown();
    assert_eq!(
        srv_stats.conns_opened, srv_stats.conns_closed,
        "every accepted connection must be torn down"
    );
    assert!(
        srv_stats.fds_closed_on_teardown > stats.fds_left_open,
        "teardown closed {} descriptors, storm leaked {} (+1 victim)",
        srv_stats.fds_closed_on_teardown,
        stats.fds_left_open
    );
    assert_eq!(srv_stats.worker_panics, 0);
    assert_eq!(srv_stats.malformed, 0);

    // Client-observed latency was metered: the shared histograms hold a
    // sample for every metered storm op that crossed the wire.
    let prom = registry.render_prometheus();
    assert!(prom.contains("fs_op_ns"), "metered series missing");
    assert!(prom.contains("rpc_requests_total"));

    // The merged stamp order is a legal total order of atomic steps
    // under the strongest checker configuration.
    let stamped = sink.take_stamped();
    assert!(
        stamped.windows(2).all(|w| w[0].0 < w[1].0),
        "merged stamps must strictly increase"
    );
    let report = LpChecker::check_stamped(
        CheckerConfig {
            mode: HelperMode::Helpers,
            relation: RelationCadence::AtUnlock,
            invariants: true,
        },
        &stamped,
    );
    report.assert_ok();
    assert!(
        report.stats.ops_completed >= stats.ops / 2,
        "checker replayed {} ops of {} sent",
        report.stats.ops_completed,
        stats.ops
    );
}
