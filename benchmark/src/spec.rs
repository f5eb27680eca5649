//! Names, units and predictions: the table `BENCHMARK.json` mirrors.
//!
//! `BENCHMARK.json` has a fixed key set, so what does not fit there
//! lives here: which workload or rung each per-layer metric is taken
//! from, and which end-to-end metric on which workload it is predicted
//! to move (`moves`). A self-test pins the two files to each other.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LocalMeta,
    LocalWriteSync,
    LocalRenameChecked,
    RpcSerialMixed,
    RpcPipelinedRead,
}

use Workload::*;

impl Workload {
    pub const ALL: [Workload; 5] = [
        LocalMeta,
        LocalWriteSync,
        LocalRenameChecked,
        RpcSerialMixed,
        RpcPipelinedRead,
    ];

    pub fn name(self) -> &'static str {
        match self {
            LocalMeta => "local_meta",
            LocalWriteSync => "local_write_sync",
            LocalRenameChecked => "local_rename_checked",
            RpcSerialMixed => "rpc_serial_mixed",
            RpcPipelinedRead => "rpc_pipelined_read",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line: which layers the workload exercises and which it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            LocalMeta => "Fileserver mix on a bare in-process AtomFs: core (walk, lock coupling, dirhash, blocks) does all the work; trace, journal, server, crlh absent",
            LocalWriteSync => "write-heavy mix with sync every 16 ops on the 4-shard journal, then crash and recover: journal dominates, server absent; the write-side check on any read-path gain",
            LocalRenameChecked => "contended 3/13-rename mix on a traced AtomFs under the live checker pump, throttled on a verified window: crlh and trace dominate; the sustainable checked rate",
            RpcSerialMixed => "2 loopback connections, one request in flight each, mixed ops over the journaled server: codec, socket, executor, FdTable, core, journal all in series on every op",
            RpcPipelinedRead => "2 connections x 64-deep submit_batch windows of stat/read: server framing, executor and batched flush dominate; core under 10 %, journal/trace/crlh absent",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// Reported by every workload on a `--trace 0` run.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "stack construction + tree population + warm-up slice, until the first measured op can issue; median over rounds",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: Better::Higher,
        bound: 0.25,
        what: "attempted ops / round wall time; on local_rename_checked the clock stops at the final verdict; median over rounds",
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "client-observed latency median (every op on rpc_serial_mixed, every 16th on local_*, one 64-op window on rpc_pipelined_read); median over rounds",
    },
    EndToEnd {
        name: "op_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "99th percentile of the same samples, per round (at least ten samples lie beyond it); median over rounds",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        what: "VmHWM of the process over a round (reset before each round, one process per run); median over rounds",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Where the number is taken: a ladder rung, a direct call, or the
    /// traced run of one workload.
    pub source: &'static str,
    /// Predicted to move these (end-to-end metric, workload) pairs.
    /// Empty: diagnostic only, it is in no end-to-end metric's path.
    pub moves: &'static [(&'static str, Workload)],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: &'static str,
    moves: &'static [(&'static str, Workload)],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

use Better::{Higher, Lower};

const CORE_MOVES: &[(&str, Workload)] = &[("ops_per_s", LocalMeta), ("op_p50_us", LocalMeta)];
const TRACE_MOVES: &[(&str, Workload)] = &[
    ("ops_per_s", LocalWriteSync),
    ("ops_per_s", LocalRenameChecked),
];
const JOURNAL_MOVES: &[(&str, Workload)] = &[
    ("ops_per_s", LocalWriteSync),
    ("op_p50_us", RpcSerialMixed),
    ("op_p99_us", RpcSerialMixed),
];
const SERIAL_MOVES: &[(&str, Workload)] =
    &[("op_p50_us", RpcSerialMixed), ("ops_per_s", RpcSerialMixed)];
const PIPELINED_MOVES: &[(&str, Workload)] = &[
    ("ops_per_s", RpcPipelinedRead),
    ("op_p50_us", RpcPipelinedRead),
];
const CHECK_MOVES: &[(&str, Workload)] = &[("ops_per_s", LocalRenameChecked)];
const CHECK_MEM_MOVES: &[(&str, Workload)] = &[("peak_rss_mb", LocalRenameChecked)];

/// Reported by every `--trace 1` run. The ladder and the direct calls do
/// not depend on the named workload; the traced-run metrics always come
/// from the workload named in `source`, which every traced run re-runs.
pub const PER_LAYER: &[PerLayer] = &[
    // ---- layer ladder: the rpc_serial_mixed stream, one thread, at each boundary
    layer("core.ns_per_op", "ns", Lower, "ladder: bare AtomFs::new()", CORE_MOVES),
    layer("trace.added_ns_per_op", "ns", Lower, "ladder: + AtomFs::traced(ShardedSink)", TRACE_MOVES),
    layer("journal.added_ns_per_op", "ns", Lower, "ladder: + JournaledFs::create_sharded_observed", JOURNAL_MOVES),
    layer("vfs.metered_added_ns_per_op", "ns", Lower, "ladder: + MeteredFs", &[]),
    layer("server.serial_added_ns_per_op", "ns", Lower, "ladder: + loopback RemoteFs, one in flight", SERIAL_MOVES),
    layer("server.pipelined_added_ns_per_op", "ns", Lower, "ladder: same stack, dependency-closed submit_batch windows of up to 64", PIPELINED_MOVES),
    layer("crlh.check_ns_per_op", "ns", Lower, "ladder: StreamChecker::ingest over the local_rename_checked stream's trace (one thread, twelve names)", CHECK_MOVES),
    layer("crlh.check_ns_per_event", "ns", Lower, "ladder: same, per event", CHECK_MOVES),
    layer("crlh.check_big_tree_us_per_op", "us", Lower, "ladder: StreamChecker::ingest over 200 ops of the trace rung's capture (8192 files of 4 KiB)", &[]),
    layer("trace.events_per_op", "count", Lower, "ladder: stamps issued per op at the trace rung", TRACE_MOVES),
    layer("crlh.relation_checks_per_op", "count", Lower, "ladder: CheckerStats at the small check rung", CHECK_MOVES),
    // ---- direct calls
    layer("server.wire_encode_ns_per_frame", "ns", Lower, "direct: server::wire::encode_request_frame over the stream", SERIAL_MOVES),
    layer("server.wire_decode_ns_per_frame", "ns", Lower, "direct: server::wire::decode_request_frame over the same frames", SERIAL_MOVES),
    layer("journal.wire_encode_ns_per_record", "ns", Lower, "direct: journal::wire::encode_frame_parts, 16 micro-ops a frame", JOURNAL_MOVES),
    layer("trace.emit_ns_per_event", "ns", Lower, "direct: ShardedSink::emit of the captured events", TRACE_MOVES),
    layer("trace.cursor_ns_per_event", "ns", Lower, "direct: consuming TailCursor poll + finish over that sink", CHECK_MOVES),
    layer("vfs.fd_session_ns", "ns", Lower, "direct: FdTable open/write_at/read_at/close on a bare AtomFs", SERIAL_MOVES),
    // ---- traced run: rpc_serial_mixed
    layer("server.execute_ns_per_op", "ns", Lower, "traced rpc_serial_mixed: SpanFs around the served fs", SERIAL_MOVES),
    layer("server.overhead_ns_per_op", "ns", Lower, "traced rpc_serial_mixed: client span - execute span (codec, socket, queue, flush)", SERIAL_MOVES),
    layer("server.sync_rtt_p50_us", "us", Lower, "traced rpc_serial_mixed: sync as its remote caller sees it", SERIAL_MOVES),
    // ---- traced run: rpc_pipelined_read
    layer("server.replies_per_flush", "count", Higher, "traced rpc_pipelined_read: Server::stats replies_flushed / flush_batches", PIPELINED_MOVES),
    // ---- traced run: local_write_sync
    layer("journal.sync_p50_us", "us", Lower, "traced local_write_sync: the durability barrier as its caller sees it", JOURNAL_MOVES),
    layer("journal.sync_p99_us", "us", Lower, "traced local_write_sync", JOURNAL_MOVES),
    layer("journal.sync_busy_ns_per_sync", "ns", Lower, "traced local_write_sync: mean sync span", JOURNAL_MOVES),
    layer("journal.device_writes_per_sync", "count", Lower, "traced local_write_sync: TimedDevice", JOURNAL_MOVES),
    layer("journal.device_flushes_per_sync", "count", Lower, "traced local_write_sync: TimedDevice", JOURNAL_MOVES),
    layer("journal.device_busy_ns_per_op", "ns", Lower, "traced local_write_sync: TimedDevice busy / ops", JOURNAL_MOVES),
    layer("journal.log_bytes_per_user_byte", "ratio", Lower, "traced local_write_sync: JournaledFs::log_bytes / bytes written by ops", &[("peak_rss_mb", LocalWriteSync)]),
    layer("journal.recover_s", "s", Lower, "traced local_write_sync: recover_sharded on the crashed disk", &[]),
    layer("journal.recover_ns_per_record", "ns", Lower, "traced local_write_sync: recover wall / ops replayed", &[]),
    // ---- traced run: local_rename_checked
    layer("trace.record_busy_ns_per_op", "ns", Lower, "traced local_rename_checked: TimedSink around the ShardedSink", TRACE_MOVES),
    layer("crlh.pump_events_per_s", "1/s", Higher, "traced local_rename_checked: events checked / round wall", CHECK_MOVES),
    layer("crlh.throttle_wait_share", "ratio", Lower, "traced local_rename_checked: client time spent waiting on the verified window", CHECK_MOVES),
    layer("crlh.backlog_max_events", "count", Lower, "traced local_rename_checked: max stamps issued - events checked", CHECK_MEM_MOVES),
    layer("crlh.retained_max", "count", Lower, "traced local_rename_checked: max RetainedState total", CHECK_MEM_MOVES),
    layer("core.opt_retries_per_claim", "ratio", Lower, "traced local_rename_checked: CheckerStats opt_retries / opt_claims", CORE_MOVES),
    // ---- the named workload
    layer("bench.trace_overhead_pct", "%", Lower, "the workload named on the command line: untraced vs traced ops_per_s", &[]),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
        END_TO_END.iter().find(|m| m.name == name)
    }

    fn legal_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn legal_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_are_within_the_contract() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(legal_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (unit, name) in END_TO_END
            .iter()
            .map(|m| (m.unit, m.name))
            .chain(PER_LAYER.iter().map(|m| (m.unit, m.name)))
        {
            assert!(legal_unit(unit), "{name}: {unit}");
        }
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn every_move_names_an_end_to_end_metric() {
        for m in PER_LAYER {
            for (metric, _workload) in m.moves {
                assert!(
                    end_to_end(metric).is_some(),
                    "{} moves unknown {metric}",
                    m.name
                );
            }
            let layer = m.name.split('.').next().unwrap();
            assert!(
                ["core", "trace", "journal", "vfs", "server", "crlh", "bench"].contains(&layer),
                "{}: prefix is not a crate",
                m.name
            );
        }
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program emits. They must say the same thing.
    #[test]
    fn benchmark_json_mirrors_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 << 10);
        let doc = Json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();
        let text_of =
            |v: &Json, key: &str| v.get(key).and_then(Json::as_str).expect(key).to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let expect: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(workloads, expect);

        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
                (
                    text_of(m, "name"),
                    text_of(m, "unit"),
                    text_of(m, "better"),
                    bound,
                )
            })
            .collect();
        let expect: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, expect);

        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| {
                assert_eq!(
                    m.fields().len(),
                    3,
                    "per_layer entries have exactly name, unit, better"
                );
                (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better"))
            })
            .collect();
        let expect: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(layers, expect);

        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds");
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
        assert_eq!(list("paths"), vec![Json::str("benchmark")]);
    }
}
