//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! atomfs-benchmark --workload W --seed N --seconds S --trace 0|1 [--out-dir D]
//! atomfs-benchmark [--seed N] [--seconds S] [--out-dir D]     all workloads, then the traced runs
//! atomfs-benchmark compare A.json B.json
//! atomfs-benchmark spec                                       print BENCHMARK.json
//! atomfs-benchmark describe                                   print the metric tables as markdown
//! ```
//!
//! A single run prints every metric by name with its unit and, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod exec;
mod gen;
mod json;
mod ladder;
mod rounds;
mod span;
mod spec;
mod stats;
mod suite;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use rounds::{Env, Mode, Round, Sizes};
use spec::{Workload, END_TO_END, PER_LAYER};

/// Measured rounds a run never goes below, whatever `--seconds` says.
const MIN_ROUNDS: usize = 5;
/// Ops per client thread a traced round is capped at: a span per op is
/// held in memory until the round ends.
const TRACED_OPS_CAP: u64 = 64 * 2400;
/// Lines kept per span file.
const SPAN_FILE_CAP: usize = 200_000;

pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => suite::compare(&argv[1..]),
        Some("describe") => {
            suite::describe();
            Ok(true)
        }
        Some("spec") => {
            print!("{}", suite::benchmark_json().render_pretty());
            Ok(true)
        }
        _ => parse_args(&argv).and_then(|args| {
            std::fs::create_dir_all(&args.out_dir)
                .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
            match args.workload {
                None => suite::run_all(&args),
                Some(w) if args.trace => traced_run(&args, w),
                Some(w) => measured_run(&args, w),
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("atomfs-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// What the numbers were taken with; stamped into every result so a run
/// against the published `parking_lot` is never mistaken for one of these.
fn stamp(args: &Args, workload: Workload) -> Vec<(&'static str, Json)> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("clients", Json::Num(gen::CLIENTS as f64)),
        ("host_parallelism", Json::Num(cores as f64)),
        (
            "load",
            Json::str("closed loop, one request (or one 64-op window) in flight per client"),
        ),
        ("build", Json::str("cargo-offline+shims")),
        (
            "shims",
            Json::str(format!(
                "parking_lot {} serde 1.99.0 bytes 1.99.0",
                parking_lot::SHIM_VERSION
            )),
        ),
    ]
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

/// `{"value": v, "unit": u}` for the result line.
fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", num(value)), ("unit", Json::str(unit))])
}

/// Median, quartiles, count and the values themselves of one metric over
/// the rounds of a run (at least [`MIN_ROUNDS`] of them).
fn over_rounds(values: &[f64], unit: &str) -> Json {
    let (q1, q3) = stats::quartiles(values);
    Json::obj([
        ("value", num(stats::median(values))),
        ("unit", Json::str(unit)),
        ("q1", num(q1)),
        ("q3", num(q3)),
        ("n", num(values.len() as f64)),
        (
            "rounds",
            Json::Arr(values.iter().map(|v| num(*v)).collect()),
        ),
    ])
}

/// Print the result line the driver reads and return whether the run was correct.
fn finish(
    args: &Args,
    workload: Workload,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, Json)>,
    mut detail: Vec<(&'static str, Json)>,
) -> Result<bool, String> {
    for (name, m) in &metrics {
        let value = m.get("value").and_then(Json::as_f64).expect("metric value");
        println!(
            "{name:<40} {value:>16.4} {}",
            m.get("unit").and_then(Json::as_str).expect("metric unit")
        );
    }
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(k, v)| {
                (
                    *k,
                    Json::obj([
                        ("value", v.get("value").expect("value").clone()),
                        ("unit", v.get("unit").expect("unit").clone()),
                    ]),
                )
            })),
        ),
    ]);
    let mut file = stamp(args, workload);
    file.push(("correct", Json::Bool(correct)));
    file.push(("attempted", num(attempted as f64)));
    file.push(("failed", num(failed as f64)));
    file.push(("failed_share", num(failed as f64 / attempted.max(1) as f64)));
    file.push((
        if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        },
        Json::obj(metrics),
    ));
    file.append(&mut detail);
    let path = args.out_dir.join(format!(
        "run_{}_trace{}.json",
        workload.name(),
        args.trace as u8
    ));
    std::fs::write(&path, Json::obj(file).render_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", line.render());
    Ok(correct)
}

fn report_complaints(round: &Round, what: &str) {
    for c in &round.complaints {
        eprintln!("{what}: {c}");
    }
}

/// `--trace 0`: a discarded warm-up round, then measured rounds (fresh
/// stack, fixed op count, output check) repeated for `--seconds`.
fn measured_run(args: &Args, workload: Workload) -> Result<bool, String> {
    let env = Env::new(workload, args.seed);
    let (warmup, _) = rounds::run_round(
        &env,
        Mode {
            traced: false,
            crash_recover: true,
        },
    );
    report_complaints(&warmup, "warm-up round");
    let mut correct = warmup.check_ok;
    let (mut attempted, mut failed) = (warmup.attempted, warmup.failed);
    let mut measured = Vec::new();
    let began = Instant::now();
    while measured.len() < MIN_ROUNDS || began.elapsed().as_secs_f64() < args.seconds {
        let (round, _) = rounds::run_round(
            &env,
            Mode {
                traced: false,
                crash_recover: false,
            },
        );
        report_complaints(&round, &format!("round {}", measured.len() + 1));
        correct &= round.check_ok;
        attempted += round.attempted;
        failed += round.failed;
        measured.push(round);
    }
    let column = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { measured.iter().map(f).collect() };
    let mut metrics = Vec::new();
    for m in END_TO_END {
        let value = match m.name {
            "setup_s" => over_rounds(&column(&|r| r.setup_s), m.unit),
            "ops_per_s" => over_rounds(&column(&|r| r.ops_per_s()), m.unit),
            "op_p50_us" => over_rounds(&column(&|r| r.p50_us()), m.unit),
            "op_p99_us" => {
                let p99: Option<Vec<f64>> = measured.iter().map(Round::p99_us).collect();
                over_rounds(
                    &p99.ok_or("too few latency samples in a round for a p99")?,
                    m.unit,
                )
            }
            "peak_rss_mb" => over_rounds(&column(&|r| r.peak_rss_mb), m.unit),
            other => unreachable!("no measurement for end-to-end metric {other}"),
        };
        metrics.push((m.name, value));
    }
    // Diagnostics that ride along in the result file, not in the contract.
    let samples: usize = measured.iter().map(|r| r.lat_ns.len()).sum();
    let mut detail = vec![
        ("rounds", num(measured.len() as f64)),
        ("ops_per_round", num(measured[0].ops as f64)),
        ("latency_samples", num(samples as f64)),
        ("round_wall_s", over_rounds(&column(&|r| r.wall_s), "s")),
    ];
    if measured.iter().all(|r| !r.sync_ns.is_empty()) {
        let p50 = column(&|r| stats::quantile_sorted(&r.sync_ns, 0.5) as f64 / 1e3);
        detail.push(("sync_p50_us", over_rounds(&p50, "us")));
    }
    if let Some(recover_s) = warmup.extra.get("journal.recover_s") {
        detail.push(("recover_s", num(*recover_s)));
    }
    finish(
        args,
        workload,
        correct && failed == 0,
        attempted,
        failed,
        metrics,
        detail,
    )
}

fn shrunk(w: Workload) -> Sizes {
    let s = w.sizes();
    Sizes {
        ops: s.ops.min(TRACED_OPS_CAP),
        ..s
    }
}

/// `--trace 1`: the ladder and direct calls, one traced round of every
/// workload (each per-layer metric has one fixed source, so every traced
/// run reports them all), and untraced twins of the named workload for
/// the tracing overhead.
fn traced_run(args: &Args, named: Workload) -> Result<bool, String> {
    let ladder = ladder::run(args.seed);
    let mut values: BTreeMap<&'static str, f64> = ladder.metrics;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut shares = Vec::new();
    let mut take = |round: &Round, what: &str, correct: &mut bool| {
        report_complaints(round, what);
        *correct &= round.check_ok;
        attempted += round.attempted;
        failed += round.failed;
    };

    for w in Workload::ALL {
        let env = Env::with_sizes(w, args.seed, shrunk(w));
        let (traced, spans) = rounds::run_round(
            &env,
            Mode {
                traced: true,
                crash_recover: true,
            },
        );
        take(&traced, &format!("traced {}", w.name()), &mut correct);
        let x = |key: &str| traced.extra.get(key).copied().unwrap_or(0.0);
        let ops = traced.attempted as f64;
        let client_busy = x("client_busy_ns");

        // The same streams on the bare engine: what core alone costs.
        let bare_busy = if matches!(w, Workload::LocalMeta | Workload::RpcPipelinedRead) {
            0.0
        } else {
            let bare = rounds::bare_round(&env);
            take(&bare, &format!("bare twin of {}", w.name()), &mut correct);
            bare.extra["client_busy_ns"]
        };
        let share = |pairs: &[(&'static str, f64)]| -> Json {
            let total: f64 = pairs.iter().map(|p| p.1.max(0.0)).sum();
            Json::obj(
                pairs
                    .iter()
                    .map(|(k, v)| (*k, num(100.0 * v.max(0.0) / total.max(1.0)))),
            )
        };
        match w {
            Workload::LocalMeta => shares.push((w.name(), share(&[("core", client_busy)]))),
            Workload::LocalWriteSync => {
                let syncs = traced.sync_ns.len().max(1) as f64;
                values.insert(
                    "journal.sync_p50_us",
                    stats::quantile_sorted(&traced.sync_ns, 0.5) as f64 / 1e3,
                );
                let p99 = stats::tail_quantile_sorted(&traced.sync_ns, 0.99)
                    .ok_or("too few syncs in the traced round for a p99")?;
                values.insert("journal.sync_p99_us", p99 as f64 / 1e3);
                values.insert(
                    "journal.sync_busy_ns_per_sync",
                    traced.sync_ns.iter().sum::<u64>() as f64 / syncs,
                );
                for name in [
                    "journal.device_writes_per_sync",
                    "journal.device_flushes_per_sync",
                    "journal.device_busy_ns_per_op",
                    "journal.log_bytes_per_user_byte",
                    "journal.recover_s",
                    "journal.recover_ns_per_record",
                ] {
                    values.insert(name, x(name));
                }
                shares.push((
                    w.name(),
                    share(&[("core", bare_busy), ("journal", client_busy - bare_busy)]),
                ));
            }
            Workload::LocalRenameChecked => {
                values.insert("trace.record_busy_ns_per_op", x("record_busy_ns_per_op"));
                values.insert("crlh.pump_events_per_s", x("pump_events_per_s"));
                values.insert("crlh.throttle_wait_share", x("throttle_wait_share"));
                values.insert("crlh.backlog_max_events", x("backlog_max_events"));
                values.insert("crlh.retained_max", x("retained_max"));
                values.insert("core.opt_retries_per_claim", x("opt_retries_per_claim"));
                // CPU view: the checker runs beside the clients, so shares
                // are of processor time, not of one thread's wall time.
                let op_time = client_busy * (1.0 - x("throttle_wait_share"));
                let checker = x("events") * values["crlh.check_ns_per_event"];
                shares.push((
                    w.name(),
                    share(&[
                        ("core", bare_busy),
                        ("trace", op_time - bare_busy),
                        ("crlh", checker),
                    ]),
                ));
            }
            Workload::RpcSerialMixed => {
                let client_total = x("client_total_ns");
                values.insert("server.execute_ns_per_op", x("execute_total_ns") / ops);
                values.insert(
                    "server.overhead_ns_per_op",
                    (client_total - x("execute_total_ns")) / ops,
                );
                values.insert(
                    "server.sync_rtt_p50_us",
                    stats::quantile_sorted(&traced.sync_ns, 0.5) as f64 / 1e3,
                );
                let execute = x("execute_total_ns");
                shares.push((
                    w.name(),
                    share(&[
                        ("core", bare_busy),
                        ("journal", execute - bare_busy),
                        ("server", client_total - execute),
                    ]),
                ));
            }
            Workload::RpcPipelinedRead => {
                values.insert("server.replies_per_flush", x("replies_per_flush"));
                let execute = x("execute_total_ns");
                shares.push((
                    w.name(),
                    share(&[("core", execute), ("server", client_busy - execute)]),
                ));
            }
        }

        if w == named {
            // Untraced / traced / untraced: the traced round above sits
            // between two twins at the same size.
            let twins: Vec<f64> = (0..2)
                .map(|_| {
                    let (plain, _) = rounds::run_round(
                        &env,
                        Mode {
                            traced: false,
                            crash_recover: false,
                        },
                    );
                    take(
                        &plain,
                        &format!("untraced twin of {}", w.name()),
                        &mut correct,
                    );
                    plain.ops_per_s()
                })
                .collect();
            values.insert(
                "bench.trace_overhead_pct",
                100.0 * (1.0 - traced.ops_per_s() / stats::median(&twins)),
            );
            let path = args.out_dir.join(format!("trace_{}.jsonl", w.name()));
            span::write_jsonl(&path, &spans, SPAN_FILE_CAP)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }

    let mut metrics = Vec::new();
    for m in PER_LAYER {
        let value = *values
            .get(m.name)
            .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("per-layer metric {} is {value}", m.name));
        }
        metrics.push((m.name, metric(value, m.unit)));
    }
    let detail = vec![
        (
            "ladder_ns_per_op",
            Json::obj(ladder.rungs.iter().map(|(k, v)| (*k, num(*v)))),
        ),
        ("ladder_mean_window", num(ladder.mean_window)),
        ("traced_round_ops_cap", num(TRACED_OPS_CAP as f64)),
        ("layer_share_pct", Json::obj(shares)),
    ];
    finish(
        args,
        named,
        correct && failed == 0,
        attempted,
        failed,
        metrics,
        detail,
    )
}
