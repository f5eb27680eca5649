//! The measurement machinery the bench binaries share: the thread-CPU
//! clock, the ABBA paired-round comparison behind the two overhead gates,
//! best-of-N timing, trace-to-plan capture for the simulated-core
//! figures, the `BENCH_*.json` writer and the command-line split.
//!
//! Each binary keeps only its workload, its constants and its gate.

use std::fmt::Display;
use std::str::FromStr;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use atomfs::{AtomFs, AtomFsConfig};
use atomfs_locksim::{plan_from_scripts, CostModel, ScriptConverter, ThreadPlan};
use atomfs_obs::json_escape;
use atomfs_trace::{BufferSink, TraceSink};
use atomfs_workloads::opmix::OpMix;

use crate::report::Table;

/// CPU time consumed by the calling thread, in nanoseconds.
///
/// The single-thread gates time rounds in *thread CPU time*, not wall
/// time: on a shared 1-core host, wall time charges the benchmark for
/// every interval the scheduler hands to someone else (cgroup throttling,
/// sibling processes) — stalls of 10%+ that swamp the few-percent effect
/// being measured. CPU time only advances while this thread is actually
/// running, which is the quantity the instrumentation can change.
#[cfg(target_os = "linux")]
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this builds for), and the clock
    // id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Portable fallback: wall clock (noisier, but the bench still runs).
#[cfg(not(target_os = "linux"))]
fn thread_cpu_ns() -> u64 {
    use std::time::UNIX_EPOCH;
    UNIX_EPOCH.elapsed().map_or(0, |d| d.as_nanos() as u64)
}

/// Time one round of `threads` workers each running `work(t)`, in ns:
/// thread CPU time of the calling thread for a single worker, wall time
/// from a common start to the last join otherwise (where cross-thread
/// blocking is part of what is measured).
fn time_threads(threads: usize, work: impl Fn(usize) + Sync) -> u64 {
    if threads == 1 {
        let start = thread_cpu_ns();
        work(0);
        return thread_cpu_ns() - start;
    }
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (barrier, work) = (&barrier, &work);
                s.spawn(move || {
                    barrier.wait();
                    work(t);
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for h in handles {
            h.join().expect("bench worker panicked");
        }
        start.elapsed().as_nanos() as u64
    })
}

/// Median of `xs` (the upper middle for an even count).
pub(crate) fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The largest of `reps` results of `f` — for throughputs, where host
/// interference and warm-up only ever make a run slower.
pub fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::MIN, f64::max)
}

/// One ABBA round of a [`compare`]: the mean time of each side, and the
/// paired instrumented/stripped ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Paired {
    base_ns: f64,
    instr_ns: f64,
    ratio: f64,
}

/// Admission tolerance of a [`compare`] round at `threads` threads. The
/// gated single-thread compare uses a tight 1.5% (a round admitted at 5%
/// can still carry more noise than the effect being measured); the
/// ungated multi-thread compare, whose rounds are scheduler-dependent by
/// nature, uses 5%.
fn admission_tol(threads: usize) -> f64 {
    if threads == 1 {
        1.015
    } else {
        1.05
    }
}

/// Two timings of the *same* configuration agree within `tol` (e.g.
/// 1.015 = 1.5%) — the round was undisturbed by the host.
fn steady(x: u64, y: u64, tol: f64) -> bool {
    (x.max(y) as f64) < tol * (x.min(y).max(1) as f64)
}

/// Compare stripped vs. instrumented over `rounds` ABBA rounds;
/// `time(instrumented, attempt)` times one side once, in ns.
///
/// Each round times stripped-instrumented-instrumented-stripped
/// back-to-back (cancelling linear drift in host speed within the round)
/// and yields one paired ratio; the result is the round with the
/// **median** ratio over the *admitted* rounds, so its per-side times
/// and its ratio come from the same round. On a shared/virtualized host,
/// steal time can stall any single timing by 10%+ — far more than the
/// effect being measured — so a round is admitted only if it is
/// self-consistent: its two stripped halves and its two instrumented
/// halves each agree within `tol` (the same code run twice can only
/// disagree if the host interfered). Disturbed rounds (printed as `x`)
/// are retried, up to 8x`rounds` attempts; if fewer than 3 clean rounds
/// exist the median falls back to all attempts.
fn compare(rounds: usize, tol: f64, mut time: impl FnMut(bool, u64) -> u64) -> Paired {
    assert!(rounds > 0, "compare needs at least one round");
    let mut clean = Vec::with_capacity(rounds);
    let mut all = Vec::new();
    while clean.len() < rounds && all.len() < rounds * 8 {
        let attempt = all.len() as u64;
        let a1 = time(false, attempt);
        let b1 = time(true, attempt);
        let b2 = time(true, attempt);
        let a2 = time(false, attempt);
        let round = Paired {
            base_ns: (a1 + a2) as f64 / 2.0,
            instr_ns: (b1 + b2) as f64 / 2.0,
            ratio: (b1 + b2) as f64 / (a1 + a2) as f64,
        };
        all.push(round);
        if steady(a1, a2, tol) && steady(b1, b2, tol) {
            clean.push(round);
            eprint!(" {:+.2}%", (round.ratio - 1.0) * 100.0);
        } else {
            eprint!(" x");
        }
    }
    eprintln!();
    let mut admitted = if clean.len() >= 3 { clean } else { all };
    admitted.sort_by(|x, y| x.ratio.total_cmp(&y.ratio));
    admitted[admitted.len() / 2]
}

/// Run an observability overhead gate: an ABBA `compare` at 1 and 8
/// threads of `ops` contended [`OpMix`] operations per thread, each side
/// timed on a fresh `build(instrumented)` instance (setup excluded from
/// timing). Prints the table and the verdict, appends `threshold_pct`,
/// `pass` and the per-thread `series` to `json`, and writes it as
/// `BENCH_<file>.json`. Only the single-thread ratio is gated: it
/// maximizes the relative weight of the instrumentation (no lock waits to
/// hide behind) and is not subject to scheduler noise. Returns whether
/// the gate passed.
pub fn overhead_gate(
    file: &str,
    json: Json,
    ops: usize,
    rounds: usize,
    threshold_pct: f64,
    build: impl Fn(bool) -> AtomFs,
) -> bool {
    // More names than the checker-stress default: moderate contention,
    // so single-thread rounds still exercise create/remove/rename paths.
    let mix = OpMix {
        dirs: 4,
        names: 8,
        rename_weight: 3,
    };
    let pct = |p: &Paired| (p.ratio - 1.0) * 100.0;
    let rows: Vec<(usize, Paired)> = [1usize, 8]
        .into_iter()
        .map(|threads| {
            let total_ops = (ops * threads) as f64;
            let p = compare(rounds, admission_tol(threads), |instr, attempt| {
                let fs = build(instr);
                mix.setup(&fs);
                let seed = 42 + attempt;
                time_threads(threads, |t| {
                    mix.run(&fs, seed ^ ((t as u64) << 32), ops);
                })
            });
            let per_op = Paired {
                base_ns: p.base_ns / total_ops,
                instr_ns: p.instr_ns / total_ops,
                ..p
            };
            (threads, per_op)
        })
        .collect();
    eprintln!();
    let mut table = Table::new(&[
        "threads",
        "stripped ns/op",
        "instrumented ns/op",
        "overhead",
    ]);
    for (threads, p) in &rows {
        table.row(vec![
            threads.to_string(),
            format!("{:.0}", p.base_ns),
            format!("{:.0}", p.instr_ns),
            format!("{:+.2}%", pct(p)),
        ]);
    }
    table.print();
    let gated = pct(&rows[0].1);
    let pass = gated <= threshold_pct;
    json.num("threshold_pct", threshold_pct)
        .num("pass", pass)
        .list(
            "series",
            rows.iter().map(|(threads, p)| {
                Json::new()
                    .num("threads", threads)
                    .fixed("stripped_ns_per_op", p.base_ns, 1)
                    .fixed("instrumented_ns_per_op", p.instr_ns, 1)
                    .fixed("overhead_pct", pct(p), 2)
                    .num("gated", *threads == 1)
            }),
        )
        .write(file);
    println!(
        "gate (1 thread): {gated:+.2}% vs threshold {threshold_pct}% -> {}",
        if pass { "PASS" } else { "FAIL" }
    );
    pass
}

/// Capture `threads` virtual workers' operation streams on a traced
/// AtomFS (optimistic walk on or off) and convert each into a simulator
/// plan under `model`. `setup` builds the tree (its events are dropped);
/// `run_thread(fs, t)` runs worker `t`, whose events become plan `t`.
pub fn trace_plans(
    threads: usize,
    optimistic: bool,
    model: CostModel,
    setup: impl FnOnce(&AtomFs),
    mut run_thread: impl FnMut(&AtomFs, usize),
) -> Vec<ThreadPlan> {
    let sink = Arc::new(BufferSink::new());
    let fs = AtomFs::traced_with_config(
        sink.clone() as Arc<dyn TraceSink>,
        AtomFsConfig {
            optimistic,
            ..AtomFsConfig::default()
        },
    );
    setup(&fs);
    sink.take();
    let mut converter = ScriptConverter::new(model);
    (0..threads)
        .map(|t| {
            run_thread(&fs, t);
            plan_from_scripts(&converter.convert(&sink.take()))
        })
        .collect()
}

/// The host's available parallelism, recorded next to any result that
/// depends on threads.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A JSON object under construction: each field is rendered when added,
/// and fields keep insertion order.
#[derive(Debug, Default)]
pub struct Json {
    fields: Vec<String>,
}

impl Json {
    pub fn new() -> Self {
        Self::default()
    }

    /// A value whose `Display` form is already JSON: an integer, a bool,
    /// or a float printed in full.
    pub fn num(mut self, key: &str, v: impl Display) -> Self {
        self.fields.push(format!("\"{}\": {v}", json_escape(key)));
        self
    }

    /// A float with `digits` decimals, or `null` if it is not finite.
    pub fn fixed(self, key: &str, v: f64, digits: usize) -> Self {
        if v.is_finite() {
            self.num(key, format_args!("{v:.digits$}"))
        } else {
            self.num(key, "null")
        }
    }

    /// A string, escaped.
    pub fn str(self, key: &str, v: &str) -> Self {
        self.num(key, format_args!("\"{}\"", json_escape(v)))
    }

    /// A nested object, on one line.
    pub fn obj(self, key: &str, v: Json) -> Self {
        self.num(key, v.inline())
    }

    /// A list of objects, one per line (laid out for the top level).
    pub fn list(self, key: &str, items: impl IntoIterator<Item = Json>) -> Self {
        let items: Vec<String> = items.into_iter().map(|j| j.inline()).collect();
        self.num(key, format_args!("[\n    {}\n  ]", items.join(",\n    ")))
    }

    fn inline(&self) -> String {
        format!("{{{}}}", self.fields.join(", "))
    }

    /// The object with one field per line, as written to disk.
    pub fn render(&self) -> String {
        format!("{{\n  {}\n}}\n", self.fields.join(",\n  "))
    }

    /// Write the object to `BENCH_<name>.json` in the current directory,
    /// and append it as one dated row to [`HISTORY`] there.
    pub fn write(&self, name: &str) {
        let path = format!("BENCH_{name}.json");
        std::fs::write(&path, self.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
        let bin = std::env::args()
            .next()
            .and_then(|a| Some(std::path::Path::new(&a).file_name()?.to_str()?.to_owned()))
            .unwrap_or_else(|| name.to_owned());
        let unix_s = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let row = self.history_row(&bin, unix_s, &git_rev());
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(HISTORY)
            .and_then(|mut f| std::io::Write::write_all(&mut f, row.as_bytes()))
            .unwrap_or_else(|e| panic!("append {HISTORY}: {e}"));
        println!("appended to {HISTORY}");
    }

    /// One [`HISTORY`] line: which bin, when, at which commit, and the
    /// object as [`Json::render`] lays it out, folded onto the line.
    fn history_row(&self, bin: &str, unix_s: u64, rev: &str) -> String {
        // Every newline in a rendered object is layout: string values
        // are escaped, so folding the lines keeps the JSON the same.
        let result: String = self.render().lines().map(str::trim).collect();
        let row = Json::new()
            .str("bin", bin)
            .num("unix_s", unix_s)
            .str("rev", rev)
            .num("result", result);
        row.inline() + "\n"
    }
}

/// Every `BENCH_*.json` written is also appended here, one row per run.
pub const HISTORY: &str = "BENCH_history.jsonl";

/// `git rev-parse --short HEAD`, with `-dirty` if tracked files differ
/// from it, or `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = |args: &[&str]| std::process::Command::new("git").args(args).output().ok();
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(out) if out.status.success() => {
            let rev = String::from_utf8_lossy(&out.stdout).trim().to_owned();
            let clean = git(&["diff", "--quiet", "HEAD"]).is_none_or(|o| o.status.success());
            if clean {
                rev
            } else {
                rev + "-dirty"
            }
        }
        _ => "unknown".to_owned(),
    }
}

/// A bench binary's command line: `--gate` (accepted anywhere), any
/// other `--` flags, and the positional arguments in order.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    pub gate: bool,
    pub flags: Vec<String>,
    pub positional: Vec<String>,
}

impl FromIterator<String> for Args {
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut args = Args::default();
        for a in iter {
            if a == "--gate" {
                args.gate = true;
            } else if a.starts_with("--") {
                args.flags.push(a);
            } else {
                args.positional.push(a);
            }
        }
        args
    }
}

impl Args {
    /// The process's arguments, program name excluded.
    pub fn parse() -> Self {
        std::env::args().skip(1).collect()
    }

    /// Whether flag `name` (e.g. `--measured`) was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Positional argument `i` parsed, or `default` when absent; panics
    /// naming `what` on a value that does not parse.
    pub fn get<T: FromStr>(&self, i: usize, what: &str, default: T) -> T {
        self.positional.get(i).map_or(default, |s| {
            s.parse().unwrap_or_else(|_| panic!("bad {what}: {s:?}"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A timing closure that replays `script`, one ABBA round (stripped,
    /// instrumented, instrumented, stripped) per entry, and checks that
    /// `compare` asks for the sides in that order.
    fn scripted(script: Vec<[u64; 4]>) -> impl FnMut(bool, u64) -> u64 {
        let mut calls = 0usize;
        move |instr, attempt| {
            let (round, slot) = (calls / 4, calls % 4);
            calls += 1;
            assert_eq!(attempt, round as u64, "attempt numbers its round");
            assert_eq!(instr, slot == 1 || slot == 2, "ABBA order");
            script[round][slot]
        }
    }

    #[test]
    fn compare_takes_the_median_admitted_round() {
        let script = vec![
            [100, 110, 110, 100],
            [100, 102, 102, 100],
            [200, 210, 210, 200],
        ];
        let p = compare(3, 1.015, scripted(script));
        assert_eq!(p.ratio, 1.05);
        // The columns come from the median round itself, not from
        // independent medians of each column (which would read 100/110).
        assert_eq!((p.base_ns, p.instr_ns), (200.0, 210.0));
    }

    #[test]
    fn compare_retries_a_disturbed_round() {
        // Round 1's stripped halves disagree by 20%: it is retried and
        // its 2.0 ratio never reaches the median.
        let script = vec![
            [100, 101, 101, 100],
            [100, 240, 240, 120],
            [100, 103, 103, 100],
            [100, 102, 102, 100],
        ];
        let p = compare(3, 1.015, scripted(script));
        assert_eq!(p.ratio, 1.02);
    }

    #[test]
    fn compare_caps_retries_and_falls_back_to_all_attempts() {
        // One clean round, then disturbed ones forever: 8x`rounds`
        // attempts, and with fewer than 3 clean rounds the median is
        // taken over every attempt.
        let mut script = vec![[100, 101, 101, 100]];
        script.extend((0..100).map(|_| [100, 300, 300, 150]));
        let mut calls = 0;
        let mut time = scripted(script);
        let p = compare(2, 1.015, |i, a| {
            calls += 1;
            time(i, a)
        });
        assert_eq!(calls, 4 * 16);
        assert_eq!(p.ratio, 600.0 / 250.0);
        assert_eq!((p.base_ns, p.instr_ns), (125.0, 300.0));
    }

    #[test]
    fn compare_tolerance_decides_admission() {
        let script = vec![[100, 100, 103, 100]; 3];
        // 3% between instrumented halves: out at 1.5%, in at 5%.
        let mut calls = 0;
        let mut time = scripted(script.clone().into_iter().cycle().take(24).collect());
        compare(3, 1.015, |i, a| {
            calls += 1;
            time(i, a)
        });
        assert_eq!(calls, 4 * 24);
        let mut calls = 0;
        let mut time = scripted(script);
        compare(3, admission_tol(8), |i, a| {
            calls += 1;
            time(i, a)
        });
        assert_eq!(calls, 4 * 3);
    }

    #[test]
    fn best_of_keeps_the_largest() {
        let mut runs = [3.0, 9.0, 5.0].into_iter();
        let mut calls = 0;
        let best = best_of(3, || {
            calls += 1;
            runs.next().unwrap()
        });
        assert_eq!((best, calls), (9.0, 3));
    }

    #[test]
    fn median_picks_the_middle() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn time_threads_runs_each_worker_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1, 4] {
            let seen = AtomicUsize::new(0);
            time_threads(threads, |t| {
                seen.fetch_add(1 << t, Ordering::SeqCst);
            });
            assert_eq!(seen.into_inner(), (1 << threads) - 1);
        }
    }

    #[test]
    fn trace_plans_drops_setup_and_splits_workers() {
        use atomfs_vfs::FileSystem;
        let plans = trace_plans(
            3,
            true,
            CostModel::atomfs_fuse(),
            |fs| (0..5).for_each(|i| fs.mkdir(&format!("/s{i}")).unwrap()),
            |fs, t| (0..=t).for_each(|i| fs.mkdir(&format!("/w{t}_{i}")).unwrap()),
        );
        let ops: Vec<u64> = plans.iter().map(|p| p.ops).collect();
        assert_eq!(ops, [1, 2, 3]);
    }

    #[test]
    fn json_shape_and_escaping() {
        let j = Json::new()
            .str("bench", "a\"b\\c\n")
            .num("n", 3)
            .fixed("x", 1.23456, 2)
            .fixed("bad", f64::NAN, 2)
            .obj("gate", Json::new().num("pass", true).str("m", "t\tab"))
            .list("series", [Json::new().num("t", 1), Json::new().num("t", 8)]);
        assert_eq!(
            j.render(),
            "{\n  \"bench\": \"a\\\"b\\\\c\\n\",\n  \"n\": 3,\n  \"x\": 1.23,\n  \
             \"bad\": null,\n  \"gate\": {\"pass\": true, \"m\": \"t\\tab\"},\n  \
             \"series\": [\n    {\"t\": 1},\n    {\"t\": 8}\n  ]\n}\n"
        );
    }

    #[test]
    fn history_row_is_one_line_of_the_same_object() {
        let j = Json::new()
            .str("bench", "x\ny")
            .obj("gate", Json::new().num("pass", true))
            .list("series", [Json::new().num("t", 1), Json::new().num("t", 8)]);
        assert_eq!(
            j.history_row("serve_storm", 1_700_000_000, "abc1234"),
            "{\"bin\": \"serve_storm\", \"unix_s\": 1700000000, \"rev\": \"abc1234\", \
             \"result\": {\"bench\": \"x\\ny\",\"gate\": {\"pass\": true},\
             \"series\": [{\"t\": 1},{\"t\": 8}]}}\n"
        );
    }

    #[test]
    fn args_accept_gate_anywhere() {
        let parse = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Args>();
        let expect = Args {
            gate: true,
            flags: vec![],
            positional: vec!["10".into(), "20".into()],
        };
        assert_eq!(parse(&["--gate", "10", "20"]), expect);
        assert_eq!(parse(&["10", "--gate", "20"]), expect);
        assert_eq!(parse(&["10", "20", "--gate"]), expect);
        let plain = parse(&["both", "7", "--measured"]);
        assert!(!plain.gate && plain.flag("--measured") && !plain.flag("--gate"));
        assert_eq!(plain.get(1, "iters", 200usize), 7);
        assert_eq!(plain.get(2, "extra", 5usize), 5);
    }

    #[test]
    #[should_panic(expected = "bad ops")]
    fn args_reject_a_bad_number() {
        ["x".to_string()]
            .into_iter()
            .collect::<Args>()
            .get(0, "ops", 1usize);
    }
}
