//! Running every workload, comparing two result files, and printing the
//! `BENCHMARK.json` this table stands for.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::spec::{self, Better, Workload, END_TO_END, PER_LAYER};
use crate::Args;

/// The `BENCHMARK.json` the driver reads, generated so the file and the
/// program cannot drift (`spec::tests` pins the committed copy to this).
pub fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(20.0)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `describe`: the tables of `spec` as markdown, for the README.
pub fn describe() {
    println!("| workload | why |\n|---|---|");
    for w in Workload::ALL {
        println!("| `{}` | {} |", w.name(), w.why());
    }
    println!("\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|");
    for m in END_TO_END {
        println!(
            "| `{}` | {} | {} | {:.0} % | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("\n| per-layer metric | unit | better | taken from | predicted to move |\n|---|---|---|---|---|");
    for m in PER_LAYER {
        let moves: Vec<String> = m
            .moves
            .iter()
            .map(|(metric, w)| format!("`{metric}` on `{}`", w.name()))
            .collect();
        let moves = if moves.is_empty() {
            "no end-to-end metric".to_string()
        } else {
            moves.join(", ")
        };
        println!(
            "| `{}` | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.source,
            moves
        );
    }
}

/// One child process per (workload, trace): `peak_rss_mb` is then the
/// workload's own, and a crash takes down one run, not the suite.
fn child(args: &Args, workload: Workload, trace: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .status() // waits for the child to end
        .map_err(|e| format!("spawn: {e}"))?;
    Ok(status.success())
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every workload with tracing off, then the traced runs; gathers the
/// per-run files into `result.json`. `Ok(false)` when any run was wrong.
pub fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    let mut runs = Vec::new();
    for trace in [false, true] {
        for w in Workload::ALL {
            println!("== {} (trace {}) ==", w.name(), trace as u8);
            let ok = child(args, w, trace)?;
            if !ok {
                eprintln!("{} (trace {}): check_ok = 0", w.name(), trace as u8);
            }
            all_ok &= ok;
            let file = args
                .out_dir
                .join(format!("run_{}_trace{}.json", w.name(), trace as u8));
            match read_json(&file) {
                Ok(run) => runs.push(run),
                Err(e) => {
                    eprintln!("{e}");
                    all_ok = false;
                }
            }
        }
    }
    let result = Json::obj([
        ("benchmark", Json::str("atomfs")),
        ("check_ok", Json::Bool(all_ok)),
        ("runs", Json::Arr(runs)),
    ]);
    let path = args.out_dir.join("result.json");
    std::fs::write(&path, result.render_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_ok)
}

struct Cell {
    median: f64,
    q1: f64,
    q3: f64,
}

fn cell(result: &Json, workload: &str, metric: &str) -> Option<Cell> {
    let run = result.get("runs")?.as_arr()?.iter().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("trace") == Some(&Json::Bool(false))
    })?;
    let m = run.get("end_to_end")?.get(metric)?;
    Some(Cell {
        median: m.get("value")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
    })
}

/// How B stands to A on one metric of one workload.
///
/// `same`: within the bound. `worse`/`better`: beyond the bound and
/// beyond A's own quartile distance. `unresolved`: either side's quartile
/// distance is wider than the bound, so a change of the bound's size
/// could not be told from noise.
fn verdict(a: &Cell, b: &Cell, better: Better, bound: f64) -> &'static str {
    let spread = |c: &Cell| (c.q3 - c.q1) / c.median.abs();
    if spread(a) > bound || spread(b) > bound {
        return "unresolved";
    }
    let change = (b.median - a.median) / a.median.abs();
    let worsening = if better == Better::Lower {
        change
    } else {
        -change
    };
    if worsening.abs() <= bound || (b.median - a.median).abs() <= a.q3 - a.q1 {
        "same"
    } else if worsening > 0.0 {
        "worse"
    } else {
        "better"
    }
}

/// `compare A.json B.json`: per workload x end-to-end metric, both
/// medians with quartiles, the ratio with its base, and a verdict.
/// `Ok(false)` when anything is `worse`.
pub fn compare(files: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = files else {
        return Err("usage: compare A.json B.json".into());
    };
    let (a, b) = (read_json(Path::new(a_path))?, read_json(Path::new(b_path))?);
    println!("A = {a_path} (base)\nB = {b_path}");
    println!(
        "{:<22} {:<18} {:>14} {:>24} {:>14} {:>24} {:>9}  verdict (bound)",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B/A",
    );
    let mut none_worse = true;
    for w in Workload::ALL {
        for m in spec::END_TO_END {
            let (Some(ca), Some(cb)) = (cell(&a, w.name(), m.name), cell(&b, w.name(), m.name))
            else {
                println!("{:<22} {:<18} missing in A or B", w.name(), m.name);
                none_worse = false;
                continue;
            };
            let v = verdict(&ca, &cb, m.better, m.bound);
            none_worse &= v != "worse";
            println!(
                "{:<22} {:<18} {:>14.4} {:>24} {:>14.4} {:>24} {:>9.4}  {v} ({:.0} %, {} is better)",
                w.name(),
                format!("{} [{}]", m.name, m.unit),
                ca.median,
                format!("[{:.4}, {:.4}]", ca.q1, ca.q3),
                cb.median,
                format!("[{:.4}, {:.4}]", cb.q1, cb.q3),
                cb.median / ca.median,
                m.bound * 100.0,
                m.better.as_str(),
            );
        }
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(median: f64, q1: f64, q3: f64) -> Cell {
        Cell { median, q1, q3 }
    }

    #[test]
    fn verdicts() {
        let a = c(100.0, 99.0, 101.0);
        assert_eq!(
            verdict(&a, &c(105.0, 104.0, 106.0), Better::Lower, 0.10),
            "same"
        );
        assert_eq!(
            verdict(&a, &c(115.0, 114.0, 116.0), Better::Lower, 0.10),
            "worse"
        );
        assert_eq!(
            verdict(&a, &c(115.0, 114.0, 116.0), Better::Higher, 0.10),
            "better"
        );
        assert_eq!(
            verdict(&a, &c(85.0, 84.0, 86.0), Better::Higher, 0.10),
            "worse"
        );
        // A spread wider than the bound cannot resolve a bound-sized change.
        assert_eq!(
            verdict(
                &c(100.0, 90.0, 110.0),
                &c(115.0, 114.0, 116.0),
                Better::Lower,
                0.10
            ),
            "unresolved"
        );
        assert_eq!(
            verdict(&a, &c(115.0, 100.0, 130.0), Better::Lower, 0.10),
            "unresolved"
        );
    }

    #[test]
    fn generated_benchmark_json_is_within_the_size_limit() {
        assert!(benchmark_json().render_pretty().len() <= 64 << 10);
    }
}
