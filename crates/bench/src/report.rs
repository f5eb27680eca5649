//! Plain-text tables for experiment output.
//!
//! Every experiment binary prints the rows/series its paper table or
//! figure reports; `EXPERIMENTS.md` records paper-versus-measured values.
//! The ablation benches in `benches/` time their cases with [`time_case`].

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::harness::median;

/// A simple fixed-layout table builder.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (cells are already formatted).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for row in std::iter::once(&self.header).chain(self.rows.iter()) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |row: &[String]| {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Header of a [`time_case`] table.
pub const TIMING_HEADER: [&str; 4] = ["group", "case", "ns/iter", "units/s"];

/// Batches timed per case; the median batch is reported.
const TIMED_BATCHES: usize = 15;

/// Wall time a batch is grown to before timing starts.
const BATCH_TARGET: Duration = Duration::from_millis(4);

/// Time `f` and append a `group, case, ns/iter, units/s` row to `t`
/// (a table built with [`TIMING_HEADER`]). The batch size doubles until
/// one batch takes `BATCH_TARGET` (which also warms caches); then
/// `TIMED_BATCHES` batches are timed and the median per-call time is
/// reported. `units` is the work one call does — operations, bytes or
/// events — so the last column is its throughput.
pub fn time_case<R>(t: &mut Table, group: &str, case: &str, units: u64, mut f: impl FnMut() -> R) {
    let mut batch = |n: u64| {
        let start = Instant::now();
        for _ in 0..n {
            black_box(f());
        }
        start.elapsed()
    };
    let mut n = 1u64;
    while batch(n) < BATCH_TARGET {
        n *= 2;
    }
    let ns = median(
        (0..TIMED_BATCHES)
            .map(|_| batch(n).as_nanos() as f64 / n as f64)
            .collect(),
    );
    t.row(vec![
        group.to_string(),
        case.to_string(),
        format!("{ns:.1}"),
        format!("{:.0}", units as f64 * 1e9 / ns),
    ]);
}

/// Format a duration in seconds with sensible precision.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Format a throughput figure.
pub fn kops(ops_per_sec: f64) -> String {
    format!("{:.1}", ops_per_sec / 1e3)
}

/// Format a ratio such as a speedup.
pub fn ratio(r: f64) -> String {
    format!("{r:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["a-much-longer-name".into(), "22".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("short"));
        // Columns align: the "value" column starts at the same offset.
        let col = lines[3].find("22").unwrap();
        assert_eq!(lines[2].find('1').unwrap(), col);
    }

    #[test]
    fn time_case_reports_one_row_per_case() {
        let mut t = Table::new(&TIMING_HEADER);
        let mut calls = 0u64;
        time_case(&mut t, "g", "c", 2, || calls += 1);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0][..2], ["g", "c"]);
        let ns: f64 = t.rows[0][2].parse().unwrap();
        let per_sec: f64 = t.rows[0][3].parse().unwrap();
        assert!(ns > 0.0 && per_sec > 0.0);
        assert!(calls >= TIMED_BATCHES as u64);
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
        assert_eq!(kops(12_345.0), "12.3");
        assert_eq!(ratio(2.0), "2.00x");
    }
}
