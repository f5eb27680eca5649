//! Naming, aggregation, and exposition.
//!
//! A [`Registry`] owns a flat list of named metric handles. Registration
//! takes a lock (it happens at setup, not on the hot path) and hands back
//! an `Arc` to the underlying primitive; recording through that `Arc`
//! never touches the registry again. Rendering walks the list and merges
//! each metric's shards at that moment.
//!
//! Two output formats:
//!
//! * [`Registry::render_prometheus`] — the Prometheus text exposition
//!   format (`# HELP` / `# TYPE` headers, cumulative `_bucket{le=...}`
//!   series for histograms), ready to serve from a `/metrics` endpoint
//!   or dump at the end of a run.
//! * [`Registry::snapshot`] — a structured [`Snapshot`] for programmatic
//!   consumers (benchmark drivers asserting on p99s) with a hand-rolled
//!   JSON serialization, dependency-free like the rest of the crate.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::metric::{bucket_bound, Counter, Gauge, HistSnapshot, Histogram};

/// How a callback metric should be typed in the exposition output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FnKind {
    /// Monotonically non-decreasing (rendered as a `counter`).
    Counter,
    /// Free to move either way (rendered as a `gauge`).
    Gauge,
}

type FnMetric = Box<dyn Fn() -> f64 + Send + Sync>;

enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Hist(Arc<Histogram>),
    Fn { kind: FnKind, f: FnMetric },
}

struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    help: String,
    handle: Handle,
}

/// A named collection of metrics. Cheap to share (`Arc<Registry>`); all
/// mutation happens at registration time.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or fetch the existing) counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Counter> {
        let mut entries = self.entries.lock().unwrap();
        if let Some(e) = find(&entries, name, labels) {
            if let Handle::Counter(c) = &e.handle {
                return Arc::clone(c);
            }
            panic!("metric {name} re-registered with a different type");
        }
        let c = Arc::new(Counter::new());
        entries.push(entry(name, labels, help, Handle::Counter(Arc::clone(&c))));
        c
    }

    /// Register (or fetch the existing) gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Gauge> {
        let mut entries = self.entries.lock().unwrap();
        if let Some(e) = find(&entries, name, labels) {
            if let Handle::Gauge(g) = &e.handle {
                return Arc::clone(g);
            }
            panic!("metric {name} re-registered with a different type");
        }
        let g = Arc::new(Gauge::new());
        entries.push(entry(name, labels, help, Handle::Gauge(Arc::clone(&g))));
        g
    }

    /// Register (or fetch the existing) histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Histogram> {
        let mut entries = self.entries.lock().unwrap();
        if let Some(e) = find(&entries, name, labels) {
            if let Handle::Hist(h) = &e.handle {
                return Arc::clone(h);
            }
            panic!("metric {name} re-registered with a different type");
        }
        let h = Arc::new(Histogram::new());
        entries.push(entry(name, labels, help, Handle::Hist(Arc::clone(&h))));
        h
    }

    /// Register a callback metric: `f` is evaluated at render/snapshot
    /// time. This is how values owned elsewhere (e.g. the journal's
    /// `HealthCounters`) are bridged into the registry without moving
    /// them.
    pub fn register_fn(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        kind: FnKind,
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        let mut entries = self.entries.lock().unwrap();
        if find(&entries, name, labels).is_some() {
            return; // idempotent: keep the first registration
        }
        entries.push(entry(
            name,
            labels,
            help,
            Handle::Fn {
                kind,
                f: Box::new(f),
            },
        ));
    }

    /// Render the Prometheus text exposition format.
    ///
    /// `# HELP`/`# TYPE` appear once per metric name; histograms render
    /// cumulative `_bucket{le="..."}` series (non-empty buckets plus the
    /// mandatory `+Inf`), `_sum`, and `_count`.
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().unwrap();
        let mut out = String::new();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for e in entries.iter() {
            let (kind, is_hist) = match &e.handle {
                Handle::Counter(_) => ("counter", false),
                Handle::Gauge(_) => ("gauge", false),
                Handle::Hist(_) => ("histogram", true),
                Handle::Fn {
                    kind: FnKind::Counter,
                    ..
                } => ("counter", false),
                Handle::Fn {
                    kind: FnKind::Gauge,
                    ..
                } => ("gauge", false),
            };
            if seen.insert(e.name.as_str()) {
                let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
                let _ = writeln!(out, "# TYPE {} {}", e.name, kind);
            }
            if is_hist {
                let Handle::Hist(h) = &e.handle else {
                    unreachable!()
                };
                let snap = h.snapshot();
                let mut cum = 0u64;
                for (i, c) in snap.counts.iter().enumerate() {
                    if *c == 0 {
                        continue;
                    }
                    cum += c;
                    let le = bucket_bound(i);
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        e.name,
                        label_str(&e.labels, Some(&le.to_string())),
                        cum
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    e.name,
                    label_str(&e.labels, Some("+Inf")),
                    snap.count
                );
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    e.name,
                    label_str(&e.labels, None),
                    snap.sum
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {}",
                    e.name,
                    label_str(&e.labels, None),
                    snap.count
                );
            } else {
                let value = match &e.handle {
                    Handle::Counter(c) => c.get() as f64,
                    Handle::Gauge(g) => g.get() as f64,
                    Handle::Fn { f, .. } => f(),
                    Handle::Hist(_) => unreachable!(),
                };
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    e.name,
                    label_str(&e.labels, None),
                    fmt_f64(value)
                );
            }
        }
        out
    }

    /// Take a structured point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().unwrap();
        Snapshot {
            entries: entries
                .iter()
                .map(|e| SnapEntry {
                    name: e.name.clone(),
                    labels: e.labels.clone(),
                    value: match &e.handle {
                        Handle::Counter(c) => SnapValue::Counter(c.get()),
                        Handle::Gauge(g) => SnapValue::Gauge(g.get() as f64),
                        Handle::Hist(h) => SnapValue::Hist(h.snapshot()),
                        Handle::Fn {
                            kind: FnKind::Counter,
                            f,
                        } => SnapValue::Counter(f() as u64),
                        Handle::Fn {
                            kind: FnKind::Gauge,
                            f,
                        } => SnapValue::Gauge(f()),
                    },
                })
                .collect(),
        }
    }
}

fn entry(name: &str, labels: &[(&str, &str)], help: &str, handle: Handle) -> Entry {
    Entry {
        name: name.to_string(),
        labels: labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        help: help.to_string(),
        handle,
    }
}

fn find<'a>(entries: &'a [Entry], name: &str, labels: &[(&str, &str)]) -> Option<&'a Entry> {
    entries.iter().find(|e| {
        e.name == name
            && e.labels.len() == labels.len()
            && e.labels
                .iter()
                .zip(labels)
                .all(|((k, v), (lk, lv))| k == lk && v == lv)
    })
}

fn label_str(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Escape a label value per the Prometheus text exposition spec:
/// backslash, double-quote, and line feed must be written as `\\`,
/// `\"`, and `\n` inside the quoted value.
fn escape_label_value(v: &str) -> String {
    if !v.contains(['\\', '"', '\n']) {
        return v.to_string();
    }
    let mut out = String::with_capacity(v.len() + 2);
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One metric's value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum SnapValue {
    /// Counter total.
    Counter(u64),
    /// Gauge (or callback) value.
    Gauge(f64),
    /// Merged histogram.
    Hist(HistSnapshot),
}

/// One named metric inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapEntry {
    /// Metric name.
    pub name: String,
    /// Label set, in registration order.
    pub labels: Vec<(String, String)>,
    /// The captured value.
    pub value: SnapValue,
}

/// A structured point-in-time capture of a whole [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Every registered metric, in registration order.
    pub entries: Vec<SnapEntry>,
}

impl Snapshot {
    /// Sum of a counter across all its label sets (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .map(|e| match &e.value {
                SnapValue::Counter(v) => *v,
                SnapValue::Gauge(v) => *v as u64,
                SnapValue::Hist(h) => h.count,
            })
            .sum()
    }

    /// A gauge's value (first matching label set; `None` if absent).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.entries.iter().find_map(|e| {
            if e.name != name {
                return None;
            }
            match &e.value {
                SnapValue::Gauge(v) => Some(*v),
                SnapValue::Counter(v) => Some(*v as f64),
                SnapValue::Hist(_) => None,
            }
        })
    }

    /// The named histogram merged across all its label sets (empty if
    /// absent) — the input for whole-system p50/p99 numbers.
    pub fn hist_merged(&self, name: &str) -> HistSnapshot {
        let mut merged = HistSnapshot::empty();
        for e in &self.entries {
            if e.name == name {
                if let SnapValue::Hist(h) = &e.value {
                    merged.merge(h);
                }
            }
        }
        merged
    }

    /// Hand-rolled JSON rendering (no serde dependency): an array of
    /// `{name, labels, type, ...}` objects; histograms carry `count`,
    /// `sum`, quantiles, and their non-empty `(le, count)` buckets.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {\"name\":\"");
            out.push_str(&json_escape(&e.name));
            out.push_str("\",\"labels\":{");
            for (j, (k, v)) in e.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
            }
            out.push('}');
            match &e.value {
                SnapValue::Counter(v) => {
                    let _ = write!(out, ",\"type\":\"counter\",\"value\":{v}");
                }
                SnapValue::Gauge(v) => {
                    let _ = write!(out, ",\"type\":\"gauge\",\"value\":{}", fmt_f64(*v));
                }
                SnapValue::Hist(h) => {
                    let _ = write!(
                        out,
                        ",\"type\":\"histogram\",\"count\":{},\"sum\":{},\
                         \"p50\":{},\"p99\":{},\"buckets\":[",
                        h.count,
                        h.sum,
                        h.quantile(0.5),
                        h.quantile(0.99)
                    );
                    for (j, (le, c)) in h.nonzero().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{le},{c}]");
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("\n]");
        out
    }
}

/// Escape `s` for use inside a JSON string literal: quotes,
/// backslashes and control characters.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_deduplicated() {
        let r = Registry::new();
        let a = r.counter("ops_total", &[("op", "mkdir")], "ops");
        let b = r.counter("ops_total", &[("op", "mkdir")], "ops");
        assert!(Arc::ptr_eq(&a, &b));
        let c = r.counter("ops_total", &[("op", "rename")], "ops");
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn prometheus_render_has_headers_and_series() {
        let r = Registry::new();
        let ops = r.counter("fs_ops_total", &[("op", "mkdir")], "Completed operations.");
        ops.add(3);
        let g = r.gauge("fs_degraded", &[], "1 when degraded.");
        g.set(1);
        let h = r.histogram("fs_op_ns", &[("op", "mkdir")], "Op latency.");
        h.record(100);
        h.record(200_000);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP fs_ops_total Completed operations."));
        assert!(text.contains("# TYPE fs_ops_total counter"));
        assert!(text.contains("fs_ops_total{op=\"mkdir\"} 3"));
        assert!(text.contains("fs_degraded 1"));
        assert!(text.contains("# TYPE fs_op_ns histogram"));
        assert!(text.contains("fs_op_ns_bucket{op=\"mkdir\",le=\"+Inf\"} 2"));
        assert!(text.contains("fs_op_ns_sum{op=\"mkdir\"} 200100"));
        assert!(text.contains("fs_op_ns_count{op=\"mkdir\"} 2"));
        // Cumulative buckets: the +Inf count appears after per-bucket
        // lines whose cumulative values never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("fs_op_ns_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "non-cumulative bucket line: {line}");
            last = v;
        }
    }

    #[test]
    fn help_and_type_emitted_once_per_name() {
        let r = Registry::new();
        r.counter("x_total", &[("a", "1")], "x");
        r.counter("x_total", &[("a", "2")], "x");
        let text = r.render_prometheus();
        assert_eq!(text.matches("# TYPE x_total counter").count(), 1);
        assert_eq!(text.matches("x_total{").count(), 2);
    }

    #[test]
    fn fn_metrics_evaluate_at_render_time() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let r = Registry::new();
        let v = Arc::new(AtomicU64::new(0));
        let vc = Arc::clone(&v);
        r.register_fn(
            "bridged_total",
            &[],
            "bridged",
            FnKind::Counter,
            move || vc.load(Ordering::Relaxed) as f64,
        );
        v.store(7, Ordering::Relaxed);
        assert!(r.render_prometheus().contains("bridged_total 7"));
        assert_eq!(r.snapshot().counter("bridged_total"), 7);
    }

    #[test]
    fn snapshot_merges_and_serializes() {
        let r = Registry::new();
        let h1 = r.histogram("lat_ns", &[("op", "read")], "lat");
        let h2 = r.histogram("lat_ns", &[("op", "write")], "lat");
        for i in 0..100 {
            h1.record(i);
            h2.record(1000 + i);
        }
        let snap = r.snapshot();
        let merged = snap.hist_merged("lat_ns");
        assert_eq!(merged.count, 200);
        let json = snap.to_json();
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"name\":\"lat_ns\""));
        assert!(json.contains("\"op\":\"read\""));
        assert!(json.contains("\"type\":\"histogram\""));
        assert!(json.contains("\"p99\":"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("a\rb\tc"), "a\\rb\\tc");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        let r = Registry::new();
        // A pathological label value exercising every escape the spec
        // requires: backslash, double-quote, and newline.
        r.register_fn(
            "path_ops_total",
            &[("path", "a\\b\"c\nd")],
            "ops by path",
            FnKind::Counter,
            || 1.0,
        );
        let text = r.render_prometheus();
        assert!(
            text.contains(r#"path_ops_total{path="a\\b\"c\nd"} 1"#),
            "unescaped or mis-escaped label in: {text}"
        );
        // The raw newline must not appear inside the rendered series —
        // every line stays parseable.
        for line in text.lines() {
            if line.starts_with("path_ops_total") {
                assert!(line.ends_with(" 1"));
            }
        }
    }
}
