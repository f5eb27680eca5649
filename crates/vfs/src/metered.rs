//! A latency-metering [`FileSystem`] wrapper.
//!
//! [`MeteredFs`] times every operation of the file system it wraps into
//! per-op latency histograms and error counters from `atomfs-obs`. Unlike
//! the in-engine instrumentation inside AtomFS (which sees lock waits and
//! walk depths), this wrapper is generic: it meters *any* implementation —
//! the big-lock variant, the simulated baselines, a deployment shim stack —
//! at whatever layer it is inserted, so the benchmark figures can report
//! p50/p99 operation latency for every compared system from one metric
//! family.
//!
//! Metric names: `fs_op_ns{op=...}` (histogram, nanoseconds) and
//! `fs_op_errors_total{op=...}` (counter). Metering is switched off by not
//! inserting the wrapper: a stack without it pays nothing.

use std::sync::Arc;

use atomfs_obs::{ClockSource, Counter, FnKind, Histogram, Registry, Span, SpanKind};

use crate::error::FsResult;
use crate::fs::{FileSystem, Metadata};

/// The metered operations, in index order.
const OPS: [&str; 10] = [
    "mknod", "mkdir", "unlink", "rmdir", "rename", "stat", "readdir", "read", "write", "truncate",
];

struct OpMeter {
    ns: Arc<Histogram>,
    errors: Arc<Counter>,
}

/// A file system wrapper that records per-operation latency.
pub struct MeteredFs<F> {
    inner: F,
    clock: ClockSource,
    ops: [OpMeter; 10],
}

impl<F: FileSystem> MeteredFs<F> {
    /// Wrap `inner`, registering `fs_op_ns{op=...}` and
    /// `fs_op_errors_total{op=...}` in `registry`. Re-registering the same
    /// names (several metered instances sharing a registry) merges their
    /// samples into the same series.
    pub fn new(inner: F, registry: &Registry, clock: ClockSource) -> Self {
        let ops = OPS.map(|op| OpMeter {
            ns: registry.histogram(
                "fs_op_ns",
                &[("op", op)],
                "Operation latency in nanoseconds, as seen at this wrapper's layer.",
            ),
            errors: registry.counter(
                "fs_op_errors_total",
                &[("op", op)],
                "Operations that returned an error.",
            ),
        });
        // Per-op p50/p99 as scrape-time gauges, so one Prometheus scrape
        // carries the quantiles the fig10/fig11 tables compute offline.
        // `registry.histogram` dedups by (name, labels): every instance
        // sharing the registry holds the same `Arc<Histogram>`, so the
        // idempotently-registered callback reads the merged series no
        // matter which instance registered it.
        for (i, op) in OPS.iter().enumerate() {
            for (q, qname) in [(0.5f64, "0.5"), (0.99f64, "0.99")] {
                let h = Arc::clone(&ops[i].ns);
                registry.register_fn(
                    "fs_op_ns_quantile",
                    &[("op", op), ("q", qname)],
                    "Operation latency quantile in nanoseconds (snapshot at scrape time).",
                    FnKind::Gauge,
                    move || h.snapshot().quantile(q) as f64,
                );
            }
        }
        MeteredFs { inner, clock, ops }
    }

    /// The wrapped file system.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    #[inline]
    fn time<T>(&self, idx: usize, f: impl FnOnce(&F) -> FsResult<T>) -> FsResult<T> {
        // Sampled span root at the wrapper boundary: an engine below that
        // opens its own op span (AtomFS does) nests under this one, so
        // the trace shows wrapper-observed vs engine-observed latency.
        let mut sp = Span::op_root(SpanKind::Op, OPS[idx]);
        let t0 = self.clock.now();
        let r = f(&self.inner);
        let m = &self.ops[idx];
        m.ns.record(self.clock.now().saturating_sub(t0));
        if r.is_err() {
            m.errors.inc();
            sp.fail();
        }
        r
    }
}

impl<F: FileSystem> FileSystem for MeteredFs<F> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn mknod(&self, path: &str) -> FsResult<()> {
        self.time(0, |fs| fs.mknod(path))
    }
    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.time(1, |fs| fs.mkdir(path))
    }
    fn unlink(&self, path: &str) -> FsResult<()> {
        self.time(2, |fs| fs.unlink(path))
    }
    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.time(3, |fs| fs.rmdir(path))
    }
    fn rename(&self, src: &str, dst: &str) -> FsResult<()> {
        self.time(4, |fs| fs.rename(src, dst))
    }
    fn stat(&self, path: &str) -> FsResult<Metadata> {
        self.time(5, |fs| fs.stat(path))
    }
    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        self.time(6, |fs| fs.readdir(path))
    }
    fn read(&self, path: &str, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.time(7, |fs| fs.read(path, offset, buf))
    }
    fn write(&self, path: &str, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.time(8, |fs| fs.write(path, offset, data))
    }
    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        self.time(9, |fs| fs.truncate(path, size))
    }
    fn sync(&self) -> FsResult<()> {
        // Untimed: sync is a durability barrier, not a per-op latency.
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FsError;
    use std::collections::HashSet;
    use std::sync::Mutex;

    /// Minimal path-set "file system" — just enough to drive the wrapper.
    #[derive(Default)]
    struct SetFs {
        files: Mutex<HashSet<String>>,
    }

    impl FileSystem for SetFs {
        fn name(&self) -> &'static str {
            "setfs"
        }
        fn mknod(&self, path: &str) -> FsResult<()> {
            if self.files.lock().unwrap().insert(path.to_string()) {
                Ok(())
            } else {
                Err(FsError::Exists)
            }
        }
        fn mkdir(&self, _: &str) -> FsResult<()> {
            Ok(())
        }
        fn unlink(&self, path: &str) -> FsResult<()> {
            if self.files.lock().unwrap().remove(path) {
                Ok(())
            } else {
                Err(FsError::NotFound)
            }
        }
        fn rmdir(&self, _: &str) -> FsResult<()> {
            Ok(())
        }
        fn rename(&self, _: &str, _: &str) -> FsResult<()> {
            Ok(())
        }
        fn stat(&self, _: &str) -> FsResult<Metadata> {
            Ok(Metadata::file(1, 0))
        }
        fn readdir(&self, _: &str) -> FsResult<Vec<String>> {
            Ok(Vec::new())
        }
        fn read(&self, _: &str, _: u64, _: &mut [u8]) -> FsResult<usize> {
            Ok(0)
        }
        fn write(&self, _: &str, _: u64, data: &[u8]) -> FsResult<usize> {
            Ok(data.len())
        }
        fn truncate(&self, _: &str, _: u64) -> FsResult<()> {
            Ok(())
        }
    }

    #[test]
    fn every_op_is_counted_once() {
        let reg = Registry::new();
        let fs = MeteredFs::new(SetFs::default(), &reg, ClockSource::monotonic());
        fs.mknod("/a").unwrap();
        fs.mkdir("/d").unwrap();
        fs.stat("/a").unwrap();
        fs.write("/a", 0, b"x").unwrap();
        let mut buf = [0u8; 1];
        fs.read("/a", 0, &mut buf).unwrap();
        fs.unlink("/a").unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.hist_merged("fs_op_ns").count, 6);
        assert_eq!(snap.counter("fs_op_errors_total"), 0);
    }

    #[test]
    fn errors_are_attributed_to_their_op() {
        let reg = Registry::new();
        let fs = MeteredFs::new(SetFs::default(), &reg, ClockSource::monotonic());
        assert_eq!(fs.unlink("/missing"), Err(FsError::NotFound));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("fs_op_errors_total"), 1);
        // Failed ops still contribute a latency sample.
        assert_eq!(snap.hist_merged("fs_op_ns").count, 1);
    }

    #[test]
    fn quantile_gauges_are_exported() {
        let reg = Registry::new();
        let fs = MeteredFs::new(SetFs::default(), &reg, ClockSource::monotonic());
        for i in 0..50 {
            fs.mknod(&format!("/f{i}")).unwrap();
        }
        let text = reg.render_prometheus();
        assert!(text.contains("fs_op_ns_quantile{op=\"mknod\",q=\"0.5\"}"));
        assert!(text.contains("fs_op_ns_quantile{op=\"mknod\",q=\"0.99\"}"));
        // The gauge reads the same merged series the histogram holds: its
        // p99 must match the snapshot's.
        let snap = reg.snapshot();
        let p99 = snap.hist_merged("fs_op_ns").quantile(0.99) as f64;
        let gauges: Vec<f64> = snap
            .entries
            .iter()
            .filter(|e| {
                e.name == "fs_op_ns_quantile"
                    && e.labels.contains(&("op".into(), "mknod".into()))
                    && e.labels.contains(&("q".into(), "0.99".into()))
            })
            .filter_map(|e| match &e.value {
                atomfs_obs::SnapValue::Gauge(v) => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(gauges.len(), 1);
        assert_eq!(gauges[0], p99);
    }

    #[test]
    fn shared_registry_merges_instances() {
        let reg = Registry::new();
        let a = MeteredFs::new(SetFs::default(), &reg, ClockSource::monotonic());
        let b = MeteredFs::new(SetFs::default(), &reg, ClockSource::monotonic());
        a.mknod("/a").unwrap();
        b.mknod("/a").unwrap();
        // Both instances share the one fs_op_ns{op="mknod"} series.
        assert_eq!(reg.snapshot().hist_merged("fs_op_ns").count, 2);
    }
}
