//! Thread fan-out and timing for benchmark runs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use atomfs_obs::{Registry, Snapshot};

/// Outcome of one measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Total operations completed across all threads.
    pub ops: u64,
    /// Metrics snapshot taken after the workers joined, when the run was
    /// observed through a registry ([`run_threads_observed`]); `None` for
    /// unobserved runs.
    pub snapshot: Option<Snapshot>,
}

impl RunResult {
    /// Operations per second.
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Speedup of this run over a baseline run.
    pub fn speedup_over(&self, base: &RunResult) -> f64 {
        self.throughput() / base.throughput().max(1e-9)
    }

    /// (p50, p99) in ticks of the named latency histogram, merged across
    /// its label sets — `None` for an unobserved run or an empty series.
    pub fn latency_ns(&self, name: &str) -> Option<(u64, u64)> {
        let h = self.snapshot.as_ref()?.hist_merged(name);
        if h.count == 0 {
            return None;
        }
        Some((h.quantile(0.50), h.quantile(0.99)))
    }
}

/// Run `per_thread` on `threads` OS threads against a shared context,
/// timing the whole fan-out. Each invocation receives its thread index
/// and returns the number of operations it performed.
pub fn run_threads<C: Send + Sync + 'static>(
    ctx: Arc<C>,
    threads: usize,
    per_thread: impl Fn(Arc<C>, usize) -> u64 + Send + Sync + 'static,
) -> RunResult {
    let per_thread = Arc::new(per_thread);
    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let ctx = Arc::clone(&ctx);
            let f = Arc::clone(&per_thread);
            std::thread::spawn(move || f(ctx, t))
        })
        .collect();
    let ops = handles.into_iter().map(|h| h.join().expect("worker")).sum();
    RunResult {
        wall: start.elapsed(),
        ops,
        snapshot: None,
    }
}

/// Like [`run_threads`], but snapshot `registry` once the workers have
/// joined, so the result carries the run's metrics (latency histograms,
/// contention counters, ...) alongside its throughput. The caller is
/// responsible for routing the workload's instrumentation into `registry`
/// (e.g. `MeteredFs`, `FsMetrics`) and for using a fresh registry per run
/// if runs must not accumulate.
pub fn run_threads_observed<C: Send + Sync + 'static>(
    ctx: Arc<C>,
    threads: usize,
    registry: &Registry,
    per_thread: impl Fn(Arc<C>, usize) -> u64 + Send + Sync + 'static,
) -> RunResult {
    let mut r = run_threads(ctx, threads, per_thread);
    r.snapshot = Some(registry.snapshot());
    r
}

/// Time a single closure, returning its op count and duration.
pub fn time_one(f: impl FnOnce() -> u64) -> RunResult {
    let start = Instant::now();
    let ops = f();
    RunResult {
        wall: start.elapsed(),
        ops,
        snapshot: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn fan_out_sums_ops() {
        let counter = Arc::new(AtomicU64::new(0));
        let r = run_threads(Arc::clone(&counter), 4, |c, _| {
            c.fetch_add(10, Ordering::Relaxed);
            10
        });
        assert_eq!(r.ops, 40);
        assert_eq!(counter.load(Ordering::Relaxed), 40);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn speedup_is_relative_throughput() {
        let base = RunResult {
            wall: Duration::from_millis(100),
            ops: 100,
            snapshot: None,
        };
        let fast = RunResult {
            wall: Duration::from_millis(100),
            ops: 400,
            snapshot: None,
        };
        let s = fast.speedup_over(&base);
        assert!((s - 4.0).abs() < 1e-9);
    }

    #[test]
    fn observed_run_carries_a_snapshot() {
        let reg = Registry::new();
        let hist = reg.histogram("work_ns", &[], "per-op work");
        let r = run_threads_observed(Arc::new(hist), 4, &reg, |h, t| {
            h.record(t as u64 + 1);
            1
        });
        assert_eq!(r.ops, 4);
        let snap = r.snapshot.as_ref().expect("observed run has a snapshot");
        assert_eq!(snap.hist_merged("work_ns").count, 4);
        let (p50, p99) = r.latency_ns("work_ns").unwrap();
        assert!(p50 <= p99);
    }

    #[test]
    fn time_one_measures() {
        let r = time_one(|| {
            std::thread::sleep(Duration::from_millis(5));
            7
        });
        assert_eq!(r.ops, 7);
        assert!(r.wall >= Duration::from_millis(5));
    }
}
