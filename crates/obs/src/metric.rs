//! The metric primitives: sharded counters, gauges, and log-linear
//! histograms.
//!
//! # Histogram bucket scheme
//!
//! Values (nanoseconds, depths, set sizes — any `u64`) are binned
//! **log-linearly**: each power-of-two octave is split into [`SUB`]
//! linear sub-buckets, so relative error is bounded by `1/SUB` (12.5%
//! worst case with `SUB = 8`) across the whole range, while the bucket
//! count stays fixed and small ([`BUCKETS`] = 297 covering 0 through
//! 2^39−1, i.e. sub-nanosecond through ~9 minutes, plus one overflow
//! bucket). The array is fixed-size atomics — recording never allocates
//! and never takes a lock.
//!
//! # Sharding
//!
//! Every counter and histogram is an array of per-thread-slot shards
//! (cache-line aligned), merged only when a snapshot or render is taken:
//! the record path touches memory only the recording thread writes.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use crate::shard::{default_shards, thread_slot};

/// Linear sub-buckets per power-of-two octave, as a bit count.
pub const SUB_BITS: u32 = 3;
/// Linear sub-buckets per power-of-two octave.
pub const SUB: u64 = 1 << SUB_BITS;
/// Highest most-significant-bit position tracked precisely; larger
/// values land in the overflow bucket.
const MAX_MSB: u32 = 38;
/// Total bucket count (linear head + octaves + overflow).
pub const BUCKETS: usize = SUB as usize + ((MAX_MSB - SUB_BITS + 1) as usize) * (SUB as usize) + 1;

/// Bucket index for a value: identity below [`SUB`], then log-linear.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    if msb > MAX_MSB {
        return BUCKETS - 1;
    }
    let octave = (msb - SUB_BITS) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & (SUB - 1)) as usize;
    SUB as usize + octave * SUB as usize + sub
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the overflow
/// bucket) — the value reported as the Prometheus `le` label.
pub fn bucket_bound(i: usize) -> u64 {
    if i < SUB as usize {
        return i as u64;
    }
    if i >= BUCKETS - 1 {
        return u64::MAX;
    }
    let j = i - SUB as usize;
    let octave = (j / SUB as usize) as u32;
    let sub = (j % SUB as usize) as u64;
    ((SUB + sub) << octave) + (1u64 << octave) - 1
}

/// A merged, point-in-time view of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts (length [`BUCKETS`]).
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistSnapshot {
    /// A snapshot with no samples.
    pub fn empty() -> Self {
        HistSnapshot {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Fold another snapshot into this one (histograms are mergeable —
    /// used to aggregate one metric across label sets).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Upper bound of the bucket containing the `q`-quantile (0 when the
    /// histogram is empty). `q` is clamped into `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_bound(i);
            }
        }
        bucket_bound(BUCKETS - 1)
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty buckets as `(upper_bound, count)` pairs.
    pub fn nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (bucket_bound(i), *c))
    }
}

#[repr(align(64))]
struct Pad(AtomicU64);

/// A monotonically increasing event count, striped across thread
/// slots so concurrent `inc`s don't share a cache line.
pub struct Counter {
    shards: Box<[Pad]>,
    mask: usize,
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl Counter {
    /// A zeroed counter sized for the host's parallelism.
    pub fn new() -> Self {
        let n = default_shards();
        Counter {
            shards: (0..n).map(|_| Pad(AtomicU64::new(0))).collect(),
            mask: n - 1,
        }
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[thread_slot() & self.mask]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Current total (sums the stripes).
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A value that can go up and down (one atomic: gauges are written
/// rarely compared with counters and must support `set`).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjust the value by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[repr(align(64))]
struct HistShard {
    buckets: [AtomicU64; BUCKETS],
    // No separate count cell: the total is the sum of the buckets,
    // computed at snapshot time, saving one RMW per record.
    sum: AtomicU64,
}

impl HistShard {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);

    fn new() -> Self {
        HistShard {
            buckets: [Self::ZERO; BUCKETS],
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-size, lock-free log-linear histogram (see module docs for
/// the bucket scheme), sharded per thread slot.
pub struct Histogram {
    shards: Box<[HistShard]>,
    mask: usize,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram sized for the host's parallelism.
    pub fn new() -> Self {
        let n = default_shards();
        Histogram {
            shards: (0..n).map(|_| HistShard::new()).collect(),
            mask: n - 1,
        }
    }

    /// Record one sample: two relaxed RMWs on this thread's shard.
    #[inline]
    pub fn record(&self, v: u64) {
        let shard = &self.shards[thread_slot() & self.mask];
        shard.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.buckets.iter())
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Merge the shards into a point-in-time snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut snap = HistSnapshot::empty();
        for shard in self.shards.iter() {
            for (i, b) in shard.buckets.iter().enumerate() {
                snap.counts[i] += b.load(Ordering::Relaxed);
            }
            snap.sum += shard.sum.load(Ordering::Relaxed);
        }
        snap.count = snap.counts.iter().sum();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_exhaustive() {
        let mut last = 0usize;
        // Walk every bucket boundary: index must be non-decreasing in v
        // and bound(index(v)) must be >= v.
        for i in 0..BUCKETS {
            let b = bucket_bound(i);
            if b == u64::MAX {
                continue;
            }
            let idx = bucket_index(b);
            assert_eq!(idx, i, "bound {b} of bucket {i} maps back to {idx}");
            assert!(idx >= last);
            last = idx;
            // The next value starts the next bucket.
            assert_eq!(bucket_index(b + 1), i + 1, "b={b}");
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        for shift in SUB_BITS..MAX_MSB {
            let v = (1u64 << shift) + (1 << (shift - 1)) + 3; // mid-octave
            let bound = bucket_bound(bucket_index(v));
            assert!(bound >= v);
            let err = (bound - v) as f64 / v as f64;
            assert!(err <= 1.0 / SUB as f64 + 1e-9, "v={v} err={err}");
        }
    }

    #[test]
    fn counter_counts_across_threads() {
        use std::sync::Arc;
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn gauge_sets_and_adjusts() {
        let g = Gauge::new();
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.sum, 500_500);
        let p50 = snap.quantile(0.5);
        // Bucket resolution: p50 must be within one sub-bucket of 500.
        assert!((500..=575).contains(&p50), "p50={p50}");
        let p99 = snap.quantile(0.99);
        assert!((990..=1087).contains(&p99), "p99={p99}");
        assert_eq!(snap.quantile(0.0).max(1), 1);
        assert!(snap.quantile(1.0) >= 1000);
        assert!((snap.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_merges_across_threads_and_snapshots() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for hnd in handles {
            hnd.join().unwrap();
        }
        assert_eq!(h.count(), 2000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2000);
        let mut doubled = snap.clone();
        doubled.merge(&snap);
        assert_eq!(doubled.count, 4000);
        assert_eq!(doubled.sum, 2 * snap.sum);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let snap = HistSnapshot::empty();
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.nonzero().count(), 0);
    }
}
