//! Lock-free metrics and profiling for the AtomFS workspace.
//!
//! Every later performance PR is judged against measurements, and a
//! fine-grained-locking file system cannot be tuned blind: this crate is
//! the substrate that makes lock-coupling wait/hold times, helper
//! (`linothers`) frequency, rollback depth, journal health, and per-op
//! latency distributions visible at runtime without perturbing the system
//! being measured.
//!
//! # Design rules
//!
//! * **Lock-free, allocation-free hot path.** Recording a sample is a
//!   handful of `Relaxed` atomic RMWs on the recording thread's own
//!   cache lines: [`Counter`] and [`Histogram`] are sharded per thread
//!   slot exactly like the trace recorder's `ShardedSink`, so concurrent
//!   recorders never ping-pong a shared line. No mutex, no `Vec` growth,
//!   no boxing on the record path; merging happens at snapshot time.
//! * **Fixed-size log-linear histograms.** Power-of-two base buckets with
//!   [`hist::SUB`] linear sub-buckets each (see [`hist`]) give ~9%
//!   worst-case relative error over the whole nanosecond-to-minutes
//!   range in a few KiB of atomics per shard.
//! * **Pluggable clocks.** [`ClockSource::monotonic`] reads the cheapest
//!   monotonic counter the platform has (calibrated TSC on x86_64);
//!   [`ClockSource::virtual_clock`] is advanced explicitly by tests, the
//!   same virtual-time idea `atomfs_journal::health::RetryPolicy` uses,
//!   so metric-asserting tests replay bit-for-bit.
//! * **Cheap when detached.** There is one build, and instrumentation is
//!   switched off at runtime, not compiled out. An `AtomFs` with no
//!   `FsMetrics` attached (`AtomFs::m()` returns `None`) pays one branch
//!   per metrics site, a stack with no `MeteredFs` layer pays nothing,
//!   and [`span::set_sampling(0)`](span::set_sampling) makes every span
//!   an inert guard. The two overhead gates measure
//!   instrumentation against exactly these switches, under a 5 % bound:
//!   metrics at 1 thread (`BENCH_obs.json`) read −0.24 %, and spans plus
//!   the flight recorder (`BENCH_flightrec.json`) read +0.62 %, on a
//!   quiet 2-vCPU VM (+1.44 % and +1.25 % on the same VM under load).
//!
//! # Exposition
//!
//! A [`Registry`] names the metrics and renders them two ways:
//! [`Registry::render_prometheus`] (text exposition format, suitable for
//! an HTTP `/metrics` endpoint) and [`Registry::snapshot`] (a structured
//! [`Snapshot`] with quantile lookups and a JSON serialization) for
//! benchmark reports such as `BENCH_obs.json`.

pub mod clock;
pub mod dump;
pub mod flightrec;
pub mod metric;
pub mod registry;
pub mod span;

mod shard;

pub mod hist {
    //! Bucket-scheme constants and helpers, shared by the histogram and
    //! its snapshots so both agree on geometry.
    pub use crate::metric::{bucket_bound, bucket_index, BUCKETS, SUB, SUB_BITS};
}

pub use clock::{ClockSource, MonotonicClock, VirtualClock};
pub use dump::{BlackBox, TriggerCause};
pub use metric::{Counter, Gauge, HistSnapshot, Histogram};
pub use registry::{FnKind, Registry, SnapEntry, SnapValue, Snapshot};
pub use span::{render_spans_json, Span, SpanKind, SpanRecord};
