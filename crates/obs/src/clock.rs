//! Pluggable time sources for latency metrics.
//!
//! Two concerns pull in opposite directions: the hot path wants the
//! cheapest monotonic counter the hardware has, and tests want
//! determinism. [`ClockSource`] is a two-variant enum (no `dyn` call on
//! the record path) covering both:
//!
//! * [`MonotonicClock`] — nanoseconds since process start. On x86_64 it
//!   reads the TSC (a handful of cycles) and converts with a once-per-
//!   process calibration against `Instant`; elsewhere it falls back to
//!   `Instant::elapsed`.
//! * [`VirtualClock`] — an atomic tick counter advanced explicitly by the
//!   caller, the same virtual-time discipline as
//!   `atomfs_journal::health::RetryPolicy`'s backoff accounting: tests
//!   that assert on latency histograms advance the clock themselves and
//!   replay bit-for-bit, never waiting on (or flaking with) a wall clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic time source in integer ticks.
///
/// All implementations in this crate use nanosecond ticks, so histogram
/// bucket bounds read directly as nanoseconds.
pub trait Clock: Send + Sync {
    /// Current time in ticks (nanoseconds).
    fn now(&self) -> u64;
}

/// Process-relative wall-free monotonic clock (nanoseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct MonotonicClock;

impl MonotonicClock {
    /// Create (and, first time in the process, calibrate) the clock.
    pub fn new() -> Self {
        // Touch the calibration so the one-time cost is paid at setup,
        // not inside the first measured operation.
        let _ = Self.now_ns();
        MonotonicClock
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            let (base, ns_per_tick) = *tsc_calibration();
            let delta = unsafe { core::arch::x86_64::_rdtsc() }.wrapping_sub(base);
            (delta as f64 * ns_per_tick) as u64
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            instant_anchor().elapsed().as_nanos() as u64
        }
    }
}

impl Clock for MonotonicClock {
    #[inline]
    fn now(&self) -> u64 {
        self.now_ns()
    }
}

#[cfg(target_arch = "x86_64")]
fn tsc_calibration() -> &'static (u64, f64) {
    use std::sync::OnceLock;
    static CAL: OnceLock<(u64, f64)> = OnceLock::new();
    CAL.get_or_init(|| {
        // Measure the TSC rate against Instant over a short busy window.
        // 2 ms is long enough that scheduler noise is <1% of the window
        // and short enough to be invisible at process start.
        let t0 = Instant::now();
        let c0 = unsafe { core::arch::x86_64::_rdtsc() };
        while t0.elapsed().as_micros() < 2_000 {
            std::hint::spin_loop();
        }
        let c1 = unsafe { core::arch::x86_64::_rdtsc() };
        let ns = t0.elapsed().as_nanos() as f64;
        let ticks = c1.wrapping_sub(c0).max(1) as f64;
        (c0, ns / ticks)
    })
}

#[cfg(not(target_arch = "x86_64"))]
fn instant_anchor() -> &'static Instant {
    use std::sync::OnceLock;
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now)
}

/// Deterministic clock advanced explicitly by the test driving it.
#[derive(Debug, Default)]
pub struct VirtualClock {
    ticks: AtomicU64,
}

impl VirtualClock {
    /// A clock at tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance by `ticks` and return the new time.
    pub fn advance(&self, ticks: u64) -> u64 {
        self.ticks.fetch_add(ticks, Ordering::Relaxed) + ticks
    }
}

impl Clock for VirtualClock {
    #[inline]
    fn now(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }
}

/// The concrete clock behind a metrics struct — an enum so the hot
/// path pays a predictable branch instead of a virtual call.
#[derive(Debug, Clone)]
pub enum ClockSource {
    /// Calibrated hardware time in nanoseconds.
    Monotonic(MonotonicClock),
    /// Explicitly advanced test time.
    Virtual(Arc<VirtualClock>),
}

impl ClockSource {
    /// The production clock.
    pub fn monotonic() -> Self {
        ClockSource::Monotonic(MonotonicClock::new())
    }

    /// A deterministic clock shared with the test that advances it.
    pub fn virtual_clock(clock: Arc<VirtualClock>) -> Self {
        ClockSource::Virtual(clock)
    }

    /// Current time in ticks (nanoseconds for the monotonic clock).
    #[inline]
    pub fn now(&self) -> u64 {
        match self {
            ClockSource::Monotonic(c) => c.now(),
            ClockSource::Virtual(c) => c.now(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_advances() {
        let c = MonotonicClock::new();
        let a = c.now();
        let t0 = Instant::now();
        while t0.elapsed().as_micros() < 200 {
            std::hint::spin_loop();
        }
        let b = c.now();
        assert!(b > a, "clock did not advance: {a} -> {b}");
        // 200 us busy wait should read as roughly that many ns (allow a
        // generous band for calibration error and preemption).
        let delta = b - a;
        assert!(
            (50_000..100_000_000).contains(&delta),
            "implausible delta {delta} ns"
        );
    }

    #[test]
    fn virtual_clock_is_deterministic() {
        let v = Arc::new(VirtualClock::new());
        let src = ClockSource::virtual_clock(Arc::clone(&v));
        assert_eq!(src.now(), 0);
        v.advance(7);
        assert_eq!(src.now(), 7);
        assert_eq!(v.advance(3), 10);
        assert_eq!(src.now(), 10);
    }
}
