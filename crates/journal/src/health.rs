//! Retry policy and mount-health reporting for the fallible write path.
//!
//! Transient device errors are absorbed by [`RetryPolicy`]: a bounded
//! number of attempts under a *virtual-time* exponential backoff budget —
//! the policy accounts backoff ticks deterministically instead of
//! sleeping, so fault tests replay bit-for-bit and never wait on a wall
//! clock. When the budget is exhausted (or the device fails permanently)
//! the journal's owner flips the mount to [`Health::Degraded`]: reads
//! keep serving from the in-memory AtomFS, mutations are refused with
//! `FsError::ReadOnly`, and `sync()` reports the cause so callers never
//! treat non-durable data as acked.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::device::DiskError;

/// Bounded, deterministic retry for transient device errors.
///
/// An operation is attempted up to `max_attempts` times; after the n-th
/// failure the policy charges `backoff_base << n` virtual ticks against
/// `backoff_budget` and gives up once the budget is exceeded. No wall
/// clock is involved anywhere.
///
/// With a non-zero `jitter_seed` each backoff wait gains a deterministic
/// pseudo-random increment of up to half the exponential base, derived
/// by splitmix64 from `(seed, attempt)`. Two policies carrying different
/// seeds (e.g. [`reseeded`](RetryPolicy::reseeded) per shard) charge
/// their budgets on desynchronized schedules — a correlated fault burst
/// does not exhaust every shard's budget on the same attempt — while a
/// given policy still produces the identical wait sequence on every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per device operation (including the first).
    pub max_attempts: u32,
    /// Virtual ticks charged for the first retry; doubles per attempt.
    pub backoff_base: u64,
    /// Total virtual ticks a single operation may spend backing off.
    pub backoff_budget: u64,
    /// Seed for deterministic backoff jitter; 0 disables jitter and
    /// reproduces the exact exponential waits.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Up to 6 attempts within a 1024-tick budget — rides out fault
    /// rates well past anything a real bus would survive, while still
    /// giving up fast enough that tests exercise degraded mode. Jitter
    /// is off by default.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            backoff_base: 1,
            backoff_budget: 1 << 10,
            jitter_seed: 0,
        }
    }
}

/// splitmix64: the one-shot mixer the fault plans use, here hashing
/// (seed, attempt) into a jitter draw. Pure — no global RNG state, so
/// the schedule is a function of the policy alone.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// Fail on the first error: the policy the infallible seed behaved
    /// as if it had (useful to measure what retrying buys).
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: 0,
            backoff_budget: 0,
            jitter_seed: 0,
        }
    }

    /// Builder: enable deterministic backoff jitter under `seed`.
    pub fn with_jitter(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Derive the policy a sub-unit (e.g. one shard) should run under:
    /// same bounds, jitter seed remixed with `salt` so sibling units
    /// back off on desynchronized schedules. Identity when jitter is
    /// off — an unseeded policy stays exactly exponential everywhere.
    pub fn reseeded(mut self, salt: u64) -> Self {
        if self.jitter_seed != 0 {
            // Feed the salt through the mixer (never yielding 0, which
            // would silently turn jitter off for one unlucky salt).
            self.jitter_seed = splitmix64(self.jitter_seed ^ salt) | 1;
        }
        self
    }

    /// Virtual ticks charged after the `attempt`-th failure (1-based):
    /// the exponential base plus, when jitter is seeded, a deterministic
    /// increment in `[0, base/2]` drawn from `(seed, attempt)`.
    pub fn backoff_wait(&self, attempt: u32) -> u64 {
        let base = self.backoff_base << (attempt.saturating_sub(1)).min(63);
        if self.jitter_seed == 0 || base == 0 {
            return base;
        }
        base + splitmix64(self.jitter_seed ^ u64::from(attempt)) % (base / 2 + 1)
    }

    /// Run `op`, retrying transient failures within the attempt and
    /// virtual-time budgets. Every observed fault and every retry is
    /// counted on `counters`.
    pub fn run<T>(
        &self,
        counters: &HealthCounters,
        mut op: impl FnMut() -> Result<T, DiskError>,
    ) -> Result<T, DiskError> {
        let mut elapsed = 0u64;
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    counters.device_faults.fetch_add(1, Ordering::Relaxed);
                    attempt += 1;
                    if !e.is_transient() || attempt >= self.max_attempts {
                        return Err(e);
                    }
                    let wait = self.backoff_wait(attempt);
                    elapsed = elapsed.saturating_add(wait);
                    if elapsed > self.backoff_budget {
                        return Err(e);
                    }
                    counters.retries.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Fault/retry counters shared by a journal and its owner.
#[derive(Debug, Default)]
pub struct HealthCounters {
    /// Device errors observed (before retry absorption).
    pub device_faults: AtomicU64,
    /// Retries issued after transient errors.
    pub retries: AtomicU64,
    /// Healthy→degraded transitions (0 or 1 per mount generation: the
    /// first failure wins and the mount stays degraded).
    pub degraded_flips: AtomicU64,
}

impl HealthCounters {
    /// Device errors observed so far.
    pub fn device_faults(&self) -> u64 {
        self.device_faults.load(Ordering::Relaxed)
    }

    /// Retries issued so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Healthy→degraded transitions so far.
    pub fn degraded_flips(&self) -> u64 {
        self.degraded_flips.load(Ordering::Relaxed)
    }
}

/// The mount's storage health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// The write path is fully functional.
    Healthy,
    /// The device defeated the retry policy: the mount is read-only.
    Degraded {
        /// The error that exhausted the policy.
        cause: DiskError,
        /// Sequence number of the first record that failed to persist
        /// (nothing at or after this seq is durable in this generation).
        failed_at_seq: u64,
    },
}

impl Health {
    /// Whether the mount has flipped to read-only degraded mode.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Health::Degraded { .. })
    }
}

/// Fixed-field digest of a recovery's [`RecoveryStats`], kept `Copy` so
/// [`HealthReport`] stays a plain value: the skipped-record breakdown is
/// collapsed to per-class counts instead of carrying the itemized list.
///
/// [`RecoveryStats`]: crate::fs::RecoveryStats
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoverySummary {
    /// Log generation the mount recovered from.
    pub epoch: u64,
    /// Mutations replayed from the surviving prefix.
    pub ops_replayed: u64,
    /// Total records the recovery scrub refused.
    pub skipped_total: u64,
    /// Skipped: frame intact, tail zeroed (torn write).
    pub torn: u64,
    /// Skipped: frame intact, checksum mismatch (bit rot).
    pub checksum_mismatch: u64,
    /// Skipped: valid record of an older, overwritten generation.
    pub stale_epoch: u64,
    /// Skipped: valid current-generation record stranded past a hole.
    pub orphaned: u64,
    /// Skipped: unframeable bytes (scan stops there).
    pub garbage: u64,
}

impl RecoverySummary {
    /// Build from the scrub's cap-independent census
    /// ([`crate::recovery::SkipTotals`]): the counts stay complete even
    /// when the itemized skip list overflowed its budget.
    pub fn from_totals(
        epoch: u64,
        ops_replayed: u64,
        totals: &crate::recovery::SkipTotals,
    ) -> Self {
        RecoverySummary {
            epoch,
            ops_replayed,
            skipped_total: totals.total,
            torn: totals.torn,
            checksum_mismatch: totals.checksum_mismatch,
            stale_epoch: totals.stale_epoch,
            orphaned: totals.orphaned,
            garbage: totals.garbage,
        }
    }
}

/// One-stop health snapshot for operators and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthReport {
    /// Current mount health.
    pub health: Health,
    /// Device errors observed (before retry absorption).
    pub device_faults: u64,
    /// Retries issued after transient errors.
    pub retries: u64,
    /// Healthy→degraded transitions.
    pub degraded_flips: u64,
    /// Mutation events dropped because the mount was already degraded
    /// (should stay 0: degraded mounts refuse mutations up front).
    pub dropped_events: u64,
    /// How this mount generation came to be: `Some` iff it was produced
    /// by recovery, with the scrub's skipped-record breakdown.
    pub recovery: Option<RecoverySummary>,
}

impl HealthReport {
    /// Hand-rolled JSON rendering — embedded verbatim as the `health`
    /// section of a black-box dump ([`atomfs_obs::dump`]).
    pub fn to_json(&self) -> String {
        // `{:?}` of `Health`/`DiskError` never produces JSON-special
        // characters (quotes, backslashes, control bytes), so the value
        // can be quoted directly.
        let mut s = format!(
            "{{\"health\":\"{:?}\",\"device_faults\":{},\"retries\":{},\
             \"degraded_flips\":{},\"dropped_events\":{}",
            self.health,
            self.device_faults,
            self.retries,
            self.degraded_flips,
            self.dropped_events
        );
        match &self.recovery {
            Some(r) => s.push_str(&format!(
                ",\"recovery\":{{\"epoch\":{},\"ops_replayed\":{},\
                 \"skipped_total\":{},\"torn\":{},\"checksum_mismatch\":{},\
                 \"stale_epoch\":{},\"orphaned\":{},\"garbage\":{}}}",
                r.epoch,
                r.ops_replayed,
                r.skipped_total,
                r.torn,
                r.checksum_mismatch,
                r.stale_epoch,
                r.orphaned,
                r.garbage
            )),
            None => s.push_str(",\"recovery\":null"),
        }
        // Flight-recorder state rides along: a health scrape is exactly
        // when an operator wants to know whether the rings hold a usable
        // last-moments record (and a static `{"rings":0,...}` under
        // `obs-off`).
        s.push_str(",\"flightrec\":");
        s.push_str(&atomfs_obs::flightrec::stats_json());
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DiskOp;

    #[test]
    fn first_try_success_needs_no_retry() {
        let c = HealthCounters::default();
        let r = RetryPolicy::default().run(&c, || Ok::<_, DiskError>(7));
        assert_eq!(r, Ok(7));
        assert_eq!(c.retries(), 0);
        assert_eq!(c.device_faults(), 0);
    }

    #[test]
    fn transient_errors_are_retried_until_success() {
        let c = HealthCounters::default();
        let mut left = 3;
        let r = RetryPolicy::default().run(&c, || {
            if left > 0 {
                left -= 1;
                Err(DiskError::Transient(DiskOp::Write))
            } else {
                Ok(42)
            }
        });
        assert_eq!(r, Ok(42));
        assert_eq!(c.retries(), 3);
        assert_eq!(c.device_faults(), 3);
    }

    #[test]
    fn attempts_are_bounded() {
        let c = HealthCounters::default();
        let mut calls = 0u32;
        let r = RetryPolicy::default().run(&c, || {
            calls += 1;
            Err::<(), _>(DiskError::Transient(DiskOp::Read))
        });
        assert_eq!(r, Err(DiskError::Transient(DiskOp::Read)));
        assert_eq!(calls, RetryPolicy::default().max_attempts);
    }

    #[test]
    fn virtual_budget_limits_attempts_before_the_count_does() {
        let c = HealthCounters::default();
        let policy = RetryPolicy {
            max_attempts: 100,
            backoff_base: 1,
            backoff_budget: 4, // 1 + 2 = 3 ok, +4 = 7 > 4 → stop at 3 retries
            jitter_seed: 0,
        };
        let mut calls = 0u32;
        let _ = policy.run(&c, || {
            calls += 1;
            Err::<(), _>(DiskError::Transient(DiskOp::Flush))
        });
        assert!(calls < 100, "budget never kicked in ({calls} calls)");
    }

    #[test]
    fn permanent_failure_is_not_retried() {
        let c = HealthCounters::default();
        let mut calls = 0u32;
        let r = RetryPolicy::default().run(&c, || {
            calls += 1;
            Err::<(), _>(DiskError::Gone)
        });
        assert_eq!(r, Err(DiskError::Gone));
        assert_eq!(calls, 1);
        assert_eq!(c.retries(), 0);
    }

    #[test]
    fn no_retries_policy_fails_immediately() {
        let c = HealthCounters::default();
        let mut calls = 0u32;
        let _ = RetryPolicy::no_retries().run(&c, || {
            calls += 1;
            Err::<(), _>(DiskError::Transient(DiskOp::Write))
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn unseeded_backoff_is_exactly_exponential() {
        let p = RetryPolicy::default();
        for attempt in 1..=6u32 {
            assert_eq!(p.backoff_wait(attempt), 1u64 << (attempt - 1));
        }
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default().with_jitter(0xABCD);
        let q = RetryPolicy::default().with_jitter(0xABCD);
        for attempt in 1..=10u32 {
            let base = 1u64 << (attempt - 1);
            let w = p.backoff_wait(attempt);
            assert_eq!(w, q.backoff_wait(attempt), "same seed, same schedule");
            assert!(w >= base && w <= base + base / 2, "jitter stays in [0, base/2]");
        }
    }

    #[test]
    fn reseeded_policies_desynchronize() {
        let base = RetryPolicy::default().with_jitter(7);
        let a = base.reseeded(0);
        let b = base.reseeded(1);
        assert_ne!(a.jitter_seed, b.jitter_seed);
        assert!(
            (2..=10u32).any(|n| a.backoff_wait(n) != b.backoff_wait(n)),
            "sibling schedules should diverge somewhere"
        );
        // Reseeding an unjittered policy is the identity: determinism of
        // the exact exponential waits is preserved.
        assert_eq!(RetryPolicy::default().reseeded(3), RetryPolicy::default());
    }

    #[test]
    fn health_predicates() {
        assert!(!Health::Healthy.is_degraded());
        assert!(Health::Degraded {
            cause: DiskError::Gone,
            failed_at_seq: 3
        }
        .is_degraded());
    }
}
