//! Thread-slot assignment for everything sharded per thread.
//!
//! Every OS thread takes one process-global round-robin slot for its
//! lifetime, and each sharded structure maps the slot onto its own
//! power-of-two shard array: this crate's metrics, the trace recorder's
//! `ShardedSink` segments and the core's allocator magazines. A thread
//! therefore always writes the same shard of a given structure, keeping
//! the hot path free of cross-thread cache-line traffic as long as
//! threads at most lightly outnumber shards.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's stable slot index: assigned round-robin from one
/// process-global counter on the thread's first call, then fixed for the
/// thread's lifetime. Mask it with a power-of-two shard count minus one.
pub fn thread_slot() -> usize {
    SLOT.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
            s.set(v);
            v
        }
    })
}

/// Default shard count: the host's parallelism, capped (shards cost
/// memory per histogram) and rounded up to a power of two.
pub(crate) fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8)
        .min(16)
        .next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_is_stable_per_thread() {
        assert_eq!(thread_slot(), thread_slot());
        let other = std::thread::spawn(|| (thread_slot(), thread_slot()))
            .join()
            .unwrap();
        assert_eq!(other.0, other.1);
    }

    #[test]
    fn default_shards_is_power_of_two() {
        assert!(default_shards().is_power_of_two());
    }
}
