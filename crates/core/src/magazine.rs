//! Per-thread magazine allocator over a dense index range.
//!
//! Both of the core's allocators hand out small integers from a fixed
//! range: the [`BlockStore`](crate::blocks::BlockStore) its block
//! indices, the [`InodeTable`](crate::table::InodeTable) its inode
//! numbers. [`Magazines`] is the one allocator behind both, after
//! Bonwick & Adams, "Magazines and Vmem" (USENIX ATC 2001):
//!
//! * **Per thread:** a bounded *magazine* of free indices per thread slot
//!   ([`atomfs_obs::shard::thread_slot`] masked to [`SLOTS`]), a padded
//!   mutex that only the threads of that slot take in the steady state.
//!   A thread frees into and allocates from its own magazine, so an
//!   alloc/free pair touches no cache line another thread writes.
//! * **Shared:** one *depot* of free indices, touched only when a
//!   magazine overflows ([`MAG_CAP`] entries: it gives the depot its
//!   oldest [`BATCH`]) or runs dry (it takes the depot's newest
//!   [`BATCH`]), and one atomic counter of fresh indices.
//!
//! Allocation tries the own magazine, then a depot batch, then a fresh
//! index, and only then steals one entry from any magazine. Fresh comes
//! before stealing so that a single thread filling an empty store (the
//! common setup) never scans the other slots' locks. The bound on a
//! magazine is what keeps this honest: when one thread frees and another
//! allocates, at most [`MAG_CAP`] entries per slot sit stranded while the
//! other thread takes fresh indices, and stealing makes even those
//! reachable, so allocation fails only when every index in the range is
//! in use.
//!
//! A lone thread sees exactly one LIFO free list: the depot followed by
//! its magazine is that list, because overflow moves the magazine's
//! *oldest* entries to the depot's top and a refill moves the depot's top
//! back. Single-threaded numbering is therefore the same as a global
//! free stack followed by fresh indices in ascending order.
//!
//! In Mover Logic terms (PAPERS.md), an operation on a thread's own
//! magazine is a both-mover: it commutes with every other thread's step.
//! The depot lock is the allocator's only scheduling point.
//!
//! Lock order: a magazine, then the depot. Stealing holds no magazine
//! while it takes another's lock.

use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};

use atomfs_obs::shard::thread_slot;
use parking_lot::Mutex;

/// Magazines per allocator (a power of two).
pub(crate) const SLOTS: usize = 16;
/// Most entries a magazine holds.
pub(crate) const MAG_CAP: usize = 64;
/// Entries moved between a magazine and the depot at once.
pub(crate) const BATCH: usize = 32;

/// One thread slot's free entries, padded so neighbouring slots do not
/// false-share.
#[repr(align(64))]
struct Magazine<T>(Mutex<Vec<T>>);

/// Free-index allocator over `first..end`; see the module docs.
pub(crate) struct Magazines<T> {
    mags: Box<[Magazine<T>]>,
    depot: Mutex<Vec<T>>,
    /// The next fresh index; never passes `end`.
    next: AtomicUsize,
    first: usize,
    end: usize,
}

impl<T> Magazines<T>
where
    T: Copy + TryFrom<usize>,
    <T as TryFrom<usize>>::Error: Debug,
{
    /// An allocator whose fresh indices run `first..end` in ascending
    /// order; every index of that range must convert to `T`.
    pub(crate) fn new(first: usize, end: usize) -> Self {
        Magazines {
            mags: (0..SLOTS)
                .map(|_| Magazine(Mutex::new(Vec::with_capacity(MAG_CAP))))
                .collect(),
            depot: Mutex::new(Vec::new()),
            next: AtomicUsize::new(first),
            first,
            end: end.max(first),
        }
    }

    fn own(&self) -> &Mutex<Vec<T>> {
        &self.mags[thread_slot() & (SLOTS - 1)].0
    }

    /// Take a free index, `Some((index, fresh))`, where `fresh` means the
    /// index was never handed out before. `None` when every index of the
    /// range is in use.
    pub(crate) fn alloc(&self) -> Option<(T, bool)> {
        {
            let mut mag = self.own().lock();
            if let Some(x) = mag.pop() {
                return Some((x, false));
            }
            let mut depot = self.depot.lock();
            let from = depot.len().saturating_sub(BATCH);
            mag.extend(depot.drain(from..));
            drop(depot);
            if let Some(x) = mag.pop() {
                return Some((x, false));
            }
        }
        if let Ok(i) = self
            .next
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |i| {
                (i < self.end).then_some(i + 1)
            })
        {
            return Some((T::try_from(i).expect("index range fits the type"), true));
        }
        self.mags
            .iter()
            .find_map(|m| m.0.lock().pop())
            .or_else(|| self.depot.lock().pop())
            .map(|x| (x, false))
    }

    /// Return `x` to the calling thread's magazine; a full magazine first
    /// gives its oldest [`BATCH`] entries to the depot.
    pub(crate) fn free(&self, x: T) {
        let mut mag = self.own().lock();
        if mag.len() >= MAG_CAP {
            self.depot.lock().extend(mag.drain(..BATCH));
        }
        mag.push(x);
    }

    /// Indices handed out and not freed: issued fresh indices minus the
    /// free entries, counted under each lock in turn. Exact when no
    /// thread is allocating or freeing; a diagnostic otherwise.
    pub(crate) fn in_use(&self) -> usize {
        let free =
            self.mags.iter().map(|m| m.0.lock().len()).sum::<usize>() + self.depot.lock().len();
        let issued = self.next.load(Ordering::Relaxed) - self.first;
        issued.saturating_sub(free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_thread_is_one_lifo_list_then_ascending_fresh() {
        let m = Magazines::<u32>::new(0, 1000);
        let got: Vec<u32> = (0..200).map(|_| m.alloc().unwrap().0).collect();
        assert_eq!(got, (0..200).collect::<Vec<_>>());
        // Free enough to spill into the depot several times over.
        for &x in &got {
            m.free(x);
        }
        let again: Vec<(u32, bool)> = (0..201).map(|_| m.alloc().unwrap()).collect();
        let expect: Vec<(u32, bool)> = (0..200)
            .rev()
            .map(|x| (x, false))
            .chain([(200, true)])
            .collect();
        assert_eq!(again, expect);
    }

    #[test]
    fn empty_range_and_exhaustion() {
        let m = Magazines::<u64>::new(5, 3);
        assert_eq!(m.alloc(), None);
        let m = Magazines::<u64>::new(2, 4);
        assert_eq!(m.alloc(), Some((2, true)));
        assert_eq!(m.alloc(), Some((3, true)));
        assert_eq!(m.alloc(), None);
        assert_eq!(m.in_use(), 2);
        m.free(2);
        assert_eq!(m.in_use(), 1);
        assert_eq!(m.alloc(), Some((2, false)));
    }
}
