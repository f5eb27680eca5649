//! A counting global allocator, for tests that pin what a code path
//! allocates.
//!
//! [`Counting`] forwards every call to [`System`] and adds each
//! allocation to per-thread counters of allocations and bytes. A
//! `realloc` counts as one allocation of its new size, and a free counts
//! nothing. [`measure`] returns what a closure allocated on the calling
//! thread, so tests running beside each other do not disturb each
//! other's figures.
//!
//! Nothing opts in by default. A test binary opts in with one line:
//!
//! ```ignore
//! #[global_allocator]
//! static A: atomfs_obs::alloc::Counting = atomfs_obs::alloc::Counting;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one thread allocated: the number of allocations (a `realloc` is
/// one) and the bytes they asked for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Allocated {
    pub allocs: u64,
    pub bytes: usize,
}

thread_local! {
    static TOTAL: Cell<Allocated> = const { Cell::new(Allocated { allocs: 0, bytes: 0 }) };
}

/// Adds one allocation of `bytes` to this thread's totals. Wrapping:
/// the allocator must never panic, and [`measure`] takes differences.
fn count(bytes: usize) {
    let _ = TOTAL.try_with(|t| {
        let Allocated { allocs, bytes: b } = t.get();
        t.set(Allocated {
            allocs: allocs.wrapping_add(1),
            bytes: b.wrapping_add(bytes),
        })
    });
}

fn total() -> Allocated {
    TOTAL.try_with(Cell::get).unwrap_or_default()
}

/// What `f` allocated on the calling thread. Allocations on other
/// threads, including threads `f` hands work to, are not counted. `f`'s
/// result is dropped after the count is taken. Reads zero unless the
/// binary's `#[global_allocator]` is [`Counting`].
pub fn measure<R>(f: impl FnOnce() -> R) -> Allocated {
    let before = total();
    let r = f();
    let after = total();
    drop(r);
    Allocated {
        allocs: after.allocs.wrapping_sub(before.allocs),
        bytes: after.bytes.wrapping_sub(before.bytes),
    }
}

/// The counting allocator: [`System`] plus the calling thread's counts.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments,
// so `System`'s guarantees hold. The counter is a const-initialised
// thread-local `Cell` with no destructor: updating it allocates nothing,
// so it cannot recurse into the allocator, and `try_with` skips the
// count during thread teardown instead of panicking.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static A: Counting = Counting;

    #[test]
    fn counts_this_threads_allocations_and_bytes() {
        let spent = measure(|| {
            let mut v: Vec<u8> = Vec::with_capacity(100);
            v.reserve_exact(300);
            v
        });
        // One allocation of 100 bytes, one realloc to 300.
        assert_eq!(
            spent,
            Allocated {
                allocs: 2,
                bytes: 400
            }
        );
        let elsewhere = measure(|| std::thread::spawn(|| vec![0u8; 1 << 20]).join());
        assert!(elsewhere.bytes < 1 << 20, "{elsewhere:?}");
        assert_eq!(measure(|| 7), Allocated::default());
    }
}
