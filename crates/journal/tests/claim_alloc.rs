//! A journaled mount hands the journal sink every optimistic claim of
//! the file system it logs. A claim carries nothing to log, so the sink
//! decides it by validating alone: no stamp, no frame, and no copy of the
//! claimed chain. A counting global allocator pins the last part.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use atomfs_journal::{BlockDevice, Disk, ShardConfig, ShardedJournalSink};
use atomfs_trace::{Tid, TraceSink};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments,
// so `System`'s guarantees hold; the counter touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static A: Counting = Counting;

#[test]
fn journal_sink_decides_claims_without_logging_or_allocating() {
    let disk = Arc::new(Disk::new()) as Arc<dyn BlockDevice>;
    let sink = ShardedJournalSink::new(disk, ShardConfig::default());
    let chain = [1, 2, 3];
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..1000 {
        let ok = i % 2 == 0;
        assert_eq!(sink.claim(Tid(1), &chain, true, &|| ok), ok);
    }
    assert_eq!(ALLOCS.load(Ordering::Relaxed), before, "a claim allocated");
    assert_eq!(sink.stamps_issued(), 0, "a claim took a stamp");
    sink.sync().expect("an empty sync on a healthy disk");
    assert_eq!(sink.log_bytes(), 0, "a claim reached the log");
}
