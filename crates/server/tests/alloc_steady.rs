//! Steady-state allocation test for the reply hot path.
//!
//! A counting global allocator wraps `System`; after warming the
//! connection's buffers to the capacity their roles need, the serving
//! cycle — refill the reused frame buffer, decode it borrowed, append
//! the reply to the connection's output buffer, `clear()` that buffer
//! once a window is flushed — is run many more times and the allocation
//! counter must not move at all.
//! This pins the "pooled reply buffers, zero allocation in steady state"
//! claim as a regression test rather than a code comment.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use atomfs_server::wire::{self, decode_request_frame, encode_request_frame, ReqView};
use atomfs_server::BufPool;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

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

/// Requests answered per flush of the output buffer.
const WINDOW: usize = 4;

/// One request through the connection thread's hot path, sans socket:
/// refill the reused frame buffer, decode it borrowed, read into a
/// pooled payload buffer, and append the reply to the output buffer.
fn one_request(
    pool: &BufPool,
    frame: &mut Vec<u8>,
    out: &mut Vec<u8>,
    request_bytes: &[u8],
    payload: &[u8],
) {
    frame.clear();
    frame.extend_from_slice(request_bytes);
    // Borrowed decode, no field allocation.
    let (tag, req, _) = decode_request_frame(frame).expect("valid");
    match req {
        ReqView::Read { len, .. } => {
            let mut data = pool.get();
            let n = (len as usize).min(payload.len());
            data.extend_from_slice(&payload[..n]);
            wire::encode_response_data(out, tag, &data);
            pool.put(data);
        }
        _ => wire::encode_response_unit(out, tag),
    }
}

/// One flush cycle: [`WINDOW`] replies appended, then the output buffer
/// cleared as the flush leaves it.
fn hot_cycle(
    pool: &BufPool,
    frame: &mut Vec<u8>,
    out: &mut Vec<u8>,
    request_bytes: &[u8],
    payload: &[u8],
) {
    for _ in 0..WINDOW {
        one_request(pool, frame, out, request_bytes, payload);
    }
    out.clear();
}

#[test]
fn steady_state_reply_path_allocates_nothing() {
    let pool = BufPool::new(16);
    let payload = vec![0xAB_u8; 4096];
    let mut request_bytes = Vec::new();
    encode_request_frame(
        &mut request_bytes,
        77,
        &ReqView::Read {
            path: "/dir/file-with-a-realistic-name",
            offset: 4096,
            len: 4096,
        },
    );

    // The connection thread takes its frame and output buffers from the
    // pool once and reuses them for every request.
    let mut frame = pool.get();
    let mut out = pool.get();

    // Warm: let every buffer reach its working capacity.
    for _ in 0..64 {
        hot_cycle(&pool, &mut frame, &mut out, &request_bytes, &payload);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    let misses_before = pool.misses();
    for _ in 0..1000 {
        hot_cycle(&pool, &mut frame, &mut out, &request_bytes, &payload);
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "hot reply path allocated {delta} times over 1000 warmed cycles"
    );
    assert_eq!(
        pool.misses(),
        misses_before,
        "every warmed get must recycle a pooled buffer"
    );
    assert!(
        misses_before <= 3,
        "warm-up should need at most one fresh buffer per role"
    );
}
