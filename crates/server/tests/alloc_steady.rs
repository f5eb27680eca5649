//! Steady-state allocation test for the reply hot path.
//!
//! The shared counting allocator (`atomfs_obs::alloc`) counts this
//! thread's allocations; the test models a connection thread's loop
//! over its two reused buffers — refill the frame buffer with the next
//! request, decode it borrowed, fill a `read` reply in place in the
//! output buffer, and `clear()` the output once a window is flushed.
//! After warming both buffers to the capacity their roles need, the
//! loop runs many more times and the allocation count must not move at
//! all. This pins the "zero allocation in steady state"
//! claim as a regression test rather than a code comment.

use atomfs_obs::alloc::{measure, Counting};
use atomfs_server::wire::{self, decode_request_frame, encode_request_frame, ReqView};
use atomfs_vfs::FsError;

#[global_allocator]
static A: Counting = Counting;

/// Requests answered per flush of the output buffer.
const WINDOW: usize = 4;

/// The file every read is served from.
const FILE_LEN: usize = 6000;

/// A positional read of `file`, as `FileSystem::read` performs it.
fn read_at(file: &[u8], offset: u64, buf: &mut [u8]) -> Result<usize, FsError> {
    let at = (offset as usize).min(file.len());
    let n = buf.len().min(file.len() - at);
    buf[..n].copy_from_slice(&file[at..at + n]);
    Ok(n)
}

/// One request through the connection thread's hot path, sans socket:
/// refill the reused frame buffer, decode it borrowed, and append the
/// reply to the output buffer — a read's payload filled in place.
fn one_request(frame: &mut Vec<u8>, out: &mut Vec<u8>, request_bytes: &[u8], file: &[u8]) {
    frame.clear();
    frame.extend_from_slice(request_bytes);
    // Borrowed decode, no field allocation.
    let (tag, req, _) = decode_request_frame(frame).expect("valid");
    match req {
        ReqView::Read { offset, len, .. } | ReqView::PRead { offset, len, .. } => {
            wire::encode_response_read(out, tag, len as usize, |buf| read_at(file, offset, buf))
        }
        _ => wire::encode_response_unit(out, tag),
    }
}

/// One flush cycle: [`WINDOW`] replies appended, then the output buffer
/// cleared as the flush leaves it.
fn hot_cycle(frame: &mut Vec<u8>, out: &mut Vec<u8>, requests: &[Vec<u8>], file: &[u8]) {
    for request_bytes in requests.iter().cycle().take(WINDOW) {
        one_request(frame, out, request_bytes, file);
    }
    out.clear();
}

#[test]
fn steady_state_reply_path_allocates_nothing() {
    let file: Vec<u8> = (0..FILE_LEN).map(|i| i as u8).collect();
    // A full read, a read the end of the file cuts short, a descriptor
    // read, and a request without a data reply.
    let reqs = [
        ReqView::Read {
            path: "/dir/file-with-a-realistic-name",
            offset: 0,
            len: 4096,
        },
        ReqView::Read {
            path: "/dir/file-with-a-realistic-name",
            offset: 4096,
            len: 4096,
        },
        ReqView::PRead {
            fd: 3,
            offset: 100,
            len: 512,
        },
        ReqView::Stat { path: "/dir" },
    ];
    let requests: Vec<Vec<u8>> = reqs
        .iter()
        .enumerate()
        .map(|(tag, req)| {
            let mut bytes = Vec::new();
            encode_request_frame(&mut bytes, tag as u64, req);
            bytes
        })
        .collect();

    // The replies are whole frames: the short read is trimmed to what
    // the file held.
    let mut frame = Vec::new();
    let mut out = Vec::new();
    for r in &requests {
        one_request(&mut frame, &mut out, r, &file);
    }
    let mut lens = Vec::new();
    let mut rest = &out[..];
    while !rest.is_empty() {
        let (_, rsp, n) = wire::decode_response_frame(rest).expect("reply frame");
        lens.push(match rsp {
            atomfs_server::Response::Data(d) => d.len(),
            _ => 0,
        });
        rest = &rest[n..];
    }
    assert_eq!(lens, [4096, FILE_LEN - 4096, 512, 0]);

    // The connection thread owns its frame and output buffers and reuses
    // them for every request. Warm: let both reach working capacity.
    for _ in 0..64 {
        hot_cycle(&mut frame, &mut out, &requests, &file);
    }

    let delta = measure(|| {
        for _ in 0..1000 {
            hot_cycle(&mut frame, &mut out, &requests, &file);
        }
    })
    .allocs;
    assert_eq!(
        delta, 0,
        "hot reply path allocated {delta} times over 1000 warmed cycles"
    );
}
