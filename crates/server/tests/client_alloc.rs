//! Steady-state allocation test for the client's call path.
//!
//! The client half of the zero-allocation claim: a caller encodes into
//! the connection's reused send buffer, takes the read role and reads
//! its reply through the reused frame buffer, so a warm serial `stat`
//! round trip over loopback allocates nothing on the calling thread and
//! a `read` allocates once — the bytes the reply hands back. A counting
//! global allocator counts only the calling thread's allocations; the
//! server's connection thread runs in the same process and is pinned by
//! `alloc_steady.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use atomfs_server::{serve, RemoteFs, RpcClient, ServerConfig};
use atomfs_vfs::{FileSystem, FsError, FsResult, Metadata};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static A: Counting = Counting;

/// This thread's allocations while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    f();
    COUNTED.with(|c| c.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

const FILE_LEN: u64 = 4096;

/// One file, `/f`, of [`FILE_LEN`] bytes of `0xAB`; nothing else.
struct OneFile;

impl FileSystem for OneFile {
    fn name(&self) -> &'static str {
        "one-file"
    }
    fn mknod(&self, _: &str) -> FsResult<()> {
        Err(FsError::Unsupported)
    }
    fn mkdir(&self, _: &str) -> FsResult<()> {
        Err(FsError::Unsupported)
    }
    fn unlink(&self, _: &str) -> FsResult<()> {
        Err(FsError::Unsupported)
    }
    fn rmdir(&self, _: &str) -> FsResult<()> {
        Err(FsError::Unsupported)
    }
    fn rename(&self, _: &str, _: &str) -> FsResult<()> {
        Err(FsError::Unsupported)
    }
    fn stat(&self, path: &str) -> FsResult<Metadata> {
        match path {
            "/f" => Ok(Metadata::file(2, FILE_LEN)),
            _ => Err(FsError::NotFound),
        }
    }
    fn readdir(&self, _: &str) -> FsResult<Vec<String>> {
        Err(FsError::Unsupported)
    }
    fn read(&self, path: &str, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        if path != "/f" {
            return Err(FsError::NotFound);
        }
        let n = (FILE_LEN.saturating_sub(offset) as usize).min(buf.len());
        buf[..n].fill(0xAB);
        Ok(n)
    }
    fn write(&self, _: &str, _: u64, _: &[u8]) -> FsResult<usize> {
        Err(FsError::Unsupported)
    }
    fn truncate(&self, _: &str, _: u64) -> FsResult<()> {
        Err(FsError::Unsupported)
    }
}

#[test]
fn warm_serial_calls_allocate_nothing_per_stat_and_once_per_read() {
    let srv = serve(Arc::new(OneFile), None, ServerConfig::default()).expect("bind loopback");
    let client = Arc::new(RpcClient::connect(srv.local_addr()).unwrap());
    let fs = RemoteFs::new(Arc::clone(&client));
    let mut buf = vec![0u8; 1024];

    // Warm: the send, receive and slot buffers reach working capacity.
    for _ in 0..64 {
        fs.stat("/f").unwrap();
        fs.read("/f", 0, &mut buf).unwrap();
    }

    const CALLS: u64 = 1000;
    let stats = allocations(|| {
        for _ in 0..CALLS {
            assert_eq!(fs.stat("/f").unwrap().size, FILE_LEN);
        }
    });
    assert_eq!(
        stats, 0,
        "{CALLS} warm stat round trips allocated {stats} times"
    );

    let reads = allocations(|| {
        for i in 0..CALLS {
            let n = fs.read("/f", i % FILE_LEN, &mut buf).unwrap();
            assert!(n > 0);
        }
    });
    assert_eq!(
        reads, CALLS,
        "{CALLS} warm read round trips allocated {reads} times, want one each"
    );
    assert_eq!(client.outstanding(), 0);

    drop(fs);
    drop(client);
    srv.shutdown();
}
