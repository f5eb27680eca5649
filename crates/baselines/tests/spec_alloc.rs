//! Bytes allocated by the specification file system's data path. A
//! `read` or `write` lends its buffer to the spec, and an `unlink` or
//! `rename` that removes a file drops its bytes, so none of them copies
//! a file. A counting global allocator pins that; it counts per thread,
//! so tests running beside each other do not disturb the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use atomfs_baselines::SeqFs;
use atomfs_vfs::FileSystem;

struct Counting;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes));
}

fn allocated() -> usize {
    BYTES.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments,
// so `System`'s guarantees hold; the counter is a const-initialised
// thread-local `Cell` and touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static A: Counting = Counting;

const KIB: usize = 1024;

/// The bytes `f` allocates on this thread.
fn bytes_of<R>(f: impl FnOnce() -> R) -> usize {
    let before = allocated();
    let r = f();
    let spent = allocated() - before;
    drop(r);
    spent
}

/// A file system holding `/f` of `len` bytes.
fn with_file(len: usize) -> SeqFs {
    let fs = SeqFs::new();
    fs.mknod("/f").unwrap();
    fs.write("/f", 0, &vec![7u8; len]).unwrap();
    fs
}

#[test]
fn write_and_read_copy_no_file() {
    let fs = with_file(64 * KIB);
    let data = vec![9u8; 64 * KIB];
    let spent = bytes_of(|| assert_eq!(fs.write("/f", 0, &data), Ok(64 * KIB)));
    println!("64 KiB write over a 64 KiB file: {spent} bytes allocated");
    assert!(spent < 64 * KIB, "the write copied its data: {spent} bytes");

    let mut buf = vec![0u8; 64 * KIB];
    let spent = bytes_of(|| assert_eq!(fs.read("/f", 0, &mut buf), Ok(64 * KIB)));
    println!("64 KiB read: {spent} bytes allocated");
    assert!(spent < 64 * KIB, "the read copied the file: {spent} bytes");
    assert_eq!(buf, data);
}

#[test]
fn unlink_copies_no_file() {
    let fs = with_file(1024 * KIB);
    let spent = bytes_of(|| fs.unlink("/f").unwrap());
    println!("unlink of a 1 MiB file: {spent} bytes allocated");
    assert!(spent < 4 * KIB, "the unlink copied the file: {spent} bytes");
}

#[test]
fn rename_over_a_file_copies_no_file() {
    let fs = with_file(1024 * KIB);
    fs.mknod("/g").unwrap();
    let spent = bytes_of(|| fs.rename("/g", "/f").unwrap());
    println!("rename over a 1 MiB file: {spent} bytes allocated");
    assert!(
        spent < 4 * KIB,
        "the rename copied the victim: {spent} bytes"
    );
    assert_eq!(fs.stat("/f").unwrap().size, 0);
}
