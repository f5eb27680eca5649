//! Bytes allocated by the specification file system's data path. A
//! `read` or `write` lends its buffer to the spec, and an `unlink` or
//! `rename` that removes a file drops its bytes, so none of them copies
//! a file. The shared counting allocator (`atomfs_obs::alloc`) pins
//! that; it counts per thread, so tests running beside each other do not
//! disturb the figures.

use atomfs_baselines::SeqFs;
use atomfs_obs::alloc::{measure, Counting};
use atomfs_vfs::FileSystem;

#[global_allocator]
static A: Counting = Counting;

const KIB: usize = 1024;

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
    let spent = measure(|| assert_eq!(fs.write("/f", 0, &data), Ok(64 * KIB))).bytes;
    println!("64 KiB write over a 64 KiB file: {spent} bytes allocated");
    assert!(spent < 64 * KIB, "the write copied its data: {spent} bytes");

    let mut buf = vec![0u8; 64 * KIB];
    let spent = measure(|| assert_eq!(fs.read("/f", 0, &mut buf), Ok(64 * KIB))).bytes;
    println!("64 KiB read: {spent} bytes allocated");
    assert!(spent < 64 * KIB, "the read copied the file: {spent} bytes");
    assert_eq!(buf, data);
}

#[test]
fn unlink_copies_no_file() {
    let fs = with_file(1024 * KIB);
    let spent = measure(|| fs.unlink("/f").unwrap()).bytes;
    println!("unlink of a 1 MiB file: {spent} bytes allocated");
    assert!(spent < 4 * KIB, "the unlink copied the file: {spent} bytes");
}

#[test]
fn rename_over_a_file_copies_no_file() {
    let fs = with_file(1024 * KIB);
    fs.mknod("/g").unwrap();
    let spent = measure(|| fs.rename("/g", "/f").unwrap()).bytes;
    println!("rename over a 1 MiB file: {spent} bytes allocated");
    assert!(
        spent < 4 * KIB,
        "the rename copied the victim: {spent} bytes"
    );
    assert_eq!(fs.stat("/f").unwrap().size, 0);
}
