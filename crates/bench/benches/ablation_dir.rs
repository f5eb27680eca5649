//! Ablation: directory representation (§6).
//!
//! The paper's AtomFS uses "a hash table followed by linked lists for
//! directory lookups". The shipped index (`FastDir`) is hashed too, but
//! open-addressed so the optimistic walk can probe it without the lock.
//! This bench compares it against the obvious alternative, an ordered map
//! (`BTreeMap`), across directory sizes — justifying the design choice
//! for lookup-heavy workloads. Run with `cargo bench -p atomfs-bench
//! --bench ablation_dir`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

use atomfs::epoch;
use atomfs::fastdir::FastDir;
use atomfs::table::{InodeRef, InodeSlot};
use atomfs_bench::report::{time_case, Table, TIMING_HEADER};
use atomfs_vfs::FileType;

/// `n` file inodes numbered from 2 (the index reserves inode 0).
fn children(n: usize) -> Vec<InodeRef> {
    (0..n)
        .map(|i| Arc::new(InodeSlot::new(i as u64 + 2, FileType::File)))
        .collect()
}

/// 64 lockless probes per call under one epoch pin, as an optimistic
/// walk makes them: the last column is lookups/s.
fn bench_lookup(t: &mut Table) {
    for size in [16usize, 256, 4096, 16384] {
        let hash = FastDir::new();
        let mut btree = BTreeMap::new();
        for (i, child) in children(size).iter().enumerate() {
            hash.insert(&format!("entry{i}"), child);
            btree.insert(format!("entry{i}"), child.ino());
        }
        let probe: Vec<String> = (0..64).map(|i| format!("entry{}", i * size / 64)).collect();
        let probes = probe.len() as u64;
        time_case(t, "dir_lookup", &format!("fastdir/{size}"), probes, || {
            let guard = epoch::pin();
            for p in &probe {
                black_box(hash.lookup(&guard, p).map(|(ino, _)| ino));
            }
        });
        time_case(t, "dir_lookup", &format!("btreemap/{size}"), probes, || {
            for p in &probe {
                black_box(btree.get(p));
            }
        });
    }
}

/// `n` inserts then `n` removes per call: the last column is entries/s.
fn bench_insert_remove(t: &mut Table) {
    for n in [256usize, 4096] {
        let kids = children(n);
        time_case(
            t,
            "dir_insert_remove",
            &format!("fastdir/{n}"),
            n as u64,
            || {
                let d = FastDir::new();
                for (i, child) in kids.iter().enumerate() {
                    d.insert(&format!("e{i}"), child);
                }
                for i in 0..n {
                    d.remove(&format!("e{i}"));
                }
                d.len()
            },
        );
        time_case(
            t,
            "dir_insert_remove",
            &format!("btreemap/{n}"),
            n as u64,
            || {
                let mut d = BTreeMap::new();
                for (i, child) in kids.iter().enumerate() {
                    d.insert(format!("e{i}"), child.ino());
                }
                for i in 0..n {
                    d.remove(&format!("e{i}"));
                }
                d.len()
            },
        );
    }
}

fn main() {
    let mut t = Table::new(&TIMING_HEADER);
    bench_lookup(&mut t);
    bench_insert_remove(&mut t);
    t.print();
}
