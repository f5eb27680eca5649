//! Ablation: synchronization discipline (§5.1).
//!
//! Compares the per-operation cost of the three designs the paper
//! discusses for meeting the non-bypassable criterion — lock coupling
//! (AtomFS), one big lock, and Linux-VFS-style traversal retry — plus the
//! sequential specification (`SeqFs`) for reference, on an identical single-threaded
//! operation mix. (Multicore behaviour is covered by the `fig11_scalability`
//! experiment via the lock simulator; this bench isolates the
//! uncontended overhead each discipline pays.) Run with
//! `cargo bench -p atomfs-bench --bench ablation_sync`.

use std::hint::black_box;

use atomfs::AtomFs;
use atomfs_baselines::{BigLockFs, RetryFs, SeqFs};
use atomfs_bench::report::{time_case, Table, TIMING_HEADER};
use atomfs_vfs::FileSystem;

fn mixed_ops(fs: &dyn FileSystem, round: &mut u64) {
    let r = *round;
    *round += 1;
    let f = format!("/work/f{}", r % 8);
    let g = format!("/work/g{}", r % 8);
    let _ = fs.mknod(&f);
    let _ = fs.write(&f, 0, b"ablation payload");
    let _ = fs.stat(&f);
    let mut buf = [0u8; 16];
    let _ = fs.read(&f, 0, &mut buf);
    let _ = fs.rename(&f, &g);
    let _ = fs.unlink(&g);
    black_box(buf);
}

fn bench_sync_ablation(t: &mut Table) {
    let systems: Vec<(&str, Box<dyn FileSystem>)> = vec![
        ("lock_coupling", Box::new(AtomFs::new())),
        ("big_lock", Box::new(BigLockFs::new(AtomFs::new()))),
        ("traversal_retry", Box::new(RetryFs::new())),
        ("sequential", Box::new(SeqFs::new())),
    ];
    for (name, fs) in systems {
        fs.mkdir("/work").unwrap();
        let mut round = 0u64;
        time_case(t, "sync_discipline", name, 1, || {
            mixed_ops(&*fs, &mut round)
        });
    }
}

fn bench_deep_walk_ablation(t: &mut Table) {
    // Walk-dominated cost: stat at depth 12 compares a coupled walk
    // against a retry walk (which locks one inode at a time but checks
    // the rename seqlock) and a plain descent of the specification state.
    let depth = 12usize;
    let mk = |fs: &dyn FileSystem| {
        let mut path = String::new();
        for i in 0..depth {
            path.push_str(&format!("/n{i}"));
            fs.mkdir(&path).unwrap();
        }
        path
    };
    let atom = AtomFs::new();
    let p1 = mk(&atom);
    time_case(t, "deep_walk", "lock_coupling", 1, || {
        atom.stat(&p1).unwrap()
    });
    let retry = RetryFs::new();
    let p2 = mk(&retry);
    time_case(t, "deep_walk", "traversal_retry", 1, || {
        retry.stat(&p2).unwrap()
    });
    let seq = SeqFs::new();
    let p3 = mk(&seq);
    time_case(t, "deep_walk", "sequential", 1, || seq.stat(&p3).unwrap());
}

fn main() {
    let mut t = Table::new(&TIMING_HEADER);
    bench_sync_ablation(&mut t);
    bench_deep_walk_ablation(&mut t);
    t.print();
}
