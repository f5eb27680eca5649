//! Trace-to-script conversion and cost models.
//!
//! [`scripts_from_trace`] turns the event trace of an instrumented file
//! system run into per-operation simulator scripts: `Lock`/`Unlock`
//! become `Acquire`/`Release` of the same inode ids, and a [`CostModel`]
//! inserts virtual work — per lock hop, per mutation, per byte of data
//! moved, and per operation *outside* any lock (the deployment overhead:
//! FUSE round trip or syscall entry, plus VFS-side path work).
//!
//! Two kernel-side mechanisms the paper highlights are modelled because
//! they shape Figure 11:
//!
//! * **kernel caches** (§6): VFS/page-cache can serve read-only
//!   operations without entering the file system at all — which is why
//!   the read-heavy Webproxy personality still scales under the big-lock
//!   variant. A cache-hit read costs only the VFS work and takes no FS
//!   locks (and, for the big-lock configuration, bypasses the big lock).
//! * **lockless path walk** (ext4/RCU): the in-kernel baseline resolves
//!   paths without per-inode locks, locking only the inodes it mutates.

use atomfs_trace::{Event, MicroOp, OpDesc};

use crate::engine::{SimEvent, ThreadPlan, Time};

/// Virtual lock id reserved for the global big lock.
pub const BIG_LOCK: u64 = u64::MAX;

/// Virtual-time costs, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Deployment cost per FS-entering operation, outside all locks
    /// (FUSE ≈ 6 µs round trip; in-kernel syscall ≈ 0.7 µs).
    pub per_op_overhead: Time,
    /// VFS-side lookup work per operation (dcache walk), outside the FS.
    pub vfs_lookup: Time,
    /// Cost of each lock/lookup step inside the FS.
    pub per_lock_step: Time,
    /// Cost of each inode mutation, excluding data movement.
    pub per_mutation: Time,
    /// Cost per byte of file data moved, in milli-ns (150 ≈ 6.6 GB/s).
    pub per_byte_milli: Time,
    /// Wrap the in-FS portion of every operation in one global lock
    /// (the AtomFS-biglock configuration).
    pub big_lock: bool,
    /// Percentage (0–100) of read-only operations served entirely from
    /// kernel caches, never entering the FS (§6).
    pub cache_hit_pct: u8,
    /// Resolve paths without locks (RCU walk); only locks held across a
    /// mutation are kept. Models the in-kernel ext4 baseline.
    pub lockless_walk: bool,
}

impl CostModel {
    /// AtomFS under FUSE (the paper's deployment).
    pub fn atomfs_fuse() -> Self {
        CostModel {
            per_op_overhead: 14_000,
            vfs_lookup: 1_200,
            per_lock_step: 1_000,
            per_mutation: 400,
            per_byte_milli: 150,
            big_lock: false,
            cache_hit_pct: 85,
            lockless_walk: false,
        }
    }

    /// AtomFS-biglock under FUSE.
    pub fn biglock_fuse() -> Self {
        CostModel {
            big_lock: true,
            ..Self::atomfs_fuse()
        }
    }

    /// An in-kernel file system with RCU path walk (the ext4 stand-in).
    pub fn ext4_syscall() -> Self {
        CostModel {
            per_op_overhead: 700,
            vfs_lookup: 600,
            per_lock_step: 150,
            per_mutation: 300,
            per_byte_milli: 150,
            big_lock: false,
            cache_hit_pct: 85,
            lockless_walk: true,
        }
    }

    fn data_bytes(op: &OpDesc) -> u64 {
        match op {
            OpDesc::Read { len, .. } => *len as u64,
            OpDesc::Write { data, .. } => data.len() as u64,
            _ => 0,
        }
    }

    fn is_read_only(op: &OpDesc) -> bool {
        matches!(
            op,
            OpDesc::Stat { .. } | OpDesc::Readdir { .. } | OpDesc::Read { .. }
        )
    }
}

/// One operation's script (events between `OpBegin` and `OpEnd`).
#[derive(Debug, Clone, Default)]
pub struct OpScript {
    /// Simulator events for this operation.
    pub events: Vec<SimEvent>,
}

/// Deterministic per-op hash for the cache-hit decision.
fn op_hash(index: usize, op: &OpDesc) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325 ^ index as u64;
    for b in op.kind().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    for c in op.path() {
        for b in c.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Raw per-op event list plus metadata, before cost weighting.
struct RawOp {
    op: OpDesc,
    body: Vec<Event>,
}

/// Stateful trace-to-script converter.
///
/// Worker streams are generated *sequentially* on one shared file system,
/// so a freed inode number is immediately recycled by the next worker's
/// creations — but in a real concurrent run those are distinct,
/// coexisting inodes with distinct locks. The converter therefore assigns
/// every `Create` a fresh virtual lock id (an *incarnation*), shared
/// across all the streams it converts, while pre-existing inodes keep
/// their ids so contention on the shared tree is preserved.
#[derive(Debug)]
pub struct ScriptConverter {
    model: CostModel,
    current_vid: std::collections::HashMap<u64, u64>,
    next_vid: u64,
}

impl ScriptConverter {
    /// A converter with no incarnations yet.
    pub fn new(model: CostModel) -> Self {
        ScriptConverter {
            model,
            current_vid: std::collections::HashMap::new(),
            next_vid: 1 << 40,
        }
    }

    fn vid(&self, ino: u64) -> u64 {
        self.current_vid.get(&ino).copied().unwrap_or(ino)
    }

    /// Convert one worker's single-threaded run into per-op scripts.
    pub fn convert(&mut self, events: &[Event]) -> Vec<OpScript> {
        // Re-map inode ids event by event, bumping incarnations at Create.
        let mapped: Vec<Event> = events
            .iter()
            .map(|ev| match ev {
                Event::Lock { tid, ino, tag } => Event::Lock {
                    tid: *tid,
                    ino: self.vid(*ino),
                    tag: *tag,
                },
                Event::Unlock { tid, ino } => Event::Unlock {
                    tid: *tid,
                    ino: self.vid(*ino),
                },
                Event::OptValidate {
                    tid,
                    chain,
                    locked,
                    ok,
                } => Event::OptValidate {
                    tid: *tid,
                    chain: chain.iter().map(|&ino| self.vid(ino)).collect(),
                    locked: *locked,
                    ok: *ok,
                },
                Event::Mutate { tid, mop } => {
                    if let MicroOp::Create { ino, .. } = mop {
                        let vid = self.next_vid;
                        self.next_vid += 1;
                        self.current_vid.insert(*ino, vid);
                    }
                    Event::Mutate {
                        tid: *tid,
                        mop: mop.clone(),
                    }
                }
                other => other.clone(),
            })
            .collect();
        convert_mapped(&mapped, &self.model)
    }
}

/// Convert a single-threaded run with a one-shot converter (convenience
/// for single-stream uses; see [`ScriptConverter`] for multi-stream).
pub fn scripts_from_trace(events: &[Event], model: &CostModel) -> Vec<OpScript> {
    ScriptConverter::new(*model).convert(events)
}

fn convert_mapped(events: &[Event], model: &CostModel) -> Vec<OpScript> {
    // Split into operations.
    let mut raw: Vec<RawOp> = Vec::new();
    let mut cur: Option<RawOp> = None;
    for ev in events {
        match ev {
            Event::OpBegin { op, .. } => {
                assert!(cur.is_none(), "nested OpBegin in single-threaded trace");
                cur = Some(RawOp {
                    op: op.clone(),
                    body: Vec::new(),
                });
            }
            Event::OpEnd { .. } => raw.push(cur.take().expect("OpEnd without OpBegin")),
            other => {
                if let Some(r) = cur.as_mut() {
                    r.body.push(other.clone());
                }
            }
        }
    }
    assert!(cur.is_none(), "trace ended mid-operation");

    raw.iter()
        .enumerate()
        .map(|(i, r)| weigh_op(i, r, model))
        .collect()
}

fn weigh_op(index: usize, raw: &RawOp, model: &CostModel) -> OpScript {
    let bytes = CostModel::data_bytes(&raw.op);
    let data_work = bytes * model.per_byte_milli / 1000;

    // Kernel-cache hit: the request never reaches the file system.
    if CostModel::is_read_only(&raw.op)
        && (op_hash(index, &raw.op) % 100) < u64::from(model.cache_hit_pct)
    {
        return OpScript {
            events: vec![SimEvent::Work(model.vfs_lookup + data_work)],
        };
    }

    // Which lock intervals to keep: all of them, or (lockless walk) only
    // those with a mutation inside.
    let keep = |body: &[Event], acquire_pos: usize, ino: u64| -> bool {
        if !model.lockless_walk {
            return true;
        }
        // Find the matching unlock and look for a mutation in between.
        let mut depth = 0;
        for e in &body[acquire_pos + 1..] {
            match e {
                Event::Lock { ino: i2, .. } if *i2 == ino => depth += 1,
                Event::Unlock { ino: i2, .. } if *i2 == ino => {
                    if depth == 0 {
                        return false;
                    }
                    depth -= 1;
                }
                Event::Mutate { .. } => return true,
                _ => {}
            }
        }
        // Held to the end of the op (no unlock recorded): keep.
        true
    };

    let mut events = Vec::new();
    // Request path: deployment hop + VFS work, outside all FS locks.
    events.push(SimEvent::Work(model.per_op_overhead / 2 + model.vfs_lookup));
    if model.big_lock {
        events.push(SimEvent::Acquire(BIG_LOCK));
    }
    let mut dropped: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for (pos, ev) in raw.body.iter().enumerate() {
        let acquired = match ev {
            Event::Lock { ino, .. } => Some(*ino),
            // An optimistic attempt: each lockless lookup on its chain
            // costs the same per-component work as a locked step but
            // takes no lock. A granted claim that announces its lock
            // then takes it like a `Lock`.
            Event::OptValidate {
                chain, locked, ok, ..
            } => {
                events.push(SimEvent::Work(model.per_lock_step * chain.len() as u64));
                chain.last().copied().filter(|_| *locked && *ok)
            }
            Event::Unlock { ino, .. } => {
                if !dropped.remove(ino) {
                    events.push(SimEvent::Release(*ino));
                }
                None
            }
            Event::Mutate { mop, .. } => {
                let mbytes = match mop {
                    MicroOp::SetData { old, new, .. } => (old.len() + new.len()) as u64,
                    _ => 0,
                };
                events.push(SimEvent::Work(
                    model.per_mutation + mbytes * model.per_byte_milli / 1000,
                ));
                None
            }
            Event::Lp { .. } => None,
            Event::OpBegin { .. } | Event::OpEnd { .. } => unreachable!("split above"),
        };
        if let Some(ino) = acquired {
            if keep(&raw.body, pos, ino) {
                events.push(SimEvent::Acquire(ino));
            } else {
                dropped.insert(ino);
            }
            // The lookup step costs the same either way.
            events.push(SimEvent::Work(model.per_lock_step));
        }
    }
    if model.big_lock {
        events.push(SimEvent::Release(BIG_LOCK));
    }
    // Reply path: data copy to/from the caller plus the return hop.
    events.push(SimEvent::Work(model.per_op_overhead / 2 + data_work));
    OpScript { events }
}

/// Assemble a thread plan from one worker's op scripts.
pub fn plan_from_scripts(scripts: &[OpScript]) -> ThreadPlan {
    ThreadPlan {
        events: scripts
            .iter()
            .flat_map(|s| s.events.iter().copied())
            .collect(),
        ops: scripts.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use atomfs_trace::{BufferSink, TraceSink};
    use atomfs_vfs::FileSystem;
    use std::sync::Arc;

    fn trace_of(ops: impl FnOnce(&atomfs::AtomFs)) -> Vec<Event> {
        let sink = Arc::new(BufferSink::new());
        let fs = atomfs::AtomFs::traced(sink.clone() as Arc<dyn TraceSink>);
        ops(&fs);
        sink.take()
    }

    fn no_cache(mut m: CostModel) -> CostModel {
        m.cache_hit_pct = 0;
        m
    }

    fn acquires(s: &OpScript) -> usize {
        s.events
            .iter()
            .filter(|e| matches!(e, SimEvent::Acquire(_)))
            .count()
    }

    #[test]
    fn scripts_preserve_lock_structure() {
        let trace = trace_of(|fs| {
            fs.mkdir("/a").unwrap();
            fs.mkdir("/a/b").unwrap();
        });
        let model = no_cache(CostModel::atomfs_fuse());
        let scripts = scripts_from_trace(&trace, &model);
        assert_eq!(scripts.len(), 2);
        // The optimistic walk reaches each parent locklessly, so every
        // mkdir acquires exactly one lock: the directory it mutates.
        assert_eq!(acquires(&scripts[0]), 1);
        assert_eq!(acquires(&scripts[1]), 1);
        // The deeper path still pays the extra per-component walk step.
        let work = |s: &OpScript| -> u64 {
            s.events
                .iter()
                .map(|e| match e {
                    SimEvent::Work(t) => *t,
                    _ => 0,
                })
                .sum()
        };
        assert_eq!(work(&scripts[1]), work(&scripts[0]) + model.per_lock_step);
    }

    #[test]
    fn scripts_are_balanced_and_simulate() {
        let trace = trace_of(|fs| {
            fs.mkdir("/d").unwrap();
            fs.mknod("/d/f").unwrap();
            fs.write("/d/f", 0, &[7u8; 8192]).unwrap();
            let mut buf = [0u8; 4096];
            fs.read("/d/f", 0, &mut buf).unwrap();
            fs.rename("/d/f", "/d/g").unwrap();
            fs.unlink("/d/g").unwrap();
        });
        for model in [
            no_cache(CostModel::atomfs_fuse()),
            no_cache(CostModel::biglock_fuse()),
            no_cache(CostModel::ext4_syscall()),
            CostModel::atomfs_fuse(),
            CostModel::ext4_syscall(),
        ] {
            let scripts = scripts_from_trace(&trace, &model);
            let plan = plan_from_scripts(&scripts);
            let r = simulate(&[plan]);
            assert_eq!(r.ops, 6);
            assert!(r.makespan > 0);
        }
    }

    #[test]
    fn cache_hits_take_no_locks() {
        let trace = trace_of(|fs| {
            fs.mknod("/f").unwrap();
            for _ in 0..50 {
                fs.stat("/f").unwrap();
            }
        });
        let mut always = CostModel::atomfs_fuse();
        always.cache_hit_pct = 100;
        let scripts = scripts_from_trace(&trace, &always);
        // The mknod still locks; every stat is served by the kernel cache.
        assert!(acquires(&scripts[0]) >= 1);
        for s in &scripts[1..] {
            assert_eq!(acquires(s), 0);
            assert_eq!(s.events.len(), 1);
        }
    }

    #[test]
    fn lockless_walk_keeps_only_mutated_locks() {
        let trace = trace_of(|fs| {
            fs.mkdir("/a").unwrap();
            fs.mkdir("/a/b").unwrap();
            fs.mknod("/a/b/f").unwrap(); // walk locks root, a; mutates b only
            fs.stat("/a/b/f").unwrap(); // read-only: no locks at all
        });
        let model = no_cache(CostModel::ext4_syscall());
        let scripts = scripts_from_trace(&trace, &model);
        // mknod(/a/b/f): only /a/b (the mutated parent) stays locked.
        assert_eq!(acquires(&scripts[2]), 1);
        // stat: lockless.
        assert_eq!(acquires(&scripts[3]), 0);
        // Balanced: simulation does not panic.
        simulate(&[plan_from_scripts(&scripts)]);
    }

    #[test]
    fn big_lock_serializes_in_fs_portion() {
        let trace = trace_of(|fs| {
            for i in 0..5 {
                fs.mknod(&format!("/f{i}")).unwrap();
            }
        });
        let fine = plan_from_scripts(&scripts_from_trace(
            &trace,
            &no_cache(CostModel::atomfs_fuse()),
        ));
        let big = plan_from_scripts(&scripts_from_trace(
            &trace,
            &no_cache(CostModel::biglock_fuse()),
        ));
        let r_fine = simulate(&[fine.clone(), fine]);
        let r_big = simulate(&[big.clone(), big]);
        assert!(
            r_big.makespan >= r_fine.makespan,
            "big lock cannot be faster"
        );
    }

    #[test]
    fn parallel_speedup_shows_up_in_virtual_time() {
        // Two threads working in disjoint directories scale ~2x under
        // fine-grained locking.
        let sink = Arc::new(BufferSink::new());
        let fs = atomfs::AtomFs::traced(sink.clone() as Arc<dyn TraceSink>);
        fs.mkdir("/t0").unwrap();
        fs.mkdir("/t1").unwrap();
        sink.take(); // discard setup
        let mut plans = Vec::new();
        for t in 0..2 {
            for i in 0..20 {
                fs.mknod(&format!("/t{t}/f{i}")).unwrap();
            }
            let scripts = scripts_from_trace(&sink.take(), &no_cache(CostModel::atomfs_fuse()));
            plans.push(plan_from_scripts(&scripts));
        }
        let serial: u64 = plans
            .iter()
            .map(|p| simulate(std::slice::from_ref(p)).makespan)
            .sum();
        let parallel = simulate(&plans).makespan;
        let speedup = serial as f64 / parallel as f64;
        assert!(
            speedup > 1.5,
            "disjoint dirs should scale, got {speedup:.2}"
        );
    }

    #[test]
    fn cache_decision_is_deterministic() {
        let trace = trace_of(|fs| {
            fs.mknod("/f").unwrap();
            fs.stat("/f").unwrap();
        });
        let a = scripts_from_trace(&trace, &CostModel::atomfs_fuse());
        let b = scripts_from_trace(&trace, &CostModel::atomfs_fuse());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.events, y.events);
        }
    }
}
