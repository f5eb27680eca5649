//! The sharded trace recorder under real concurrency.
//!
//! Three obligations from the recorder's contract (see
//! `crates/trace/src/shard.rs` and DESIGN.md):
//!
//! 1. A multi-threaded OpMix run recorded through [`ShardedSink`] drains
//!    to strictly increasing stamps, and the merged trace passes the full
//!    CRL-H checker (helpers + roll-back relation + all invariants) — the
//!    stamp order really is a legal total order of the atomic steps.
//! 2. Under a deterministic scripted interleaving (GateSink serializes
//!    which thread is emitting at every instant), the sharded recorder
//!    reproduces the reference [`BufferSink`] order event for event.
//! 3. `len()` stays consistent with the stamps issued and with `take()`.
//!
//! A fourth pins the claim contract's default: a wrapper that does not
//! forward `TraceSink::claim` turns every claim into a refusal, which is
//! always safe.

use std::sync::Arc;

use atomfs::AtomFs;
use atomfs_trace::{
    set_current_tid, BufferSink, Event, FanoutSink, GateSink, Inum, ShardedSink, Tid, TraceSink,
};
use atomfs_vfs::FileSystem;
use atomfs_workloads::opmix::OpMix;
use crlh::history::History;
use crlh::{CheckerConfig, HelperMode, LpChecker, RelationCadence};

fn spawn_mix(fs: Arc<AtomFs>, mix: OpMix, threads: u32, ops: usize, tid_base: u32, seed_base: u64) {
    let mut handles = Vec::new();
    for t in 0..threads {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            set_current_tid(Tid(tid_base + t));
            mix.run(&*fs, seed_base + u64::from(t), ops);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// Eight threads of the default contended mix through the sharded
/// recorder: stamps strictly increase across the merged drain and the
/// trace passes the checker with everything switched on.
#[test]
fn sharded_stress_trace_passes_full_checker() {
    for seed in 0..3u64 {
        let sink = Arc::new(ShardedSink::new());
        let fs = Arc::new(AtomFs::traced(sink.clone() as Arc<dyn TraceSink>));
        let mix = OpMix::default();
        mix.setup(&*fs);
        spawn_mix(
            Arc::clone(&fs),
            mix,
            8,
            80,
            5000 + seed as u32 * 100,
            seed * 31,
        );
        assert_eq!(sink.len(), sink.stamps_issued() as usize);
        let stamped = sink.take_stamped();
        assert!(sink.is_empty());
        assert!(
            stamped.windows(2).all(|w| w[0].0 < w[1].0),
            "seed {seed}: merged stamps must strictly increase"
        );
        let report = LpChecker::check_stamped(
            CheckerConfig {
                mode: HelperMode::Helpers,
                relation: RelationCadence::AtUnlock,
                invariants: true,
            },
            &stamped,
        );
        report.assert_ok();
        assert!(report.stats.ops_completed >= 8 * 80);
    }
}

/// A rename-heavy mix maximizes helping (LPs executed on behalf of other
/// threads); the stamp order must still replay cleanly.
#[test]
fn sharded_rename_storm_trace_passes_full_checker() {
    let sink = Arc::new(ShardedSink::with_shards(4));
    let fs = Arc::new(AtomFs::traced(sink.clone() as Arc<dyn TraceSink>));
    let mix = OpMix {
        dirs: 2,
        names: 3,
        rename_weight: 20,
    };
    mix.setup(&*fs);
    spawn_mix(Arc::clone(&fs), mix, 8, 100, 5600, 7);
    let stamped = sink.take_stamped();
    assert!(stamped.windows(2).all(|w| w[0].0 < w[1].0));
    let report = LpChecker::check_stamped(
        CheckerConfig {
            mode: HelperMode::Helpers,
            relation: RelationCadence::AtUnlock,
            invariants: true,
        },
        &stamped,
    );
    report.assert_ok();
}

/// Differential check against the reference recorder: a GateSink scripts
/// the interleaving so exactly one thread emits at every instant, fanning
/// each event into a `BufferSink` (borrowed route) and a `ShardedSink`
/// (owned route, last). With the race removed, the two recorders must
/// agree on the total order event for event — and the interleaved trace
/// itself must be one the checker accepts.
#[test]
fn sharded_matches_buffer_under_scripted_interleaving() {
    let buffer = Arc::new(BufferSink::new());
    let sharded = Arc::new(ShardedSink::new());
    let fanout = FanoutSink(vec![
        Arc::clone(&buffer) as Arc<dyn TraceSink>,
        Arc::clone(&sharded) as Arc<dyn TraceSink>,
    ]);
    let sink = Arc::new(GateSink::new(fanout));
    let fs = Arc::new(AtomFs::traced(sink.clone() as Arc<dyn TraceSink>));
    set_current_tid(Tid(6000));
    fs.mkdir("/a").unwrap();
    fs.mkdir("/b").unwrap();

    // Park the mkdir thread just before its first mutation (it then
    // holds only /a's lock), exactly the Figure-1 setup.
    let gate = sink.add_gate(|e| matches!(e, Event::Mutate { tid, .. } if *tid == Tid(6001)));
    let worker = {
        let fs = Arc::clone(&fs);
        std::thread::spawn(move || {
            set_current_tid(Tid(6001));
            fs.mkdir("/a/x").unwrap();
        })
    };
    sink.wait_parked(gate);

    // While the worker is frozen mid-critical-section, run a full op mix
    // on a disjoint subtree: these events are emitted with no concurrent
    // emitter, so their order is scripted.
    fs.mknod("/b/f").unwrap();
    fs.write("/b/f", 0, b"payload").unwrap();
    fs.rename("/b/f", "/b/g").unwrap();
    let _ = fs.stat("/missing");

    // Release the worker; after the join only the main thread remains.
    sink.open(gate);
    worker.join().unwrap();
    fs.unlink("/b/g").unwrap();

    let reference = buffer.take();
    let merged = sharded.take();
    assert_eq!(reference.len(), merged.len());
    assert_eq!(reference, merged, "recorders disagree on the total order");
    LpChecker::check(
        CheckerConfig {
            mode: HelperMode::Helpers,
            relation: RelationCadence::AtUnlock,
            invariants: true,
        },
        &merged,
    )
    .assert_ok();
}

/// A wrapper shaped like a metering sink that forwards every method but
/// `claim`, so claims fall to the trait default: recorded `ok:false`.
struct EmitOnly(Arc<ShardedSink>);

impl TraceSink for EmitOnly {
    fn emit(&self, event: Event) {
        self.0.emit(event);
    }
    fn emit_ref(&self, event: &Event) {
        self.0.emit_ref(event);
    }
    fn shard_hint(&self, tid: Tid, primary: Inum) {
        self.0.shard_hint(tid, primary);
    }
    fn admit_mutation(&self, primary: Inum) -> bool {
        self.0.admit_mutation(primary)
    }
}

/// Behind a wrapper that does not forward `claim`, every fast-path claim
/// is refused, every operation still completes through the pessimistic
/// walk, and the trace checks clean with helpers and under WGL.
#[test]
fn claims_behind_an_emit_only_wrapper_fall_back_and_check_clean() {
    let sharded = Arc::new(ShardedSink::with_shards(4));
    let fs = Arc::new(AtomFs::traced(
        Arc::new(EmitOnly(Arc::clone(&sharded))) as Arc<dyn TraceSink>
    ));
    let mix = OpMix {
        dirs: 2,
        names: 2,
        rename_weight: 8,
    };
    set_current_tid(Tid(6100));
    mix.setup(&*fs);
    spawn_mix(Arc::clone(&fs), mix, 4, 14, 6101, 31);
    let events = sharded.take();
    let count = |pred: &dyn Fn(&Event) -> bool| events.iter().filter(|e| pred(e)).count();
    assert!(count(&|e| matches!(e, Event::OptValidate { ok: false, .. })) > 0);
    assert_eq!(
        count(&|e| matches!(e, Event::OptValidate { ok: true, .. })),
        0
    );
    assert_eq!(
        count(&|e| matches!(e, Event::OpBegin { .. })),
        count(&|e| matches!(e, Event::OpEnd { .. }))
    );
    let report = LpChecker::check(
        CheckerConfig {
            mode: HelperMode::Helpers,
            relation: RelationCadence::EveryEvent,
            invariants: true,
        },
        &events,
    );
    report.assert_ok();
    assert_eq!(report.stats.opt_claims, 0);
    crlh::wgl::check_linearizable(&History::from_trace(&events))
        .unwrap_or_else(|e| panic!("WGL rejected the fallback trace: {e}"));
}
