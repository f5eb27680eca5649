//! Linearizability checking of a concurrent stress run.
//!
//! Runs a contended random operation mix from several threads against an
//! instrumented AtomFS that records every atomic step into a
//! `BufferSink` (its mutex order is a legal total order), replays the
//! trace through the CRL-H checker, then prints the checker's
//! statistics: how many operations ran, how many were linearized by
//! helpers, how often the roll-back abstraction relation was validated.
//!
//! ```sh
//! cargo run --release --example linearizability_check [threads] [ops-per-thread] [seed]
//! ```

use std::sync::Arc;

use atomfs::AtomFs;
use atomfs_trace::{set_current_tid, BufferSink, Tid, TraceSink};
use atomfs_workloads::opmix::OpMix;
use crlh::{CheckerConfig, HelperMode, LpChecker, RelationCadence};

fn main() {
    let mut args = std::env::args().skip(1);
    let threads: u32 = args
        .next()
        .map(|s| s.parse().expect("threads"))
        .unwrap_or(8);
    let ops: usize = args.next().map(|s| s.parse().expect("ops")).unwrap_or(200);
    let seed: u64 = args.next().map(|s| s.parse().expect("seed")).unwrap_or(1);

    println!(
        "running {threads} threads x {ops} random ops over a 3-dir contended tree (seed {seed})"
    );
    let cfg = CheckerConfig {
        mode: HelperMode::Helpers,
        relation: RelationCadence::AtUnlock,
        invariants: true,
    };
    let sink = Arc::new(BufferSink::new());
    let fs = Arc::new(AtomFs::traced(sink.clone() as Arc<dyn TraceSink>));
    let mix = OpMix {
        dirs: 3,
        names: 4,
        rename_weight: 5,
    };
    mix.setup(&*fs);

    let start = std::time::Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            set_current_tid(Tid(100 + t));
            mix.run(&*fs, seed * 1000 + u64::from(t), ops);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed();

    drop(fs);
    let report = LpChecker::check(cfg, &sink.take());
    let s = report.stats;
    println!("\nexecution finished in {elapsed:?}");
    println!(
        "operations      : {} begun, {} completed",
        s.ops_begun, s.ops_completed
    );
    println!("rename LPs      : {} ran linothers", s.rename_lps);
    println!(
        "helped ops      : {} (largest single help set: {})",
        s.helps, s.max_helpset
    );
    println!(
        "relation checks : {} roll-back validations",
        s.relation_checks
    );
    println!("violations      : {}", report.violations.len());
    for v in report.violations.iter().take(10) {
        println!("  {v}");
    }
    if report.is_ok() {
        println!("\nVERDICT: every recorded interleaving is linearizable — the");
        println!("return values, invariants, and the roll-back abstraction");
        println!("relation all check out.");
    } else {
        println!("\nVERDICT: VIOLATIONS FOUND (this would be a bug in AtomFS)");
        std::process::exit(1);
    }
}
