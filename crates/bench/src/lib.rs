//! Experiment harness for the AtomFS reproduction.
//!
//! One binary per paper table/figure or CI gate (see DESIGN.md's
//! experiment index), each with the file it writes in the current
//! directory and the CI job that runs it:
//!
//! | binary | measures | writes | CI job |
//! |---|---|---|---|
//! | `fig10_apps` | Figure 10, application running times | none | none |
//! | `fig11_scalability` | Figure 11(a)/(b), Filebench speedups | none | none |
//! | `interdep_study` | §3.2 path inter-dependency study | none | `checker-storm` |
//! | `conformance` | xfstests analog (§6's 418/451 scorecard) | none | none |
//! | `loc_table` | Table 2 inventory | none | none |
//! | `metrics_overhead` | metrics on vs detached, ABBA | `BENCH_obs.json` | `obs-overhead` |
//! | `flightrec_overhead` | spans + flight recorder on vs off, ABBA | `BENCH_flightrec.json`, `BLACKBOX_sample*.json` | `flightrec-overhead` |
//! | `walk_fastpath` | optimistic vs lock-coupled walk, simulated cores | `BENCH_walk.json` | `walk-fastpath` |
//! | `journal_sharded` | group-commit scaling over shards | `BENCH_journal_sharded.json` | `journal-sharded` |
//! | `serve_storm` | pipelined vs serial RPC | `BENCH_serve.json` | `serving-throughput` |
//! | `checker_stream` | streaming-checker pump vs raw emit | `BENCH_check.json` | `checker-stream` |
//!
//! Their shared timing, statistics, plan capture, JSON writer and
//! argument split live in [`harness`].
//!
//! Micro/ablation benchmarks live in `benches/`: plain `main`s, run by
//! `cargo bench -p atomfs-bench`, each printing a [`report::Table`] timed
//! by [`report::time_case`].

pub mod harness;
pub mod report;
pub mod setups;
