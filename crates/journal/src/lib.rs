//! Crash safety for AtomFS — the paper's other named future work (§6).
//!
//! The paper's AtomFS is in-memory and explicitly excludes crashes, but
//! points at the design it would adopt: decouple the in-memory file
//! system from an on-disk representation via an operation log (the
//! ScaleFS approach it cites). This crate implements that substrate:
//!
//! * [`device::Disk`] — a simulated block device whose crash model
//!   includes out-of-order partial persistence of unflushed writes;
//! * [`wire`] — a checksummed, generation- and epoch-stamped binary
//!   frame format for micro-operation batches, a file update logged as
//!   a redo extent (the bytes it wrote, and a digest of the range it
//!   overwrote);
//! * [`shard`] / [`group_commit`] — the log: `N` independent append
//!   streams (`ShardConfig { shards: 1.. }`, shard chosen by inode
//!   hash), each with its own device region, sequence space, and
//!   retry/quarantine state, coordinated by epoch-based group commit.
//!   Mutations are staged in memory; `sync()` cuts an epoch across all
//!   shards, writes one frame batch per shard and issues one flush
//!   barrier. Renames emit a two-phase intent/seal record pair;
//! * [`recovery`] — scans shards in parallel, stops each scan at the
//!   first torn/corrupt/stale frame, pairs intents with seals, and
//!   admits only the contiguous global stamp prefix, so what survives a
//!   crash is always a *prefix* of the logged history;
//! * [`fs::JournaledFs`] — AtomFS wired to the log through its trace
//!   sink (every inode-granularity mutation is a log record, in global
//!   mutation order), with `sync()` as the durability barrier and
//!   recovery-as-checkpoint (log compaction);
//! * [`faults::FaultyDisk`] — seeded, deterministic fault injection
//!   behind the [`device::BlockDevice`] trait (transient errors,
//!   permanent device failure, torn writes, bit rot), which the
//!   journal's retry/degrade machinery ([`health`]) is tested against:
//!   exhausted retries quarantine the shard (and, once every shard is
//!   dead, flip the mount to read-only degraded mode) instead of losing
//!   acked data or panicking.
//!
//! The correctness story composes with CRL-H: because the log records
//! the redo projection of the micro-operation stream the checker's
//! shadow state replays, crash consistency reduces to prefix
//! consistency of that stream, which the `crash_consistency`
//! integration tests assert under randomized crash injection.
//!
//! Like the paper's discussion, this extension is *outside* the
//! linearizability-checked core: the checker validates in-memory
//! executions; the journal's own tests validate durability.

pub mod device;
pub mod faults;
pub mod fs;
pub mod group_commit;
pub mod health;
pub mod metrics;
pub mod recovery;
pub mod shard;
pub mod wire;

pub use device::{BlockDevice, Disk, DiskError, DiskOp};
pub use faults::{FaultPlan, FaultStats, FaultyDisk};
pub use fs::{materialize, JournaledFs, RecoveryStats};
pub use group_commit::{CommitPhases, ShardedJournalSink};
pub use health::{Health, HealthCounters, HealthReport, RecoverySummary, RetryPolicy};
pub use metrics::register_sharded_journal_metrics;
pub use recovery::{
    recover_sharded, recover_sharded_sequential, scan_shard, RecordClass, ShardScan,
    ShardedRecovered, SkipTotals, SkippedRecord,
};
pub use shard::{shard_of, ShardConfig, ShardGauges, ShardReport, ShardWriter};
