//! CRL-H — Concurrent Relational Logic with Helpers, executable edition.
//!
//! This crate reproduces the verification framework of *"Using Concurrent
//! Relational Logic with Helpers for Verifying the AtomFS File System"*
//! (SOSP 2019) as an executable checking system. The paper mechanizes a
//! forward-simulation proof in Coq; here every proof artifact exists as
//! running code that validates *executions* of an instrumented file
//! system:
//!
//! | Paper concept | Module |
//! |---|---|
//! | Abstraction with map spec (Fig. 6) | [`state`] |
//! | Abstract operations / relational specs | [`afs`] |
//! | Helper metadata: ThreadPool, Descriptor, Helplist (§4.3) | [`ghost`] |
//! | `linothers`, linearize-before relation (Fig. 5, §5.2) | [`helper`] |
//! | Abstraction relation with roll-back (§4.4) | [`rollback`] |
//! | Table-1 invariants | [`invariants`] + incremental checks |
//! | Merged R/G transitions (§8) | [`rg`] |
//! | Simulation with helpers (Fig. 7) | [`checker`] |
//! | Linearizability ⇔ refinement cross-check | [`wgl`], [`history`] |
//!
//! # How checking works
//!
//! An instrumented `atomfs::AtomFs` reports every atomic step to a trace
//! sink. The [`checker::LpChecker`] replays those steps, maintaining the
//! abstract file system (stepped at linearization points, with the
//! `linothers` helper run at every rename LP), a shadow concrete state
//! (stepped at mutations), and the ghost state. It validates the
//! abstraction relation by rolling back helped-but-unapplied effects, the
//! non-bypassable and other Table-1 invariants, rely/guarantee transition
//! shape, and that every operation returns exactly what its abstract
//! linearization returned.
//!
//! Running the checker with [`checker::HelperMode::FixedLp`] reproduces
//! the paper's Figure 1: without helping, interleavings exhibiting *path
//! inter-dependency* fail with return-value mismatches.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use atomfs::AtomFs;
//! use atomfs_trace::BufferSink;
//! use atomfs_vfs::FileSystem;
//! use crlh::{CheckerConfig, LpChecker};
//!
//! let sink = Arc::new(BufferSink::new());
//! let fs = AtomFs::traced(sink.clone());
//! fs.mkdir("/a").unwrap();
//! fs.rename("/a", "/b").unwrap();
//! LpChecker::check(CheckerConfig::default(), &sink.take()).assert_ok();
//! ```

pub mod afs;
pub mod checker;
pub mod fastmap;
pub mod ghost;
pub mod helper;
pub mod history;
pub mod invariants;
pub mod metrics;
pub mod rg;
pub mod rollback;
pub mod shardlog;
pub mod state;
pub mod stream;
pub mod wgl;

pub use checker::{
    CheckReport, CheckerConfig, CheckerStats, HelperMode, LpChecker, RelationCadence,
    RetainedState, Violation, ViolationKind,
};
pub use history::History;
pub use metrics::{CheckerMetrics, StreamCheckerMetrics};
pub use shardlog::{
    merge_stamped, merge_stamped_with_windows, verify_pairing, MergedLog, PairingReport, TxnRecord,
};
pub use state::{FsState, Node};
#[doc(hidden)]
pub use stream::stream_test_ops;
pub use stream::{StreamChecker, StreamConfig, StreamStatus};
