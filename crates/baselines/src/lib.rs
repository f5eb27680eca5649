//! Baseline and comparison file systems for the AtomFS reproduction.
//!
//! The paper's evaluation compares AtomFS against ext4, tmpfs, DFSCQ, and
//! a big-lock variant of itself, and discusses Linux VFS's traversal-retry
//! design as the alternative to lock coupling. This crate provides the
//! executable stand-ins (see DESIGN.md for the substitution rationale):
//!
//! | Paper system | Here | Character |
//! |---|---|---|
//! | AtomFS-biglock (§7.3) | [`BigLockFs`]`<atomfs::AtomFs>` | one global lock around every operation |
//! | DFSCQ | [`SeqFs`] (+ managed-runtime overhead shim) | the CRL-H specification behind a mutex: sequential, correct, slow |
//! | tmpfs | [`RwTreeFs`] | the same specification behind a readers/writer lock |
//! | ext4 | `DcacheFs<AtomFs>` without the FUSE shim (built in the bench harness) | in-kernel: dcache + no user/kernel hop |
//! | Linux VFS lookup (§5.1) | [`RetryFs`] | bypassing walks + seqlock revalidation |
//! | — (negative control) | [`BypassFs`] | AtomFS *without* lock coupling; non-linearizable by design |
//!
//! [`SeqFs`] and [`RwTreeFs`] are one [`coarse::SpecFs`] over two locks. They
//! run `crlh::afs`, the specification the CRL-H checker judges AtomFS
//! against, so the comparison systems and the POSIX differential oracle
//! share its semantics and error precedence rather than restating them.

pub mod bypass;
pub mod coarse;
pub mod retryfs;

pub use bypass::BypassFs;
pub use coarse::{BigLockFs, RwTreeFs, SeqFs};
pub use retryfs::RetryFs;
