//! The LP-based simulation checker — the executable counterpart of the
//! paper's mechanized forward-simulation proof.
//!
//! [`LpChecker`] replays a totally-ordered trace of atomic steps emitted
//! by an instrumented file system and maintains, in lockstep:
//!
//! * a **shadow concrete state** advanced by `Mutate` events;
//! * the **abstract state** advanced by abstract operations at `Lp`
//!   events — with the `linothers` helper run first at every rename LP
//!   ([`HelperMode::Helpers`]);
//! * the **ghost state** (thread pool, descriptors, Helplist, bindings)
//!   maintained from all events.
//!
//! At configurable points it validates the abstraction relation via
//! roll-back, the rely/guarantee transition shape (mutations only under
//! the mutating thread's locks), and the paper's Table-1 invariants; at
//! every `OpEnd` it checks the concrete return value against the abstract
//! one — the simulation proof's return-value obligation. A trace checks
//! clean iff the recorded execution is linearizable *with the specific
//! linearization the LPs + helpers dictate* (the generic `wgl` checker
//! cross-validates the weaker order-free statement on small histories).
//!
//! Running with [`HelperMode::FixedLp`] disables helping and reproduces
//! the paper's Figure 1: interleavings with path inter-dependency are
//! then flagged as return-value mismatches, demonstrating why fixed LPs
//! are insufficient for concurrent file systems.
//!
//! # Optimistic-traversal admission
//!
//! A seqlock fast-path attempt is one event, `OptValidate { chain,
//! locked, ok }`, whose `ok` the runtime decides at the event's own
//! stamp. A refusal (`ok: false`) changes no state: the thread holds no
//! announced lock and must retry or fall back. A thread that ignores it
//! is caught anyway — it ends without a linearization, or it mutates
//! without the lock. A successful claim is final and admits `chain` as a
//! legal lock-path witness: the chain must be exactly the shadow state's
//! resolution trail at that stamp. With `locked`, the claim also takes
//! the lock of `chain.last()` and the chain becomes the descriptor's
//! `LockPath` — exactly what a lock-coupled walk holding that node would
//! have — and a mutation then stays pending until its own LP, or until a
//! rename's `linothers` helps it (§5.1: a lock acquire is not a commit
//! point). Only effect-free completions (reads, walk-decided errors)
//! linearize *at the claim*, against the rolled-back (concrete-time)
//! state. A chain that does not start at the root or disagrees with the
//! shadow tree, and an effect-free claim that would change state, are
//! violations outright.
//!
//! # Cost on a clean run
//!
//! A clean run pays for what each operation touches, not for the tree.
//! An effect-free claim is decided read-only on the abstract state, or,
//! while helped operations are undischarged, on a [`RolledView`] that
//! copies only the nodes their effects name. The relation and `GoodAFS`
//! checks revisit only dirty inodes (see `IncrState`); after a rename
//! the tree shape is judged by walking up from each moved node. The
//! whole-state roll-back and reachability sweep run only once a violation
//! is found, and under [`LpChecker::with_full_scans`]. The narration
//! transcript is built only when asked for ([`LpChecker::with_narration`],
//! which [`LpChecker::check`] turns on).

use std::collections::VecDeque;

use atomfs_trace::{Event, Inum, MicroOp, OpDesc, OpRet, PathTag, Tid};
use atomfs_vfs::FileType;

use crate::afs::{apply_aop, decide};
use crate::fastmap::{FastMap, FastSet};
use crate::ghost::{is_provisional, AopState, Binding, Descriptor, ThreadPool};
use crate::helper::{help_set, linearize_before_set, total_order};
use crate::invariants;
use crate::rollback::{match_nodes, relation_violations, rolled_back, rolled_node, RolledView};
use crate::state::{FsState, Node, StateError};

/// Whether rename LPs run the helper mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelperMode {
    /// Full CRL-H: `linothers` at every rename LP (the paper's approach).
    Helpers,
    /// Fixed linearization points only — §3.1's strawman, kept to
    /// reproduce Figure 1's failure.
    FixedLp,
}

/// How often to validate the (comparatively expensive) abstraction
/// relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelationCadence {
    /// After every event — thorough, O(state) per event.
    EveryEvent,
    /// After every `Unlock` (when consistency must be re-established,
    /// §4.4) and at the end. The default.
    AtUnlock,
    /// Only when the trace ends.
    AtEnd,
}

/// Checker configuration.
#[derive(Debug, Clone, Copy)]
pub struct CheckerConfig {
    /// Helper mechanism on/off.
    pub mode: HelperMode,
    /// Abstraction-relation cadence.
    pub relation: RelationCadence,
    /// Validate Table-1 invariants at every LP.
    pub invariants: bool,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            mode: HelperMode::Helpers,
            relation: RelationCadence::AtUnlock,
            invariants: true,
        }
    }
}

/// Classification of a detected problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum ViolationKind {
    /// The trace itself is malformed (double lock, mutate without lock,
    /// lock outside an operation, ...). Indicates an instrumentation or
    /// concurrency-control bug in the emitter.
    Protocol,
    /// A concrete mutation was impossible against the shadow state.
    ShadowState,
    /// The guarantee condition was broken: a mutation touched an inode
    /// not locked by the mutating thread (`Lockedtrans` shape, §8).
    RelyGuarantee,
    /// Concrete return value differs from the abstract operation's.
    ReturnMismatch,
    /// An operation completed without ever being linearized.
    NoLinearization,
    /// The abstraction relation (with roll-back) failed.
    AbstractionRelation,
    /// Table 1: a helped operation bypassed one helped before it.
    HelpedNonBypassable,
    /// Table 1: an unhelped operation bypassed a helped one.
    UnhelpedNonBypassable,
    /// Table 1: the abstract state is not a well-formed tree.
    GoodAfs,
    /// Table 1: a pending thread's last-locked inode is not locked by it.
    LastLockedLockpath,
    /// Table 1: Helplist and helped-flags disagree.
    HelplistConsistency,
    /// Table 1: a helped thread deviated from its `FutLockPath`.
    FutureLockpath,
    /// Table 1: the LockPathPrefix relation has a cycle.
    LockpathWellformed,
    /// The optimistic-traversal protocol was broken: a chain not starting
    /// at the root, a claimed chain stale at its stamp, a lockless claim
    /// producing abstract effects, a claim by an already-linearized
    /// operation, or a rename on the fast path.
    OptValidation,
}

impl ViolationKind {
    /// Every kind, in discriminant order (indexable by `kind as usize`).
    pub const ALL: [ViolationKind; 14] = [
        ViolationKind::Protocol,
        ViolationKind::ShadowState,
        ViolationKind::RelyGuarantee,
        ViolationKind::ReturnMismatch,
        ViolationKind::NoLinearization,
        ViolationKind::AbstractionRelation,
        ViolationKind::HelpedNonBypassable,
        ViolationKind::UnhelpedNonBypassable,
        ViolationKind::GoodAfs,
        ViolationKind::LastLockedLockpath,
        ViolationKind::HelplistConsistency,
        ViolationKind::FutureLockpath,
        ViolationKind::LockpathWellformed,
        ViolationKind::OptValidation,
    ];

    /// A stable snake_case label for metric/report keys.
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::Protocol => "protocol",
            ViolationKind::ShadowState => "shadow_state",
            ViolationKind::RelyGuarantee => "rely_guarantee",
            ViolationKind::ReturnMismatch => "return_mismatch",
            ViolationKind::NoLinearization => "no_linearization",
            ViolationKind::AbstractionRelation => "abstraction_relation",
            ViolationKind::HelpedNonBypassable => "helped_non_bypassable",
            ViolationKind::UnhelpedNonBypassable => "unhelped_non_bypassable",
            ViolationKind::GoodAfs => "good_afs",
            ViolationKind::LastLockedLockpath => "last_locked_lockpath",
            ViolationKind::HelplistConsistency => "helplist_consistency",
            ViolationKind::FutureLockpath => "future_lockpath",
            ViolationKind::LockpathWellformed => "lockpath_wellformed",
            ViolationKind::OptValidation => "opt_validation",
        }
    }
}

/// One detected violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Index of the event being processed when the violation surfaced.
    pub at: usize,
    /// Category.
    pub kind: ViolationKind,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[event {}] {:?}: {}", self.at, self.kind, self.message)
    }
}

/// Counters describing a checked execution.
#[derive(Debug, Default, Clone, Copy)]
pub struct CheckerStats {
    /// Operations begun.
    pub ops_begun: u64,
    /// Operations completed.
    pub ops_completed: u64,
    /// Linearization points processed.
    pub lps: u64,
    /// Rename LPs that ran `linothers` (helper mode only).
    pub rename_lps: u64,
    /// Total operations linearized by helpers.
    pub helps: u64,
    /// Largest single help set.
    pub max_helpset: usize,
    /// Abstraction-relation validations performed.
    pub relation_checks: u64,
    /// Optimistic claims committed (operations admitted via a validated
    /// seqlock chain instead of a lock-coupled walk).
    pub opt_claims: u64,
    /// Optimistic attempts refused (`OptValidate { ok: false }` events).
    pub opt_retries: u64,
    /// Operations refused by the environment (`EROFS` from a quarantined
    /// shard range or a degraded sink) before reaching a linearization
    /// point: no abstract step happened and none was required.
    pub refused: u64,
}

/// A size census of the checker's live replay state (see
/// [`LpChecker::retained`]). Everything here retires as operations
/// discharge, so on a healthy stream each count tracks the in-flight
/// window rather than the trace length.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RetainedState {
    /// Active per-thread descriptors (operations begun, not yet ended).
    pub descriptors: usize,
    /// Helped threads awaiting discharge.
    pub helplist: usize,
    /// Roll-back log entries (recorded effects of helped threads).
    pub effect_entries: usize,
    /// Concrete↔abstract inode bindings (tracks live tree size).
    pub bindings: usize,
    /// Locks currently held in the shadow state.
    pub locks_held: usize,
    /// Thread-private concrete inodes awaiting their creator's LP.
    pub private_inodes: usize,
    /// Concrete removals awaiting their owner's LP unbind.
    pub pending_unbinds: usize,
    /// Always 0: an optimistic attempt is one event, so the checker
    /// keeps no per-thread attempt state. Kept for readers of the census.
    pub opt_states: usize,
    /// Narration lines held: 0 unless the checker narrates
    /// ([`LpChecker::with_narration`]); a streaming checker never does.
    pub narration_lines: usize,
}

impl RetainedState {
    /// Total retained entries, excluding `bindings`: the binding table
    /// legitimately tracks the live file-system *size* (one entry per
    /// existing inode), while everything else must track only in-flight
    /// work. The bound the bench enforces is on this figure.
    pub fn window_total(&self) -> usize {
        self.descriptors
            + self.helplist
            + self.effect_entries
            + self.locks_held
            + self.private_inodes
            + self.pending_unbinds
            + self.narration_lines
    }
}

/// The result of checking one trace.
#[derive(Debug)]
pub struct CheckReport {
    /// Everything found wrong, in trace order.
    pub violations: Vec<Violation>,
    /// Execution counters.
    pub stats: CheckerStats,
    /// The final abstract state (for cross-validation).
    pub final_afs: FsState,
    /// A human-readable linearization narrative: one line per invocation,
    /// linearization (own LP or helped, with the helper's identity and
    /// order), and response. Useful for understanding *why* an
    /// interleaving linearized the way it did.
    pub narration: Vec<String>,
}

impl CheckReport {
    /// Whether the execution checked clean.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with a readable summary if the execution did not check clean.
    pub fn assert_ok(&self) {
        if !self.is_ok() {
            let mut msg = format!("{} violation(s):\n", self.violations.len());
            for v in self.violations.iter().take(20) {
                msg.push_str(&format!("  {v}\n"));
            }
            panic!("{msg}");
        }
    }

    /// Violations of a particular kind.
    pub fn of_kind(&self, kind: ViolationKind) -> Vec<&Violation> {
        self.violations.iter().filter(|v| v.kind == kind).collect()
    }
}

/// Dirty-set bookkeeping behind the incremental relation and invariant
/// checks.
///
/// The full abstraction-relation scan walks both whole states and the
/// full `GoodAFS` check recounts every parent link — O(tree) at every
/// unlock/LP, which caps streaming throughput far below the emit rate.
/// Incremental checking restores O(touched) per check: every mutation of
/// the shadow state, the abstract state, the binding, or an exemption
/// (lock/private status) taints the inodes whose verdict could have
/// changed, and the checks revisit exactly those. Inodes nobody touched
/// since the last clean check keep their verdict by construction. The
/// dirty sets are hash sets cleared in place, so a steady run allocates
/// nothing for them.
///
/// The incremental paths are only trusted on a clean run: after the
/// first violation (or if per-inode roll-back ever meets inconsistent
/// metadata, `full`), every later check delegates to the exact full
/// scans, so verdicts and messages on broken traces are identical to the
/// offline checker's.
#[derive(Debug, Default)]
struct IncrState {
    /// Concrete inodes whose relation verdict may have changed.
    rel_conc: FastSet<Inum>,
    /// Abstract inodes whose relation verdict may have changed.
    rel_abs: FastSet<Inum>,
    /// Abstract inodes whose local `GoodAFS` verdict may have changed.
    afs_dirty: FastSet<Inum>,
    /// Parent links per abstract inode (absent = none). Maintained from
    /// every abstract-state mutation so the one-parent / no-orphan checks
    /// need no recount, and the tree shape after a rename needs no sweep.
    parents: FastMap<Inum, Links>,
    /// Directories a rename linked somewhere new since the last invariant
    /// check. Link counts stay consistent across a detached cycle, so the
    /// next check walks up from each of these to the root.
    moved: FastSet<Inum>,
    /// Sticky fallback: incremental state can no longer be trusted
    /// (per-inode roll-back hit corrupt metadata); use full scans only.
    full: bool,
    /// Scratch buffer for per-LP pending-thread collection.
    scratch_tids: Vec<Tid>,
    /// Scratch buffer a dirty set is sorted in, so flags come out in the
    /// full scan's order.
    scratch_inos: Vec<Inum>,
}

/// The directory entries that link one abstract inode.
#[derive(Debug, Clone, Copy)]
struct Links {
    /// How many entries name the inode: 1 on a tree (0 for the root).
    count: i64,
    /// The directory that linked it most recently, while that link
    /// stands — the inode's parent whenever `count` is 1.
    parent: Option<Inum>,
}

impl IncrState {
    /// Taint a concrete inode (and its bound abstract counterpart).
    fn taint_conc(&mut self, c: Inum, binding: &Binding) {
        self.rel_conc.insert(c);
        if let Some(a) = binding.abs(c) {
            self.rel_abs.insert(a);
        }
    }

    /// Taint an abstract inode (and its bound concrete counterpart).
    fn taint_abs(&mut self, a: Inum, binding: &Binding) {
        self.rel_abs.insert(a);
        if let Some(c) = binding.conc(a) {
            self.rel_conc.insert(c);
        }
    }

    /// Record a shadow-state mutation.
    fn note_shadow(&mut self, mop: &MicroOp, binding: &Binding) {
        match mop {
            MicroOp::Create { ino, .. }
            | MicroOp::Remove { ino, .. }
            | MicroOp::SetData { ino, .. } => self.taint_conc(*ino, binding),
            MicroOp::Ins { parent, child, .. } | MicroOp::Del { parent, child, .. } => {
                self.taint_conc(*parent, binding);
                self.taint_conc(*child, binding);
            }
        }
    }

    /// Record an effect applied to the abstract state.
    fn note_afs(&mut self, mop: &MicroOp, binding: &Binding) {
        match mop {
            MicroOp::Create { ino, .. }
            | MicroOp::Remove { ino, .. }
            | MicroOp::SetData { ino, .. } => {
                self.taint_abs(*ino, binding);
                self.afs_dirty.insert(*ino);
            }
            MicroOp::Ins { parent, child, .. } | MicroOp::Del { parent, child, .. } => {
                self.taint_abs(*parent, binding);
                self.taint_abs(*child, binding);
                self.afs_dirty.insert(*parent);
                self.afs_dirty.insert(*child);
                let linked = matches!(mop, MicroOp::Ins { .. });
                self.relink(*child, *parent, linked);
            }
        }
    }

    /// Count a link from `parent` to `child` in (`linked`) or out,
    /// dropping an inode that no entry names so the map stays
    /// proportional to the live tree, not to inodes ever created.
    fn relink(&mut self, child: Inum, parent: Inum, linked: bool) {
        let e = self.parents.entry(child).or_insert(Links {
            count: 0,
            parent: None,
        });
        if linked {
            e.count += 1;
            e.parent = Some(parent);
        } else {
            e.count -= 1;
            if e.parent == Some(parent) {
                e.parent = None;
            }
        }
        if e.count == 0 {
            self.parents.remove(&child);
        }
    }

    /// Whether walking up parent links from `moved` reaches `afs`'s root.
    /// A directory moved under its own subtree meets itself first; any
    /// other break (a missing or ambiguous link, a walk longer than the
    /// tree) also answers `false`. O(depth) on a tree.
    fn reaches_root(&self, afs: &FsState, moved: Inum) -> bool {
        let mut cur = moved;
        for _ in 0..=afs.map.len() {
            if cur == afs.root {
                return true;
            }
            match self.parents.get(&cur) {
                Some(Links {
                    count: 1,
                    parent: Some(p),
                }) if *p != moved => cur = *p,
                _ => return false,
            }
        }
        false
    }

    /// Effects leave the roll-back log at discharge: the rolled-back view
    /// gains them, so their relation verdicts may change. The abstract
    /// map itself is untouched — `GoodAFS` counters don't move.
    fn note_discharge(&mut self, effects: &[MicroOp], binding: &Binding) {
        for e in effects {
            match e {
                MicroOp::Create { ino, .. }
                | MicroOp::Remove { ino, .. }
                | MicroOp::SetData { ino, .. } => self.taint_abs(*ino, binding),
                MicroOp::Ins { parent, child, .. } | MicroOp::Del { parent, child, .. } => {
                    self.taint_abs(*parent, binding);
                    self.taint_abs(*child, binding);
                }
            }
        }
    }

    /// Move `set` into the sorted scratch buffer, leaving both sets'
    /// capacity in place.
    fn sorted(set: &mut FastSet<Inum>, scratch: &mut Vec<Inum>) {
        scratch.clear();
        scratch.extend(set.drain());
        scratch.sort_unstable();
    }
}

/// The replaying checker. Feed events with [`LpChecker::feed`] (or let a
/// [`crate::StreamChecker`] feed it live), then call [`LpChecker::finish`].
pub struct LpChecker {
    cfg: CheckerConfig,
    shadow: FsState,
    afs: FsState,
    pool: ThreadPool,
    binding: Binding,
    /// Concrete inode -> holder.
    locks: FastMap<Inum, Tid>,
    /// Concrete inodes created by a still-pending (unhelped) operation.
    private: FastMap<Inum, Tid>,
    /// Concrete inodes removed inside a critical section whose abstract
    /// removal happens later, at the owner's LP; unbound there.
    pending_unbinds: FastMap<Tid, Vec<Inum>>,
    /// Dirty-set bookkeeping for the incremental relation and invariant
    /// checks (see [`IncrState`]).
    incr: IncrState,
    next_provisional: Inum,
    violations: Vec<Violation>,
    stats: CheckerStats,
    /// Whether to build the narration transcript at all.
    narrating: bool,
    narration: Vec<String>,
    /// Last stamp accepted by [`LpChecker::feed_stamped`]; persists
    /// across calls so a chunked (streaming) feed enforces the same
    /// strict monotonicity as one offline `feed_all_stamped` pass.
    prev_stamp: Option<u64>,
    idx: usize,
    metrics: Option<std::sync::Arc<crate::metrics::CheckerMetrics>>,
}

impl Default for LpChecker {
    fn default() -> Self {
        Self::new(CheckerConfig::default())
    }
}

impl LpChecker {
    /// Create a checker for an initially empty file system.
    pub fn new(cfg: CheckerConfig) -> Self {
        LpChecker {
            cfg,
            shadow: FsState::new(),
            afs: FsState::new(),
            pool: ThreadPool::new(),
            binding: Binding::new(),
            locks: FastMap::default(),
            private: FastMap::default(),
            pending_unbinds: FastMap::default(),
            incr: IncrState::default(),
            next_provisional: crate::ghost::PROVISIONAL_BASE,
            violations: Vec::new(),
            stats: CheckerStats::default(),
            narrating: false,
            narration: Vec::new(),
            prev_stamp: None,
            idx: 0,
            metrics: None,
        }
    }

    /// Build the linearization narrative into
    /// [`CheckReport::narration`] (builder-style). It grows with the
    /// trace and costs a formatted line per step, so a checker narrates
    /// only when asked: [`LpChecker::check`] and
    /// [`LpChecker::check_stamped`] do, a streaming checker does not.
    pub fn with_narration(mut self) -> Self {
        self.narrating = true;
        self
    }

    /// Attach live checker metrics (builder-style). A checker with none
    /// attached skips every metrics hook.
    pub fn with_metrics(mut self, metrics: std::sync::Arc<crate::metrics::CheckerMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Force the exact whole-state scans on every check, bypassing the
    /// incremental dirty-set paths (differential-testing hook).
    #[doc(hidden)]
    pub fn with_full_scans(mut self) -> Self {
        self.incr.full = true;
        self
    }

    /// The current abstract state (primarily for tests).
    pub fn afs(&self) -> &FsState {
        &self.afs
    }

    /// The current shadow concrete state (primarily for tests).
    pub fn shadow(&self) -> &FsState {
        &self.shadow
    }

    /// Violations found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Execution counters so far (streaming consumers read these without
    /// finishing the checker).
    pub fn stats(&self) -> &CheckerStats {
        &self.stats
    }

    /// Measure the replay state currently held. On a clean trace every
    /// component retires on its own — descriptors at `OpEnd`, effect
    /// logs and Helplist entries at discharge, locks at unlock — so
    /// this is O(in-flight operations), not O(trace). The streaming
    /// checker exports these counts as gauges and the bench asserts they
    /// stay bounded; growth here under a steady workload means a
    /// retirement hook regressed.
    pub fn retained(&self) -> RetainedState {
        RetainedState {
            descriptors: self.pool.iter().count(),
            helplist: self.pool.helplist.len(),
            effect_entries: self.pool.iter().map(|(_, e)| e.desc.effect.len()).sum(),
            bindings: self.binding.len(),
            locks_held: self.locks.len(),
            private_inodes: self.private.len(),
            pending_unbinds: self.pending_unbinds.values().map(Vec::len).sum(),
            opt_states: 0,
            narration_lines: self.narration.len(),
        }
    }

    /// Append a narration line, formatting it only if narrating.
    fn narrate(&mut self, line: impl FnOnce() -> String) {
        if self.narrating {
            self.narration.push(line());
        }
    }

    fn flag(&mut self, kind: ViolationKind, message: String) {
        if let Some(m) = &self.metrics {
            m.violation(kind);
        }
        if self.violations.is_empty() {
            // First violation of this run: capture a black box while the
            // flight recorder still holds the spans leading up to it.
            // Later violations are usually cascades of the first and get
            // counters only.
            let mut sp = atomfs_obs::Span::root(atomfs_obs::SpanKind::Trigger, "checker_violation");
            sp.fail();
            drop(sp);
            atomfs_obs::dump::trigger(
                atomfs_obs::TriggerCause::CheckerViolation {
                    kind: kind.label().to_string(),
                },
                None,
            );
        }
        self.violations.push(Violation {
            at: self.idx,
            kind,
            message,
        });
    }

    /// Process one event.
    pub fn feed(&mut self, ev: &Event) {
        match ev {
            Event::OpBegin { tid, op } => self.on_begin(*tid, op),
            Event::Lock { tid, ino, tag } => self.on_lock(*tid, *ino, *tag),
            Event::Unlock { tid, ino } => self.on_unlock(*tid, *ino),
            Event::Mutate { tid, mop } => self.on_mutate(*tid, mop),
            Event::Lp { tid } => self.on_lp(*tid),
            Event::OpEnd { tid, ret } => self.on_end(*tid, ret),
            Event::OptValidate {
                tid,
                chain,
                locked,
                ok,
            } => self.on_opt_validate(*tid, chain, *locked, *ok),
        }
        if self.cfg.relation == RelationCadence::EveryEvent {
            self.check_relation();
        }
        self.idx += 1;
    }

    /// Process a whole trace.
    pub fn feed_all(&mut self, events: &[Event]) {
        for e in events {
            self.feed(e);
        }
    }

    /// Process one sequence-stamped event, checking that stamps are
    /// strictly increasing — across calls, so a chunked streaming feed
    /// enforces the same total-order contract as one offline pass. The
    /// merged trace must be presented in the order the stamps define,
    /// otherwise the recorder (or a lossy merge) broke the
    /// legal-total-order contract and every later verdict would be
    /// about the wrong interleaving.
    pub fn feed_stamped(&mut self, stamp: u64, ev: &Event) {
        if let Some(p) = self.prev_stamp {
            if stamp <= p {
                self.flag(
                    ViolationKind::Protocol,
                    format!(
                        "sequence stamp {stamp} follows {p}: merged trace is not in \
                         stamp order"
                    ),
                );
            }
        }
        self.prev_stamp = Some(stamp);
        self.feed(ev);
    }

    /// Process a sequence-stamped trace (e.g. from
    /// `atomfs_trace::ShardedSink::take_stamped`); see
    /// [`LpChecker::feed_stamped`].
    pub fn feed_all_stamped(&mut self, events: &[(u64, Event)]) {
        for (stamp, e) in events {
            self.feed_stamped(*stamp, e);
        }
    }

    /// Run the end-of-trace checks and produce the report.
    pub fn finish(mut self) -> CheckReport {
        for (tid, _) in self.pool.iter() {
            self.violations.push(Violation {
                at: self.idx,
                kind: ViolationKind::Protocol,
                message: format!("trace ended with active operation on {tid}"),
            });
        }
        if !self.locks.is_empty() {
            let held: Vec<_> = self.locks.keys().collect();
            self.flag(
                ViolationKind::Protocol,
                format!("trace ended with locks held: {held:?}"),
            );
        }
        self.check_relation();
        self.check_invariants();
        CheckReport {
            violations: self.violations,
            stats: self.stats,
            final_afs: self.afs,
            narration: self.narration,
        }
    }

    /// Convenience: check a complete trace in one call.
    pub fn check(cfg: CheckerConfig, events: &[Event]) -> CheckReport {
        // Checker passes are rare and long: always-recorded phase span.
        let mut sp = atomfs_obs::Span::root(atomfs_obs::SpanKind::Checker, "check");
        let mut c = LpChecker::new(cfg).with_narration();
        c.feed_all(events);
        let report = c.finish();
        if !report.violations.is_empty() {
            sp.fail();
        }
        report
    }

    /// Convenience: check a complete sequence-stamped trace in one call,
    /// including stamp monotonicity (see [`LpChecker::feed_all_stamped`]).
    pub fn check_stamped(cfg: CheckerConfig, events: &[(u64, Event)]) -> CheckReport {
        let mut sp = atomfs_obs::Span::root(atomfs_obs::SpanKind::Checker, "check_stamped");
        let mut c = LpChecker::new(cfg).with_narration();
        c.feed_all_stamped(events);
        let report = c.finish();
        if !report.violations.is_empty() {
            sp.fail();
        }
        report
    }

    fn on_begin(&mut self, tid: Tid, op: &OpDesc) {
        self.stats.ops_begun += 1;
        self.narrate(|| format!("{tid} invokes {op}"));
        if !self.pool.begin(tid, op.clone()) {
            self.flag(
                ViolationKind::Protocol,
                format!("{tid} began {op} with an operation already active"),
            );
        }
    }

    /// Record `tid` as the holder of `ino`'s lock.
    fn take_lock(&mut self, tid: Tid, ino: Inum) {
        if let Some(holder) = self.locks.insert(ino, tid) {
            self.flag(
                ViolationKind::Protocol,
                format!("{tid} locked {ino} already held by {holder}"),
            );
        }
    }

    fn on_lock(&mut self, tid: Tid, ino: Inum, tag: PathTag) {
        self.take_lock(tid, ino);
        let Some(entry) = self.pool.get_mut(tid) else {
            self.flag(
                ViolationKind::Protocol,
                format!("{tid} locked {ino} outside any operation"),
            );
            return;
        };
        entry.desc.push_lock(ino, tag);
        let abs = self.binding.abs(ino);
        // Future-lockpath-validness for the locking thread itself.
        let own_helped = entry.desc.helped && entry.desc.fut_lock_path.front().is_some();
        if own_helped {
            let expected = *entry.desc.fut_lock_path.front().expect("nonempty");
            match abs {
                Some(a) if a == expected => {
                    entry.desc.fut_lock_path.pop_front();
                }
                other => {
                    let msg = format!(
                        "{tid} locked {ino} (abs {other:?}) but its FutLockPath expected {expected}"
                    );
                    entry.desc.fut_lock_path.pop_front();
                    self.flag(ViolationKind::FutureLockpath, msg);
                }
            }
        }
        // Non-bypassable invariants against every other helped thread. A
        // non-empty FutLockPath implies membership on the Helplist (it is
        // cleared or consumed by discharge/abort), so an empty Helplist
        // makes the scan a no-op — skip it.
        if self.pool.helplist.is_empty() {
            return;
        }
        if let Some(a) = abs {
            let locker_helped = self.pool.get(tid).map(|e| e.desc.helped).unwrap_or(false);
            let locker_pos = self.pool.helplist.iter().position(|t| *t == tid);
            let mut flags = Vec::new();
            for (other, entry) in self.pool.iter() {
                if other == tid || !entry.desc.helped {
                    continue;
                }
                if !entry.desc.fut_lock_path.contains(&a) {
                    continue;
                }
                if !locker_helped {
                    flags.push((
                        ViolationKind::UnhelpedNonBypassable,
                        format!(
                            "unhelped {tid} locked {ino}, still in FutLockPath of helped {other}"
                        ),
                    ));
                } else {
                    let other_pos = self.pool.helplist.iter().position(|t| *t == other);
                    if let (Some(op_), Some(lp)) = (other_pos, locker_pos) {
                        if op_ < lp {
                            flags.push((
                                ViolationKind::HelpedNonBypassable,
                                format!(
                                    "helped {tid} locked {ino}, still in FutLockPath of \
                                     earlier-helped {other}"
                                ),
                            ));
                        }
                    }
                }
            }
            for (k, m) in flags {
                self.flag(k, m);
            }
        }
    }

    fn on_unlock(&mut self, tid: Tid, ino: Inum) {
        match self.locks.remove(&ino) {
            Some(holder) if holder == tid => {}
            Some(holder) => {
                self.flag(
                    ViolationKind::Protocol,
                    format!("{tid} unlocked {ino} held by {holder}"),
                );
            }
            None => {
                self.flag(
                    ViolationKind::Protocol,
                    format!("{tid} unlocked {ino} which was not locked"),
                );
            }
        }
        // The unlock lifts the relaxed-mapping exemption: this inode's
        // relation verdict is live again.
        self.incr.taint_conc(ino, &self.binding);
        if self.cfg.relation == RelationCadence::AtUnlock {
            self.check_relation();
        }
    }

    fn on_mutate(&mut self, tid: Tid, mop: &MicroOp) {
        // Guarantee condition: Lockedtrans only touches inodes locked by
        // the mutating thread; Create introduces thread-private memory.
        match mop {
            MicroOp::Create { ino, ftype } => {
                let entry = self.pool.get_mut(tid);
                match entry {
                    Some(e) => {
                        if let Some((abs, aft)) = e.desc.pending_provisionals.pop_front() {
                            // A helped creation caught up: bind it. The
                            // inode stays thread-private until the helped
                            // operation discharges at its LP — its effects
                            // are still rolled back until then.
                            if aft != *ftype {
                                self.flag(
                                    ViolationKind::ReturnMismatch,
                                    format!(
                                        "{tid} created {ino} as {ftype:?} but was helped \
                                         creating a {aft:?}"
                                    ),
                                );
                            }
                            self.binding.bind(*ino, abs);
                            self.private.insert(*ino, tid);
                        } else if e.aop.is_pending() {
                            e.desc.created.push_back((*ino, *ftype));
                            self.private.insert(*ino, tid);
                        } else {
                            self.flag(
                                ViolationKind::Protocol,
                                format!("{tid} created inode {ino} after its LP"),
                            );
                        }
                    }
                    None => self.flag(
                        ViolationKind::Protocol,
                        format!("{tid} mutated outside any operation"),
                    ),
                }
            }
            MicroOp::Remove { ino, .. } => {
                self.require_locked(tid, *ino, "remove");
            }
            MicroOp::Ins { parent, .. } | MicroOp::Del { parent, .. } => {
                self.require_locked(tid, *parent, "link change in");
            }
            MicroOp::SetData { ino, .. } => {
                self.require_locked(tid, *ino, "data write to");
            }
        }
        if let Err(e) = self.shadow.apply_micro(mop) {
            self.flag(ViolationKind::ShadowState, format!("{tid}: {e}"));
        }
        // Taint before any unbind below, while the cross-level pairing is
        // still visible.
        self.incr.note_shadow(mop, &self.binding);
        if let MicroOp::Remove { ino, .. } = mop {
            // If the abstract level still holds the counterpart (the
            // remover has not passed its LP yet — e.g. a rename victim is
            // freed before the rename's LP), the pair stays bound so the
            // relation can keep relating them; unbinding happens when the
            // abstract side catches up at the owner's LP.
            let abstract_still_has = self
                .binding
                .abs(*ino)
                .is_some_and(|a| self.afs.map.contains_key(&a));
            if abstract_still_has {
                self.pending_unbinds.entry(tid).or_default().push(*ino);
            } else {
                self.binding.unbind_concrete(*ino);
            }
            self.private.remove(ino);
        }
    }

    fn require_locked(&mut self, tid: Tid, ino: Inum, what: &str) {
        let held = self.locks.get(&ino) == Some(&tid);
        let private = self.private.get(&ino) == Some(&tid);
        if !held && !private {
            self.flag(
                ViolationKind::RelyGuarantee,
                format!("{tid} performed {what} inode {ino} without holding its lock"),
            );
        }
    }

    fn on_lp(&mut self, tid: Tid) {
        self.stats.lps += 1;
        let Some(entry) = self.pool.get_mut(tid) else {
            self.flag(
                ViolationKind::Protocol,
                format!("{tid} hit an LP outside any operation"),
            );
            return;
        };
        if matches!(entry.aop, AopState::Done(_)) {
            // Helped earlier; the concrete execution has now caught up.
            let mut deferred: Vec<(ViolationKind, String)> = Vec::new();
            if !entry.desc.fut_lock_path.is_empty() {
                let left: Vec<_> = entry.desc.fut_lock_path.iter().copied().collect();
                entry.desc.fut_lock_path.clear();
                deferred.push((
                    ViolationKind::FutureLockpath,
                    format!("{tid} reached its LP with FutLockPath not consumed: {left:?}"),
                ));
            }
            if !entry.desc.pending_provisionals.is_empty() {
                deferred.push((
                    ViolationKind::FutureLockpath,
                    format!("{tid} reached its LP with helped creations never performed"),
                ));
            }
            // Discharge: the recorded effects stop being rolled back, so
            // the concrete-time view of every inode they touch changes.
            self.incr.note_discharge(&entry.desc.effect, &self.binding);
            entry.desc.effect.clear();
            // Inodes created on behalf of this helped op are published
            // now: the abstract and concrete levels agree from here on —
            // and losing the private exemption makes them checkable.
            let published: Vec<Inum> = self
                .private
                .iter()
                .filter(|(_, t)| **t == tid)
                .map(|(ino, _)| *ino)
                .collect();
            for ino in published {
                self.private.remove(&ino);
                self.incr.taint_conc(ino, &self.binding);
            }
            if !self.pool.discharge(tid) {
                deferred.push((
                    ViolationKind::HelplistConsistency,
                    format!("helped {tid} was not on the Helplist at discharge"),
                ));
            }
            for (k, m) in deferred {
                self.flag(k, m);
            }
        } else {
            let is_rename = matches!(&entry.aop, AopState::Pending(op) if op.is_rename());
            if self.cfg.mode == HelperMode::Helpers && is_rename {
                self.stats.rename_lps += 1;
                self.run_linothers(tid);
            }
            self.lin(tid, false);
        }
        if let Some(pending) = self.pending_unbinds.remove(&tid) {
            for ino in pending {
                self.incr.taint_conc(ino, &self.binding);
                self.binding.unbind_concrete(ino);
            }
        }
        if self.cfg.invariants {
            self.check_invariants();
        }
    }

    /// The `linothers` primitive (Figure 5): find every thread that must
    /// linearize before this rename, order them, and linearize each.
    fn run_linothers(&mut self, rename_tid: Tid) {
        let src_path = self
            .pool
            .get(rename_tid)
            .expect("caller checked")
            .desc
            .src_path();
        let helpset = help_set(rename_tid, &src_path, &self.pool);
        if helpset.is_empty() {
            return;
        }
        let lbset = linearize_before_set(&self.pool);
        let order = match total_order(&helpset, &lbset) {
            Ok(o) => o,
            Err(cyclic) => {
                self.flag(
                    ViolationKind::LockpathWellformed,
                    format!("no helping order exists; cyclic threads: {cyclic:?}"),
                );
                return;
            }
        };
        self.stats.helps += order.len() as u64;
        self.stats.max_helpset = self.stats.max_helpset.max(order.len());
        if let Some(m) = &self.metrics {
            m.helpset(order.len() as u64);
        }
        self.narrate(|| {
            let order_str = order
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(" then ");
            format!("{rename_tid} reaches its LP and runs linothers: helping {order_str}")
        });
        for h in order {
            self.lin(h, true);
        }
    }

    /// Linearize thread `tid`'s abstract operation against the current
    /// abstract state (the paper's `lin(t)`): at its own LP, inside its
    /// critical section, or — `helped` — externally, by a rename's
    /// `linothers`. A helped operation's abstract effects precede its
    /// concrete mutations, so they are recorded for roll-back, its
    /// remaining locks become its `FutLockPath`, and it joins the
    /// Helplist until its own LP discharges it.
    fn lin(&mut self, tid: Tid, helped: bool) {
        if let Some(m) = &self.metrics {
            m.lin(helped);
        }
        let (op, mut created) = {
            let entry = self.pool.get_mut(tid).expect("linearized thread exists");
            // The operation leaves the pool here; its result replaces it
            // below, and nothing in between reads this thread's `aop`.
            let op = match std::mem::replace(&mut entry.aop, AopState::Done(OpRet::Ok)) {
                AopState::Pending(op) => op,
                AopState::Done(_) => unreachable!("lin of an already-linearized op"),
            };
            (op, std::mem::take(&mut entry.desc.created))
        };
        // Compute the future lock path on the pre-state: the locks the
        // operation will acquire given what it has locked so far.
        let fut = if helped {
            Some(compute_fut(
                &op,
                self.pool.get(tid).expect("exists").desc.locks_taken(),
                &self.afs,
            ))
        } else {
            None
        };
        let mut next_prov = self.next_provisional;
        let mut minted: Vec<(Inum, FileType)> = Vec::new();
        let mut identity: Vec<Inum> = Vec::new();
        let mut type_mismatch = false;
        let (effects, ret, apply_err) = {
            let mut alloc = |ft: FileType| -> Inum {
                if let Some((ino, cft)) = created.pop_front() {
                    if cft != ft {
                        type_mismatch = true;
                    }
                    identity.push(ino);
                    ino
                } else {
                    let id = next_prov;
                    next_prov += 1;
                    minted.push((id, ft));
                    id
                }
            };
            apply_aop(&mut self.afs, &op, &mut alloc)
        };
        self.next_provisional = next_prov;
        if let Some(err) = &apply_err {
            self.flag(
                ViolationKind::AbstractionRelation,
                format!("{tid}: abstract effects inapplicable, levels diverged: {err}"),
            );
        }
        if type_mismatch {
            self.flag(
                ViolationKind::ReturnMismatch,
                format!("{tid}: created inode type differs between levels"),
            );
        }
        if apply_err.is_none() {
            self.note_effects(&effects, op.is_rename());
        }
        for ino in identity {
            self.binding.bind(ino, ino);
            self.incr.taint_conc(ino, &self.binding);
            // For a *helped* operation the recorded effects are rolled
            // back until its own LP discharges them, so inodes it already
            // created concretely must stay thread-private until then.
            if !helped {
                self.private.remove(&ino);
            }
        }
        self.narrate(|| {
            if helped {
                format!("  -> {tid} linearized by helper => {ret}")
            } else {
                format!("{tid} linearized at its own LP => {ret}")
            }
        });
        let entry = self.pool.get_mut(tid).expect("exists");
        entry.aop = AopState::Done(ret);
        entry.desc.created = created;
        if helped {
            entry.desc.helped = true;
            entry.desc.effect = effects;
            entry
                .desc
                .pending_provisionals
                .extend(minted.iter().copied());
            entry.desc.fut_lock_path = fut.expect("computed above");
            self.pool.push_helped(tid);
        }
    }

    /// Record effects just applied to the abstract state, by a rename if
    /// `rename`.
    fn note_effects(&mut self, effects: &[MicroOp], rename: bool) {
        for e in effects {
            self.incr.note_afs(e, &self.binding);
            if let (true, MicroOp::Ins { child, .. }) = (rename, e) {
                // A rename could move a directory under its own subtree;
                // link counts alone cannot witness the detached cycle.
                self.incr.moved.insert(*child);
            }
        }
    }

    fn on_end(&mut self, tid: Tid, ret: &OpRet) {
        self.stats.ops_completed += 1;
        self.narrate(|| format!("{tid} returns {ret}"));
        let Some(entry) = self.pool.end(tid) else {
            self.flag(
                ViolationKind::Protocol,
                format!("{tid} ended an operation that never began"),
            );
            return;
        };
        match &entry.aop {
            AopState::Done(abs_ret) => {
                if abs_ret != ret {
                    self.flag(
                        ViolationKind::ReturnMismatch,
                        format!(
                            "{tid}: concrete returned {ret} but abstract operation \
                             returned {abs_ret}"
                        ),
                    );
                }
            }
            AopState::Pending(op) => {
                if *ret == OpRet::Err(atomfs_vfs::FsError::ReadOnly) {
                    // Environment refusal: a quarantined shard range (or a
                    // degraded sink) aborted the operation before its LP.
                    // That is an environment step, not a linearization —
                    // sound only if the concrete side really mutated
                    // nothing, which any surviving creation falsifies.
                    if entry.desc.created.is_empty() {
                        self.stats.refused += 1;
                        self.narrate(|| format!("{tid} refused by the environment (EROFS)"));
                    } else {
                        self.flag(
                            ViolationKind::Protocol,
                            format!(
                                "{tid} was refused with EROFS after creating \
                                 {} inode(s) concretely",
                                entry.desc.created.len()
                            ),
                        );
                    }
                } else {
                    self.flag(
                        ViolationKind::NoLinearization,
                        format!("{tid} completed {op} without being linearized"),
                    );
                }
            }
        }
        if self.pool.helplist.contains(&tid) {
            self.pool.discharge(tid);
            self.flag(
                ViolationKind::HelplistConsistency,
                format!("{tid} finished while still on the Helplist"),
            );
        }
        if let Some(pending) = self.pending_unbinds.remove(&tid) {
            for ino in pending {
                self.incr.taint_conc(ino, &self.binding);
                self.binding.unbind_concrete(ino);
            }
        }
    }

    fn on_opt_validate(&mut self, tid: Tid, chain: &[Inum], locked: bool, ok: bool) {
        if self.pool.get(tid).is_none() {
            self.flag(
                ViolationKind::Protocol,
                format!("{tid} claimed outside any operation"),
            );
            return;
        }
        if chain.first() != Some(&atomfs_trace::ROOT_INUM) {
            self.flag(
                ViolationKind::OptValidation,
                format!("{tid} claimed chain {chain:?}, which does not start at the root"),
            );
            return;
        }
        if !ok {
            // A refusal changes nothing: its lock was never announced.
            self.stats.opt_retries += 1;
            return;
        }
        if locked {
            self.take_lock(tid, *chain.last().expect("starts at the root"));
        }
        let AopState::Pending(op) = &self.pool.get(tid).expect("checked above").aop else {
            self.flag(
                ViolationKind::OptValidation,
                format!("{tid} claimed optimistically but is already linearized"),
            );
            return;
        };
        let Some(comps) = opt_comps(op) else {
            self.flag(
                ViolationKind::OptValidation,
                format!("{tid}: rename must not take the optimistic fast path"),
            );
            return;
        };
        // The claim certifies the chain was an unbroken root-to-target
        // resolution *at this stamp*; the shadow state is the concrete
        // state at this stamp, so the chain must be exactly the shadow's
        // resolution trail (both stop at the same missing link).
        if !self.shadow.resolves_to(comps, chain) {
            let (trail, _) = self.shadow.resolve(comps);
            self.flag(
                ViolationKind::OptValidation,
                format!("{tid} claimed chain {chain:?}, stale at its stamp (shadow {trail:?})"),
            );
            return;
        }
        // A lockless completion has no trailing Lp: the claim is its
        // linearization point. So is a locked read (`read` on the
        // terminal file): the runtime unlocks and returns. A locked
        // mutation stays pending (see below).
        let effect_free = !locked
            || matches!(
                op,
                OpDesc::Stat { .. } | OpDesc::Readdir { .. } | OpDesc::Read { .. }
            );
        let decided = effect_free.then(|| self.decide_claim(tid, op));
        self.stats.opt_claims += 1;
        self.narrate(|| {
            format!(
                "{tid} claims a validated optimistic chain of {} node(s)",
                chain.len()
            )
        });
        if locked {
            // The validated chain is admitted as the lock-path witness the
            // pessimistic walk would have produced (the fast-path lock is
            // its last element). A mutation stays pending, exactly like a
            // lock-coupled walker holding the same node: it linearizes at
            // its own LP, or when a rename's `linothers` helps it.
            if let Some(e) = self.pool.get_mut(tid) {
                e.desc.common = chain.to_vec();
            }
        }
        if let Some(decided) = decided {
            self.lin_claim_effectless(tid, decided);
        }
    }

    /// Decide `tid`'s effect-free claim of `op`: its return value, and
    /// the violation to report if it would change the state it was
    /// decided on.
    ///
    /// The decision is made against the *rolled-back* abstract state — the
    /// concrete-time view. A helped-but-undischarged operation's effects
    /// are not concrete yet, so that view is what the runtime actually
    /// read. With no helped operation outstanding the view is the abstract
    /// state itself; otherwise a [`RolledView`] rolls back only the nodes
    /// the operation reads. Nothing is copied unless a helped effect
    /// names a node on the operation's path.
    fn decide_claim(&self, tid: Tid, op: &OpDesc) -> Result<(OpRet, Option<String>), StateError> {
        let (ret, changes) = if self.pool.helplist.is_empty() {
            decide(&self.afs, op)
        } else {
            let view = RolledView::new(&self.afs, &self.pool);
            let decided = decide(&view, op);
            if let Some(e) = view.into_error() {
                return Err(e);
            }
            decided
        };
        let change = changes
            .then(|| format!("{tid}'s lockless claim of {op} would change the abstract state"));
        Ok((ret, change))
    }

    /// Linearize an effect-free operation (a read, or a mutation that
    /// fails without touching anything) at its optimistic claim, with the
    /// outcome [`LpChecker::decide_claim`] reached.
    ///
    /// Ordering the effect-free operation before the in-flight helped
    /// operations is a legal linearization because both overlap it in
    /// real time and it changes nothing. Effect-free claims never emit a
    /// trailing LP (the claim is the linearization point), so the thread
    /// stays off the Helplist.
    ///
    /// An operation that would *change* that view cannot have been decided
    /// there: its chain ran through another operation's critical section,
    /// whose mutations the shadow shows before that operation's LP — and
    /// the claim's validation, run after its stamp, sees those writes.
    fn lin_claim_effectless(
        &mut self,
        tid: Tid,
        decided: Result<(OpRet, Option<String>), StateError>,
    ) {
        if let Some(m) = &self.metrics {
            m.lin(false);
        }
        let (ret, change) = match decided {
            Ok(d) => d,
            Err(e) => {
                self.flag(
                    ViolationKind::AbstractionRelation,
                    format!("{tid}: roll-back at optimistic claim failed: {e}"),
                );
                return;
            }
        };
        if let Some(msg) = change {
            self.flag(ViolationKind::OptValidation, msg);
        }
        self.narrate(|| format!("{tid} linearized at its optimistic claim => {ret}"));
        let entry = self.pool.get_mut(tid).expect("caller checked");
        entry.aop = AopState::Done(ret);
    }

    fn check_relation(&mut self) {
        self.stats.relation_checks += 1;
        if let Some(m) = &self.metrics {
            // Roll-back depth = how many helped-but-unfinished operations
            // the relation had to unwind to reach a consistent view.
            m.rollback(self.pool.helplist.len() as u64);
        }
        if self.incr.full || !self.violations.is_empty() {
            // Broken run: keep the exact whole-state scan so verdicts and
            // messages match the offline checker's.
            self.incr.rel_conc.clear();
            self.incr.rel_abs.clear();
            self.check_relation_full();
            return;
        }
        // Clean run: only inodes touched since the last check can have
        // changed verdict. Both loops mirror `relation_violations` over
        // the dirty subsets, in its (sorted) order; at a first detection
        // every violating inode is dirty (any change or exemption lift
        // taints), so the emitted messages coincide with the full scan's.
        let mut dirty = std::mem::take(&mut self.incr.scratch_inos);
        IncrState::sorted(&mut self.incr.rel_conc, &mut dirty);
        let mut flags: Vec<String> = Vec::new();
        for &cid in &dirty {
            if self.locks.contains_key(&cid) || self.private.contains_key(&cid) {
                // Exempt while locked/private — no requeue needed: the
                // unlock / publication taints it again.
                continue;
            }
            let Some(cnode) = self.shadow.map.get(&cid) else {
                // Gone from the concrete state; the abstract side is
                // judged through `rel_abs`.
                continue;
            };
            let Some(aid) = self.binding.abs(cid) else {
                flags.push(format!("concrete inode {cid} has no abstract counterpart"));
                continue;
            };
            match rolled_node(&self.afs, &self.pool, aid) {
                Err(_) => {
                    // Per-inode roll-back hit inconsistent metadata; the
                    // whole-state roll-back owns the diagnosis.
                    self.incr.full = true;
                    self.check_relation_full();
                    return;
                }
                Ok(None) => flags.push(format!(
                    "concrete inode {cid} (abs {aid}) missing from rolled-back abstract state"
                )),
                Ok(Some(anode)) => {
                    if let Some(msg) = match_nodes(cid, cnode, aid, &anode, &self.binding) {
                        flags.push(msg);
                    }
                }
            }
        }
        IncrState::sorted(&mut self.incr.rel_abs, &mut dirty);
        for &aid in &dirty {
            match rolled_node(&self.afs, &self.pool, aid) {
                Err(_) => {
                    self.incr.full = true;
                    self.check_relation_full();
                    return;
                }
                // Absent from the rolled-back view — the full scan would
                // not visit it either.
                Ok(None) => continue,
                Ok(Some(_)) => {}
            }
            match self.binding.conc(aid) {
                Some(cid) => {
                    if !self.shadow.map.contains_key(&cid) && !self.locks.contains_key(&cid) {
                        flags.push(format!(
                            "abstract inode {aid} (concrete {cid}) missing from concrete state"
                        ));
                    }
                }
                None => {
                    if is_provisional(aid) {
                        flags.push(format!(
                            "provisional abstract inode {aid} survived roll-back unbound"
                        ));
                    } else {
                        flags.push(format!(
                            "abstract inode {aid} is not bound to any concrete inode"
                        ));
                    }
                }
            }
        }
        self.incr.scratch_inos = dirty;
        for msg in flags {
            self.flag(ViolationKind::AbstractionRelation, msg);
        }
    }

    /// The exact whole-state relation scan (offline semantics).
    fn check_relation_full(&mut self) {
        match rolled_back(&self.afs, &self.pool) {
            Ok(rolled) => {
                for msg in relation_violations(
                    &self.shadow,
                    &rolled,
                    &self.binding,
                    &self.locks,
                    &self.private,
                ) {
                    self.flag(ViolationKind::AbstractionRelation, msg);
                }
            }
            Err(e) => {
                self.flag(
                    ViolationKind::AbstractionRelation,
                    format!("roll-back failed: {e}"),
                );
            }
        }
    }

    fn check_invariants(&mut self) {
        if self.incr.full || !self.violations.is_empty() {
            self.incr.afs_dirty.clear();
            self.incr.moved.clear();
            for v in invariants::check_all(&self.afs, &self.pool, &self.locks) {
                self.flag(v.0, v.1);
            }
            return;
        }
        // Same emission order as `invariants::check_all`: GoodAfs,
        // LastLocked, Helplist, Lockpath.
        self.check_good_afs_incremental();
        self.check_last_locked_fast();
        for m in invariants::helplist_consistency(&self.pool) {
            self.flag(ViolationKind::HelplistConsistency, m);
        }
        self.check_lockpath_wellformed_fast();
    }

    /// Incremental `GoodAFS`: judge only dirty abstract inodes with the
    /// maintained link counters, and walk up from each directory a rename
    /// moved since the last check. On any suspicion the exact
    /// [`invariants::good_afs`] runs, so messages on broken states are
    /// identical to the full check's.
    ///
    /// A link to a missing inode needs no scan of the directory holding
    /// it: such a link arises only from inserting a missing child or
    /// removing a linked one, and either leaves that child dirty, absent
    /// and counted as linked. A cycle detached from the root keeps every
    /// count at 1; it can arise only from a rename moving a directory
    /// under its own subtree, and walking up from that directory then
    /// meets itself before the root.
    fn check_good_afs_incremental(&mut self) {
        let afs = &self.afs;
        let incr = &self.incr;
        let mut suspicious = incr.afs_dirty.iter().any(|id| {
            let count = incr.parents.get(id).map_or(0, |l| l.count);
            match afs.map.get(id) {
                Some(_) => count != i64::from(*id != afs.root),
                None => count != 0,
            }
        });
        if !suspicious {
            suspicious = incr.moved.iter().any(|&id| {
                matches!(afs.map.get(&id), Some(Node::Dir(_))) && !incr.reaches_root(afs, id)
            });
        }
        self.incr.afs_dirty.clear();
        self.incr.moved.clear();
        if !suspicious {
            return;
        }
        let msgs = invariants::good_afs(&self.afs);
        if msgs.is_empty() {
            // Counter drift without a real violation (defensive): rebuild.
            self.resync_parents();
            return;
        }
        for m in msgs {
            self.flag(ViolationKind::GoodAfs, m);
        }
    }

    /// Rebuild the link counters from the abstract state.
    fn resync_parents(&mut self) {
        self.incr.parents.clear();
        for (&id, node) in &self.afs.map {
            if let Node::Dir(d) = node {
                for &child in d.values() {
                    self.incr.relink(child, id, true);
                }
            }
        }
    }

    /// `Last-locked-lockpath` without materializing lock paths: the last
    /// inode of `src_path` is the last of `src_branch` (or of `common`),
    /// the last of `dst_path` the last of `dst_branch`.
    fn check_last_locked_fast(&mut self) {
        let mut flags: Vec<String> = Vec::new();
        for (tid, entry) in self.pool.iter() {
            if !entry.aop.is_pending() || !self.locks.values().any(|t| *t == tid) {
                continue;
            }
            let d = &entry.desc;
            let src_last = d.src_branch.last().or(d.common.last());
            if let Some(&last) = src_last {
                if self.locks.get(&last) != Some(&tid) {
                    flags.push(format!(
                        "pending {tid}: last lock-path inode {last} not locked by it"
                    ));
                }
            }
            if let Some(&last) = d.dst_branch.last() {
                if self.locks.get(&last) != Some(&tid) {
                    flags.push(format!(
                        "pending {tid}: last lock-path inode {last} not locked by it"
                    ));
                }
            }
        }
        for m in flags {
            self.flag(ViolationKind::LastLockedLockpath, m);
        }
    }

    /// `Lockpath-wellformed` without per-pair path materialization:
    /// identical-path and proper-prefix tests run on chained slices; the
    /// Kahn cycle check only runs when some proper-prefix pair exists
    /// (an empty LB relation is trivially acyclic).
    fn check_lockpath_wellformed_fast(&mut self) {
        let mut pending = std::mem::take(&mut self.incr.scratch_tids);
        pending.clear();
        pending.extend(
            self.pool
                .iter()
                .filter(|(_, e)| e.aop.is_pending())
                .map(|(t, _)| t),
        );
        pending.sort_unstable();
        let mut flags: Vec<(ViolationKind, String)> = Vec::new();
        let mut any_prefix = false;
        for (i, &a) in pending.iter().enumerate() {
            let da = &self.pool.get(a).expect("pending").desc;
            let pa = [PathView::src(da), PathView::dst(da)];
            for &b in pending.iter().skip(i + 1) {
                let db = &self.pool.get(b).expect("pending").desc;
                let pb = [PathView::src(db), PathView::dst(db)];
                for x in pa.iter().flatten() {
                    for y in pb.iter().flatten() {
                        if !x.is_empty() && x.eq_view(y) {
                            flags.push((
                                ViolationKind::LockpathWellformed,
                                format!(
                                    "{a} and {b} share the identical lock path {:?}",
                                    x.to_vec()
                                ),
                            ));
                        }
                        if x.is_proper_prefix_of(y) || y.is_proper_prefix_of(x) {
                            any_prefix = true;
                        }
                    }
                }
            }
        }
        if any_prefix {
            let lbset = linearize_before_set(&self.pool);
            let set: std::collections::BTreeSet<Tid> = pending.iter().copied().collect();
            if let Err(cyclic) = total_order(&set, &lbset) {
                flags.push((
                    ViolationKind::LockpathWellformed,
                    format!("LockPathPrefix relation is cyclic among {cyclic:?}"),
                ));
            }
        }
        self.incr.scratch_tids = pending;
        for (k, m) in flags {
            self.flag(k, m);
        }
    }
}

/// A lock path seen as two chained slices (common prefix + branch),
/// avoiding the `Vec<Vec<Inum>>` that [`Descriptor::lock_paths`] builds.
#[derive(Clone, Copy)]
struct PathView<'a> {
    head: &'a [Inum],
    tail: &'a [Inum],
}

impl<'a> PathView<'a> {
    fn src(d: &'a Descriptor) -> Option<Self> {
        Some(PathView {
            head: &d.common,
            tail: &d.src_branch,
        })
    }

    fn dst(d: &'a Descriptor) -> Option<Self> {
        if d.dst_branch.is_empty() {
            None
        } else {
            Some(PathView {
                head: &d.common,
                tail: &d.dst_branch,
            })
        }
    }

    fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn iter(&self) -> impl Iterator<Item = Inum> + 'a {
        self.head.iter().chain(self.tail.iter()).copied()
    }

    fn eq_view(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }

    fn is_proper_prefix_of(&self, other: &Self) -> bool {
        self.len() < other.len() && self.iter().eq(other.iter().take(self.len()))
    }

    fn to_vec(self) -> Vec<Inum> {
        self.iter().collect()
    }
}

/// Predict the sequence of inode locks an operation will acquire,
/// resolved against the abstract state it is being linearized in, and
/// return the suffix it has not taken yet (the paper's `FutLockPath`).
///
/// The prediction mirrors the concrete traversal exactly: the common walk,
/// then — for renames — the source branch, destination branch, victim,
/// and source node, stopping where resolution (and hence the concrete
/// walk) will stop.
fn compute_fut(op: &OpDesc, locks_taken: usize, afs: &FsState) -> VecDeque<Inum> {
    let seq = predict_lock_sequence(op, afs);
    seq.into_iter().skip(locks_taken).collect()
}

/// The path components an operation's optimistic chain resolves: the
/// parent chain for namespace mutations (the victim of a remove is locked
/// *after* the claim), the full path for node operations. `None` for
/// renames, which never take the fast path.
fn opt_comps(op: &OpDesc) -> Option<&[String]> {
    match op {
        OpDesc::Mknod { path }
        | OpDesc::Mkdir { path }
        | OpDesc::Unlink { path }
        | OpDesc::Rmdir { path } => Some(path.split_last().map(|(_, p)| p).unwrap_or(&[])),
        OpDesc::Stat { path }
        | OpDesc::Readdir { path }
        | OpDesc::Read { path, .. }
        | OpDesc::Write { path, .. }
        | OpDesc::Truncate { path, .. } => Some(path),
        OpDesc::Rename { .. } => None,
    }
}

fn predict_lock_sequence(op: &OpDesc, afs: &FsState) -> Vec<Inum> {
    fn walk(afs: &FsState, start: Inum, comps: &[String], out: &mut Vec<Inum>) -> Option<Inum> {
        let mut cur = start;
        for name in comps {
            let child = afs
                .node(cur)
                .and_then(crate::state::Node::as_dir)
                .and_then(|d| d.get(name).copied());
            match child {
                Some(c) => {
                    out.push(c);
                    cur = c;
                }
                None => return None,
            }
        }
        Some(cur)
    }
    let root = afs.root;
    let mut seq = vec![root];
    match op {
        OpDesc::Mknod { path } | OpDesc::Mkdir { path } => {
            if let Some((_, parent)) = path.split_last() {
                walk(afs, root, parent, &mut seq);
            }
        }
        OpDesc::Unlink { path } | OpDesc::Rmdir { path } => {
            // Locks the parent chain and then the victim itself.
            walk(afs, root, path, &mut seq);
        }
        OpDesc::Stat { path }
        | OpDesc::Readdir { path }
        | OpDesc::Read { path, .. }
        | OpDesc::Write { path, .. }
        | OpDesc::Truncate { path, .. } => {
            walk(afs, root, path, &mut seq);
        }
        OpDesc::Rename { src, dst } => {
            if src.is_empty() || dst.is_empty() || src == dst {
                // Self-rename walks only the parent chain.
                if src == dst && !src.is_empty() {
                    let (_, sp) = src.split_last().expect("nonempty");
                    walk(afs, root, sp, &mut seq);
                }
                return seq;
            }
            if src.len() < dst.len() && dst[..src.len()] == src[..] {
                return seq; // EINVAL before any lock... except OpBegin? No locks.
            }
            let dst_is_ancestor = dst.len() < src.len() && src[..dst.len()] == dst[..];
            let (sn, sp) = src.split_last().expect("nonempty");
            let (dn, dp) = dst.split_last().expect("nonempty");
            let clen = sp.iter().zip(dp.iter()).take_while(|(a, b)| a == b).count();
            let Some(common) = walk(afs, root, &sp[..clen], &mut seq) else {
                return seq;
            };
            let Some(sdir) = walk(afs, common, &sp[clen..], &mut seq) else {
                return seq;
            };
            let Some(ddir) = walk(afs, common, &dp[clen..], &mut seq) else {
                return seq;
            };
            let dir_of = |id: Inum| afs.node(id).and_then(crate::state::Node::as_dir);
            let (Some(sd), Some(dd)) = (dir_of(sdir), dir_of(ddir)) else {
                return seq;
            };
            let Some(snode) = sd.get(sn).copied() else {
                return seq;
            };
            if dst_is_ancestor {
                return seq;
            }
            let dnode = dd.get(dn).copied();
            if dnode == Some(snode) {
                return seq;
            }
            if let Some(d) = dnode {
                seq.push(d);
            }
            seq.push(snode);
        }
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::afs::step;

    fn comps(s: &[&str]) -> Vec<String> {
        s.iter().map(|c| c.to_string()).collect()
    }

    #[test]
    fn predict_sequence_for_stat() {
        let mut afs = FsState::new();
        step(
            &mut afs,
            &OpDesc::Mkdir {
                path: comps(&["a"]),
            },
        );
        step(
            &mut afs,
            &OpDesc::Mknod {
                path: comps(&["a", "f"]),
            },
        );
        let seq = predict_lock_sequence(
            &OpDesc::Stat {
                path: comps(&["a", "f"]),
            },
            &afs,
        );
        assert_eq!(seq.len(), 3); // root, a, f
                                  // A stat that will fail midway predicts locks up to the failure.
        let seq = predict_lock_sequence(
            &OpDesc::Stat {
                path: comps(&["a", "missing", "x"]),
            },
            &afs,
        );
        assert_eq!(seq.len(), 2); // root, a
    }

    #[test]
    fn predict_sequence_for_rename() {
        let mut afs = FsState::new();
        for p in [vec!["a"], vec!["b"]] {
            step(&mut afs, &OpDesc::Mkdir { path: comps(&p) });
        }
        step(
            &mut afs,
            &OpDesc::Mknod {
                path: comps(&["a", "f"]),
            },
        );
        let seq = predict_lock_sequence(
            &OpDesc::Rename {
                src: comps(&["a", "f"]),
                dst: comps(&["b", "g"]),
            },
            &afs,
        );
        // root, a (src branch), b (dst branch), snode f — no victim.
        assert_eq!(seq.len(), 4);
        let fut = compute_fut(
            &OpDesc::Rename {
                src: comps(&["a", "f"]),
                dst: comps(&["b", "g"]),
            },
            1, // already locked root
            &afs,
        );
        assert_eq!(fut.len(), 3);
    }

    #[test]
    fn empty_trace_checks_clean() {
        let report = LpChecker::check(CheckerConfig::default(), &[]);
        report.assert_ok();
        assert_eq!(report.stats.ops_begun, 0);
    }

    #[test]
    fn stamped_trace_requires_strictly_increasing_stamps() {
        let ok_trace = vec![
            (
                3u64,
                Event::OpBegin {
                    tid: Tid(1),
                    op: OpDesc::Stat {
                        path: comps(&["missing"]),
                    },
                },
            ),
            (
                7u64,
                Event::Lock {
                    tid: Tid(1),
                    ino: 1,
                    tag: PathTag::Common,
                },
            ),
            (8u64, Event::Lp { tid: Tid(1) }),
            (
                9u64,
                Event::Unlock {
                    tid: Tid(1),
                    ino: 1,
                },
            ),
            (
                12u64,
                Event::OpEnd {
                    tid: Tid(1),
                    ret: OpRet::Err(atomfs_vfs::FsError::NotFound),
                },
            ),
        ];
        LpChecker::check_stamped(CheckerConfig::default(), &ok_trace).assert_ok();

        // The same events with two stamps swapped out of order must flag
        // a Protocol violation even though the event order is unchanged.
        let mut bad = ok_trace;
        bad[1].0 = 100;
        let report = LpChecker::check_stamped(CheckerConfig::default(), &bad);
        assert!(!report.is_ok());
        assert!(!report.of_kind(ViolationKind::Protocol).is_empty());
    }

    // ---- optimistic-traversal admission ----

    fn cfg_full() -> CheckerConfig {
        CheckerConfig {
            mode: HelperMode::Helpers,
            relation: RelationCadence::EveryEvent,
            invariants: true,
        }
    }

    /// The instrumented fast-path mknod/mkdir grammar: a claim that
    /// announces the parent's lock, mutate under it, LP, unlock.
    fn fast_create(tid: Tid, name: &str, new_ino: Inum, ftype: FileType) -> Vec<Event> {
        let path = comps(&[name]);
        vec![
            Event::OpBegin {
                tid,
                op: match ftype {
                    FileType::File => OpDesc::Mknod { path },
                    FileType::Dir => OpDesc::Mkdir { path },
                },
            },
            claim(tid, &[1], true, true),
            Event::Mutate {
                tid,
                mop: MicroOp::Create {
                    ino: new_ino,
                    ftype,
                },
            },
            Event::Mutate {
                tid,
                mop: MicroOp::Ins {
                    parent: 1,
                    name: name.to_string(),
                    child: new_ino,
                },
            },
            Event::Lp { tid },
            Event::Unlock { tid, ino: 1 },
            Event::OpEnd {
                tid,
                ret: OpRet::Ok,
            },
        ]
    }

    fn claim(tid: Tid, chain: &[Inum], locked: bool, ok: bool) -> Event {
        Event::OptValidate {
            tid,
            chain: chain.to_vec(),
            locked,
            ok,
        }
    }

    fn lock(tid: Tid, ino: Inum) -> Event {
        Event::Lock {
            tid,
            ino,
            tag: PathTag::Common,
        }
    }

    fn mutate(tid: Tid, mop: MicroOp) -> Event {
        Event::Mutate { tid, mop }
    }

    /// Check a hand-written schedule with helpers, per-event relation
    /// checks and invariants, and cross-check it against WGL.
    fn assert_clean_and_linearizable(trace: &[Event]) -> CheckReport {
        let report = LpChecker::check(cfg_full(), trace);
        report.assert_ok();
        crate::wgl::check_linearizable(&crate::history::History::from_trace(trace))
            .unwrap_or_else(|e| panic!("WGL rejected the schedule: {e}"));
        report
    }

    /// ROADMAP item 1's schedule. A's fast-path `unlink /f` claims on the
    /// root while B's pessimistic `write /f` is pinned on the file; A then
    /// blocks on the file's lock until B has written and passed its LP.
    /// The claim is a lock-path witness, not a linearization point: A
    /// linearizes at its own LP, after B.
    #[test]
    fn unlink_claim_behind_a_pinned_write_linearizes_at_its_lp() {
        let (a, b) = (Tid(1), Tid(2));
        let data = b"abc".to_vec();
        let mut trace = fast_create(a, "f", 2, FileType::File);
        trace.extend([
            Event::OpBegin {
                tid: b,
                op: OpDesc::Write {
                    path: comps(&["f"]),
                    offset: 0,
                    data: data.clone(),
                },
            },
            lock(b, 1),
            lock(b, 2),
            Event::Unlock { tid: b, ino: 1 },
            Event::OpBegin {
                tid: a,
                op: OpDesc::Unlink {
                    path: comps(&["f"]),
                },
            },
            claim(a, &[1], true, true),
            mutate(b, MicroOp::replace(2, Vec::new(), data.clone())),
            Event::Lp { tid: b },
            Event::Unlock { tid: b, ino: 2 },
            Event::OpEnd {
                tid: b,
                ret: OpRet::Written(3),
            },
            lock(a, 2),
            mutate(
                a,
                MicroOp::Del {
                    parent: 1,
                    name: "f".into(),
                    child: 2,
                },
            ),
            Event::Lp { tid: a },
            Event::Unlock { tid: a, ino: 1 },
            mutate(a, MicroOp::replace(2, data, Vec::new())),
            mutate(
                a,
                MicroOp::Remove {
                    ino: 2,
                    ftype: FileType::File,
                },
            ),
            Event::Unlock { tid: a, ino: 2 },
            Event::OpEnd {
                tid: a,
                ret: OpRet::Ok,
            },
        ]);
        let report = assert_clean_and_linearizable(&trace);
        assert_eq!(report.stats.opt_claims, 2);
        assert_eq!(report.stats.helps, 0);
    }

    /// The `rmdir` twin: A's fast-path `rmdir /d` claims on the root while
    /// B's `mknod /d/g` is pinned inside the victim. B creates first, so
    /// A's LP finds the directory non-empty.
    #[test]
    fn rmdir_claim_behind_a_pinned_create_linearizes_at_its_lp() {
        let (a, b) = (Tid(1), Tid(2));
        let mut trace = fast_create(a, "d", 2, FileType::Dir);
        trace.extend([
            Event::OpBegin {
                tid: b,
                op: OpDesc::Mknod {
                    path: comps(&["d", "g"]),
                },
            },
            lock(b, 1),
            lock(b, 2),
            Event::Unlock { tid: b, ino: 1 },
            Event::OpBegin {
                tid: a,
                op: OpDesc::Rmdir {
                    path: comps(&["d"]),
                },
            },
            claim(a, &[1], true, true),
            mutate(
                b,
                MicroOp::Create {
                    ino: 3,
                    ftype: FileType::File,
                },
            ),
            mutate(
                b,
                MicroOp::Ins {
                    parent: 2,
                    name: "g".into(),
                    child: 3,
                },
            ),
            Event::Lp { tid: b },
            Event::Unlock { tid: b, ino: 2 },
            Event::OpEnd {
                tid: b,
                ret: OpRet::Ok,
            },
            lock(a, 2),
            Event::Lp { tid: a },
            Event::Unlock { tid: a, ino: 2 },
            Event::Unlock { tid: a, ino: 1 },
            Event::OpEnd {
                tid: a,
                ret: OpRet::Err(atomfs_vfs::FsError::NotEmpty),
            },
        ]);
        assert_clean_and_linearizable(&trace);
    }

    /// The write-claim-then-unlink twin: B's fast-path `write /f` holds
    /// the file and A's fast-path `unlink /f` claims on the root. B's
    /// claim decided after A's (refused by the ancestor probe) is
    /// `ok: false` and releases the file silently; its retry finds the
    /// file gone. Had B's claim been granted, the lock it announced is
    /// B's until an `Unlock`, so A locking the file is a violation.
    #[test]
    fn write_claim_under_an_unlink_claim_is_refused_or_flagged() {
        let (a, b) = (Tid(1), Tid(2));
        let trace = |b_claimed_first: bool| {
            let b_claim = claim(b, &[1, 2], true, b_claimed_first);
            let mut trace = fast_create(a, "f", 2, FileType::File);
            trace.push(Event::OpBegin {
                tid: b,
                op: OpDesc::Write {
                    path: comps(&["f"]),
                    offset: 0,
                    data: b"abc".to_vec(),
                },
            });
            if b_claimed_first {
                trace.push(b_claim.clone());
            }
            trace.extend([
                Event::OpBegin {
                    tid: a,
                    op: OpDesc::Unlink {
                        path: comps(&["f"]),
                    },
                },
                claim(a, &[1], true, true),
            ]);
            if !b_claimed_first {
                trace.push(b_claim);
            }
            trace.extend([
                lock(a, 2),
                mutate(
                    a,
                    MicroOp::Del {
                        parent: 1,
                        name: "f".into(),
                        child: 2,
                    },
                ),
                Event::Lp { tid: a },
                Event::Unlock { tid: a, ino: 1 },
                mutate(
                    a,
                    MicroOp::Remove {
                        ino: 2,
                        ftype: FileType::File,
                    },
                ),
                Event::Unlock { tid: a, ino: 2 },
                Event::OpEnd {
                    tid: a,
                    ret: OpRet::Ok,
                },
                claim(b, &[1], false, true),
                Event::OpEnd {
                    tid: b,
                    ret: OpRet::Err(atomfs_vfs::FsError::NotFound),
                },
            ]);
            trace
        };
        let report = LpChecker::check(cfg_full(), &trace(true));
        assert!(!report.of_kind(ViolationKind::Protocol).is_empty());
        let report = assert_clean_and_linearizable(&trace(false));
        assert_eq!(report.stats.opt_retries, 1);
    }

    /// A lockless claim stamped inside a rename's critical section: the
    /// shadow has lost `/a` (the rename's `Del` is in), the abstract state
    /// has not (its LP is still ahead), so the walk-decided `ENOENT`
    /// cannot linearize there — whether the claim then completes or
    /// retries. Validated at its stamp, the claim is refused.
    #[test]
    fn lockless_claim_inside_a_critical_section_is_a_violation() {
        let (a, b, r) = (Tid(1), Tid(2), Tid(3));
        let unlink = |tid| Event::OpBegin {
            tid,
            op: OpDesc::Unlink {
                path: comps(&["a", "f"]),
            },
        };
        let mut head = fast_create(a, "a", 2, FileType::Dir);
        head.extend([
            Event::OpBegin {
                tid: a,
                op: OpDesc::Mknod {
                    path: comps(&["a", "f"]),
                },
            },
            claim(a, &[1, 2], true, true),
            mutate(
                a,
                MicroOp::Create {
                    ino: 3,
                    ftype: FileType::File,
                },
            ),
            mutate(
                a,
                MicroOp::Ins {
                    parent: 2,
                    name: "f".into(),
                    child: 3,
                },
            ),
            Event::Lp { tid: a },
            Event::Unlock { tid: a, ino: 2 },
            Event::OpEnd {
                tid: a,
                ret: OpRet::Ok,
            },
            Event::OpBegin {
                tid: r,
                op: OpDesc::Rename {
                    src: comps(&["a"]),
                    dst: comps(&["b"]),
                },
            },
            lock(r, 1),
            Event::Lock {
                tid: r,
                ino: 2,
                tag: PathTag::Src,
            },
            mutate(
                r,
                MicroOp::Del {
                    parent: 1,
                    name: "a".into(),
                    child: 2,
                },
            ),
            unlink(b),
        ]);
        let b_claim = |ok| claim(b, &[1], false, ok);
        let enoent = Event::OpEnd {
            tid: b,
            ret: OpRet::Err(atomfs_vfs::FsError::NotFound),
        };
        let rename_tail = [
            mutate(
                r,
                MicroOp::Ins {
                    parent: 1,
                    name: "b".into(),
                    child: 2,
                },
            ),
            Event::Lp { tid: r },
            Event::Unlock { tid: r, ino: 2 },
            Event::Unlock { tid: r, ino: 1 },
            Event::OpEnd {
                tid: r,
                ret: OpRet::Ok,
            },
        ];

        let retried = |ok| {
            let mut trace = head.clone();
            trace.push(b_claim(ok));
            trace.extend(rename_tail.clone());
            trace.extend([b_claim(true), enoent.clone()]);
            trace
        };

        let mut committed = head.clone();
        committed.extend([b_claim(true), enoent.clone()]);
        committed.extend(rename_tail.clone());
        let report = LpChecker::check(cfg_full(), &committed);
        assert!(!report.of_kind(ViolationKind::OptValidation).is_empty());

        let report = LpChecker::check(cfg_full(), &retried(true));
        assert!(!report.of_kind(ViolationKind::OptValidation).is_empty());

        assert_clean_and_linearizable(&retried(false));
    }

    #[test]
    fn fast_path_mkdir_checks_clean() {
        let trace = fast_create(Tid(1), "a", 2, FileType::Dir);
        let report = LpChecker::check(cfg_full(), &trace);
        report.assert_ok();
        assert_eq!(report.stats.opt_claims, 1);
        assert_eq!(report.stats.opt_retries, 0);
        assert_eq!(report.stats.helps, 0);
    }

    #[test]
    fn lockless_stat_claim_is_the_linearization_point() {
        let mut trace = fast_create(Tid(1), "a", 2, FileType::Dir);
        let t = Tid(2);
        trace.extend([
            Event::OpBegin {
                tid: t,
                op: OpDesc::Stat {
                    path: comps(&["a"]),
                },
            },
            claim(t, &[1, 2], false, true),
            Event::OpEnd {
                tid: t,
                ret: OpRet::Stat(atomfs_trace::StatRet {
                    is_dir: true,
                    size: 0,
                }),
            },
        ]);
        let report = LpChecker::check(cfg_full(), &trace);
        report.assert_ok();
        assert_eq!(report.stats.opt_claims, 2);
        // No Lock, no Lp: the claim linearized the stat by itself.
        assert_eq!(report.stats.lps, 1);
    }

    /// A refused claim linearizes nothing: ending the operation there
    /// leaves it without a linearization.
    #[test]
    fn refused_claim_followed_by_op_end_is_flagged() {
        let t = Tid(1);
        let trace = vec![
            Event::OpBegin {
                tid: t,
                op: OpDesc::Stat {
                    path: comps(&["a"]),
                },
            },
            claim(t, &[1], false, false),
            Event::OpEnd {
                tid: t,
                ret: OpRet::Err(atomfs_vfs::FsError::NotFound),
            },
        ];
        let report = LpChecker::check(cfg_full(), &trace);
        assert!(!report.of_kind(ViolationKind::NoLinearization).is_empty());
    }

    /// A refused claim announces no lock: mutating under it breaks the
    /// guarantee condition.
    #[test]
    fn refused_claim_followed_by_mutate_is_flagged() {
        let t = Tid(1);
        let trace = vec![
            Event::OpBegin {
                tid: t,
                op: OpDesc::Mkdir {
                    path: comps(&["a"]),
                },
            },
            claim(t, &[1], true, false),
            mutate(
                t,
                MicroOp::Create {
                    ino: 2,
                    ftype: FileType::Dir,
                },
            ),
            mutate(
                t,
                MicroOp::Ins {
                    parent: 1,
                    name: "a".into(),
                    child: 2,
                },
            ),
            Event::Lp { tid: t },
            Event::OpEnd {
                tid: t,
                ret: OpRet::Ok,
            },
        ];
        let report = LpChecker::check(cfg_full(), &trace);
        assert!(!report.of_kind(ViolationKind::RelyGuarantee).is_empty());
    }

    #[test]
    fn failed_validation_with_retry_and_fallback_checks_clean() {
        let t = Tid(1);
        let trace = vec![
            Event::OpBegin {
                tid: t,
                op: OpDesc::Stat {
                    path: comps(&["a"]),
                },
            },
            claim(t, &[1], false, false),
            // Pessimistic fallback: lock-coupled walk fails at the root.
            Event::Lock {
                tid: t,
                ino: 1,
                tag: PathTag::Common,
            },
            Event::Lp { tid: t },
            Event::Unlock { tid: t, ino: 1 },
            Event::OpEnd {
                tid: t,
                ret: OpRet::Err(atomfs_vfs::FsError::NotFound),
            },
        ];
        let report = LpChecker::check(cfg_full(), &trace);
        report.assert_ok();
        assert_eq!(report.stats.opt_retries, 1);
        assert_eq!(report.stats.opt_claims, 0);
    }

    #[test]
    fn stale_chain_claim_is_a_violation() {
        // The claimed chain does not match the shadow resolution at the
        // claim's stamp. The runtime validates after the stamp, so such a
        // claim is refused (`ok: false`); claimed `ok`, it is a violation
        // whether the operation then completes or retries.
        let t = Tid(1);
        let head = |ok| {
            vec![
                Event::OpBegin {
                    tid: t,
                    op: OpDesc::Stat {
                        path: comps(&["a"]),
                    },
                },
                claim(t, &[1, 99], false, ok),
            ]
        };
        let mut bad = head(true);
        bad.push(Event::OpEnd {
            tid: t,
            ret: OpRet::Err(atomfs_vfs::FsError::NotFound),
        });
        let report = LpChecker::check(cfg_full(), &bad);
        assert!(!report.is_ok());
        assert!(!report.of_kind(ViolationKind::OptValidation).is_empty());

        let retried = |ok| {
            let mut trace = head(ok);
            trace.extend([
                Event::Lock {
                    tid: t,
                    ino: 1,
                    tag: PathTag::Common,
                },
                Event::Lp { tid: t },
                Event::Unlock { tid: t, ino: 1 },
                Event::OpEnd {
                    tid: t,
                    ret: OpRet::Err(atomfs_vfs::FsError::NotFound),
                },
            ]);
            trace
        };
        let report = LpChecker::check(cfg_full(), &retried(true));
        assert!(!report.of_kind(ViolationKind::OptValidation).is_empty());
        LpChecker::check(cfg_full(), &retried(false)).assert_ok();
    }

    #[test]
    fn rename_may_not_take_the_fast_path() {
        let t = Tid(1);
        let trace = vec![
            Event::OpBegin {
                tid: t,
                op: OpDesc::Rename {
                    src: comps(&["a"]),
                    dst: comps(&["b"]),
                },
            },
            claim(t, &[1], false, true),
        ];
        let report = LpChecker::check(cfg_full(), &trace);
        assert!(!report.is_ok());
        assert!(!report.of_kind(ViolationKind::OptValidation).is_empty());
    }

    #[test]
    fn claim_outside_an_operation_is_a_protocol_violation() {
        let trace = vec![claim(Tid(1), &[1], false, true)];
        let report = LpChecker::check(cfg_full(), &trace);
        assert!(!report.of_kind(ViolationKind::Protocol).is_empty());
    }

    #[test]
    fn chain_not_starting_at_the_root_is_flagged() {
        let t = Tid(1);
        for bad in [claim(t, &[2], false, true), claim(t, &[], false, false)] {
            let trace = vec![
                Event::OpBegin {
                    tid: t,
                    op: OpDesc::Stat {
                        path: comps(&["a"]),
                    },
                },
                bad,
            ];
            let report = LpChecker::check(cfg_full(), &trace);
            assert!(!report.of_kind(ViolationKind::OptValidation).is_empty());
        }
    }

    /// The incremental `GoodAFS` check walks up from a moved directory.
    /// The abstract rename refuses to move a directory under its own
    /// subtree (`EINVAL`, decided on the paths), so no trace can make the
    /// checker apply such a move; the test applies the move's effects
    /// directly, as a linearization would, on top of a hand-built trace
    /// that made `/a/b`. Both check paths must flag the detached cycle
    /// with the exact full-scan messages.
    #[test]
    fn directory_moved_under_its_own_subtree_is_flagged_good_afs() {
        let t = Tid(1);
        let mut trace = fast_create(t, "a", 2, FileType::Dir);
        trace.extend([
            Event::OpBegin {
                tid: t,
                op: OpDesc::Mkdir {
                    path: comps(&["a", "b"]),
                },
            },
            lock(t, 1),
            lock(t, 2),
            Event::Unlock { tid: t, ino: 1 },
            mutate(
                t,
                MicroOp::Create {
                    ino: 3,
                    ftype: FileType::Dir,
                },
            ),
            mutate(
                t,
                MicroOp::Ins {
                    parent: 2,
                    name: "b".into(),
                    child: 3,
                },
            ),
            Event::Lp { tid: t },
            Event::Unlock { tid: t, ino: 2 },
            Event::OpEnd {
                tid: t,
                ret: OpRet::Ok,
            },
        ]);
        let cyclic = [
            MicroOp::Del {
                parent: 1,
                name: "a".into(),
                child: 2,
            },
            MicroOp::Ins {
                parent: 3,
                name: "c".into(),
                child: 2,
            },
        ];
        let flagged = |full: bool| {
            let mut c = LpChecker::new(cfg_full());
            if full {
                c = c.with_full_scans();
            }
            c.feed_all(&trace);
            assert!(c.violations().is_empty(), "{:?}", c.violations());
            for e in &cyclic {
                c.afs.apply_micro(e).unwrap();
            }
            c.note_effects(&cyclic, true);
            c.check_invariants();
            let msgs: Vec<String> = c
                .violations()
                .iter()
                .map(|v| {
                    assert_eq!(v.kind, ViolationKind::GoodAfs);
                    v.message.clone()
                })
                .collect();
            (msgs, invariants::good_afs(&c.afs))
        };
        let (incremental, expected) = flagged(false);
        assert!(!expected.is_empty());
        assert_eq!(incremental, expected);
        assert_eq!(flagged(true).0, expected);

        // A legal move of the same directory walks to the root unflagged.
        let mut c = LpChecker::new(cfg_full());
        c.feed_all(&trace);
        let legal = [
            MicroOp::Del {
                parent: 2,
                name: "b".into(),
                child: 3,
            },
            MicroOp::Ins {
                parent: 1,
                name: "b".into(),
                child: 3,
            },
        ];
        for e in &legal {
            c.afs.apply_micro(e).unwrap();
        }
        c.note_effects(&legal, true);
        c.check_invariants();
        assert!(c.violations().is_empty(), "{:?}", c.violations());
    }

    /// A granted `locked` claim takes its lock like a `Lock` event, with
    /// the same holder check.
    #[test]
    fn locked_claim_on_a_node_held_by_another_thread_is_a_protocol_violation() {
        let (a, b) = (Tid(1), Tid(2));
        let trace = vec![
            Event::OpBegin {
                tid: b,
                op: OpDesc::Stat {
                    path: comps(&["x"]),
                },
            },
            lock(b, 1),
            Event::OpBegin {
                tid: a,
                op: OpDesc::Mkdir {
                    path: comps(&["a"]),
                },
            },
            claim(a, &[1], true, true),
        ];
        let report = LpChecker::check(cfg_full(), &trace);
        let held = report.of_kind(ViolationKind::Protocol);
        assert!(held
            .iter()
            .any(|v| v.message.contains("already held by t2")));
    }
}
