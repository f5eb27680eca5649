//! Admission of *sharded* stamped mutation streams.
//!
//! The sharded journal (crate `atomfs-journal`) splits the mutation log
//! into per-shard streams of `(stamp, op)` pairs, where the stamps
//! come from one global counter taken inside the emitter's critical
//! sections — so stamp order is a legal total order of the execution's
//! mutations, contiguous from 0 per mount generation. This module is
//! the checker-side counterpart: it re-admits such a collection of
//! streams into the single totally-ordered mutation history recovery
//! replays, and enforces the two properties sharding could silently
//! break. It reads only stamps and transaction records, so the op
//! payload is generic (the journal's is its redo record):
//!
//! 1. **Prefix exactness** ([`merge_stamped`]): the k-way merge accepts
//!    only the contiguous stamp prefix `0, 1, 2, …`. The first missing
//!    stamp (an op lost in an unsealed epoch, an unsealed rename
//!    intent, a dead shard's tail) truncates everything after it —
//!    replaying *around* a hole would reorder history. The sole
//!    exception is an **explicitly recorded loss**: a quarantined
//!    shard's journal writes the stamp windows that died with it, and
//!    [`merge_stamped_with_windows`] skips a gap only when every missing
//!    stamp lies inside such a window ([`MergedLog::lost`] counts them).
//!    An *unrecorded* gap still truncates.
//! 2. **Rename atomicity** ([`verify_pairing`]): a rename's micro-ops
//!    travel as a two-phase intent/seal record across two shards; an
//!    intent may be replayed only when its seal exists with the same
//!    transaction id *and the same epoch*. Anything else (seal-less
//!    intent, intent-less seal, epoch mismatch) is reported.

/// One side of a rename's two-phase record, as recovered from a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TxnRecord {
    /// Transaction id (unique per mount generation, never 0).
    pub txn: u64,
    /// Epoch the record was committed under.
    pub epoch: u64,
}

/// Outcome of matching rename intents against seals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairingReport {
    /// Transactions whose intent and seal match (id and epoch): these
    /// renames replay.
    pub sealed: Vec<u64>,
    /// Intents with no matching seal — discarded by recovery; their
    /// stamp gap truncates the merged history behind them.
    pub unsealed: Vec<TxnRecord>,
    /// Seals with no intent (a torn source shard): nothing to replay,
    /// but worth surfacing — the source shard lost data.
    pub orphan_seals: Vec<TxnRecord>,
    /// Intent/seal pairs whose epochs disagree. The group-commit
    /// protocol makes this impossible for logs it wrote, so a mismatch
    /// indicates a foreign or tampered disk; the intent is *not*
    /// admitted.
    pub epoch_mismatches: Vec<TxnRecord>,
}

impl PairingReport {
    /// Whether every intent found its seal cleanly.
    pub fn is_clean(&self) -> bool {
        self.unsealed.is_empty() && self.orphan_seals.is_empty() && self.epoch_mismatches.is_empty()
    }
}

/// Match rename intents against seals by transaction id, requiring
/// epoch agreement. Inputs may list the same transaction more than once
/// (a seal redirected off a dead shard is written to every survivor); ids are
/// deduplicated, and for a duplicated id the *epochs must agree* among
/// themselves too, or the transaction lands in `epoch_mismatches`.
pub fn verify_pairing(intents: &[TxnRecord], seals: &[TxnRecord]) -> PairingReport {
    let mut report = PairingReport::default();
    let dedup = |records: &[TxnRecord]| -> Vec<(u64, Option<u64>)> {
        // txn -> Some(epoch) if all records agree, None on conflict.
        let mut out: Vec<(u64, Option<u64>)> = Vec::new();
        for r in records {
            match out.iter_mut().find(|(id, _)| *id == r.txn) {
                Some((_, e)) => {
                    if *e != Some(r.epoch) {
                        *e = None;
                    }
                }
                None => out.push((r.txn, Some(r.epoch))),
            }
        }
        out
    };
    let intents = dedup(intents);
    let seals = dedup(seals);
    for &(txn, intent_epoch) in &intents {
        let seal = seals.iter().find(|(id, _)| *id == txn);
        match (intent_epoch, seal) {
            (Some(ie), Some(&(_, Some(se)))) if ie == se => report.sealed.push(txn),
            (_, None) => report.unsealed.push(TxnRecord {
                txn,
                epoch: intent_epoch.unwrap_or(0),
            }),
            (_, Some(_)) => report.epoch_mismatches.push(TxnRecord {
                txn,
                epoch: intent_epoch.unwrap_or(0),
            }),
        }
    }
    for &(txn, seal_epoch) in &seals {
        if !intents.iter().any(|(id, _)| *id == txn) {
            report.orphan_seals.push(TxnRecord {
                txn,
                epoch: seal_epoch.unwrap_or(0),
            });
        }
    }
    report
}

/// Result of merging per-shard stamped streams of `T` payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedLog<T> {
    /// The admitted history: stamps `0..ops.len()`, contiguous, in order.
    pub ops: Vec<(u64, T)>,
    /// The first missing stamp, when the merge stopped at a gap (`None`
    /// when every present stamp was admitted).
    pub truncated_at: Option<u64>,
    /// Ops dropped because they sat behind the gap.
    pub dropped: usize,
    /// Stamps skipped because a quarantine window covered them: data
    /// known-lost with a dead shard, explicitly licensed for skipping by
    /// the journal's own record (always 0 without windows).
    pub lost: usize,
    /// The stamp the merge expected next when it stopped — the exact
    /// truncation point even when window-covered stamps were skipped
    /// (in which case it exceeds `ops.len()`).
    pub next_stamp: u64,
}

/// K-way merge per-shard stamped streams into the single mutation
/// history, admitting only the contiguous stamp prefix from 0.
///
/// Streams need not be sorted (each is sorted here first) and may be
/// empty. Duplicate stamps are a protocol violation; the merge keeps
/// the first and skips the rest.
pub fn merge_stamped<T>(streams: Vec<Vec<(u64, T)>>) -> MergedLog<T> {
    merge_stamped_with_windows(streams, &[])
}

/// [`merge_stamped`] with quarantine windows: a stamp gap is skipped
/// (instead of truncating) exactly when every missing stamp lies inside
/// one of the half-open `[lo, hi)` `windows` — the lost-stamp record a
/// quarantined shard's journal wrote when it discarded a buffer. Present
/// stamps always replay (a window never suppresses found data), and any
/// missing stamp *outside* the windows truncates as before.
///
/// The merge reads only stamps: payloads are moved, never cloned.
pub fn merge_stamped_with_windows<T>(
    mut streams: Vec<Vec<(u64, T)>>,
    windows: &[(u64, u64)],
) -> MergedLog<T> {
    for s in &mut streams {
        s.sort_by_key(|(stamp, _)| *stamp);
    }
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut heads: Vec<_> = streams
        .into_iter()
        .map(|s| s.into_iter().peekable())
        .collect();
    let covered = |stamp: u64| windows.iter().any(|&(lo, hi)| stamp >= lo && stamp < hi);
    let mut ops = Vec::with_capacity(total);
    let mut next = 0u64;
    let mut lost = 0usize;
    // K-way merge by repeatedly taking the smallest head. Shard counts
    // are small (≤ 64), so a linear head scan beats heap bookkeeping.
    // Each op is admitted as it is taken: contiguous, except that
    // window-covered missing stamps are skipped (and counted as lost).
    loop {
        let mut best: Option<(u64, usize)> = None;
        for (i, h) in heads.iter_mut().enumerate() {
            if let Some((stamp, _)) = h.peek() {
                if best.map(|(b, _)| *stamp < b).unwrap_or(true) {
                    best = Some((*stamp, i));
                }
            }
        }
        let Some((stamp, i)) = best else { break };
        if stamp < next {
            // Duplicate stamp: protocol violation; skip it.
            heads[i].next();
            continue;
        }
        while next < stamp && covered(next) {
            lost += 1;
            next += 1;
        }
        if next < stamp {
            return MergedLog {
                // Everything not yet taken, this head included.
                dropped: heads.iter().map(ExactSizeIterator::len).sum(),
                ops,
                truncated_at: Some(next),
                lost,
                next_stamp: next,
            };
        }
        ops.push(heads[i].next().expect("peeked"));
        next += 1;
    }
    MergedLog {
        ops,
        truncated_at: None,
        dropped: 0,
        lost,
        next_stamp: next,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomfs_trace::MicroOp;
    use atomfs_vfs::FileType;

    fn op(i: u64) -> (u64, MicroOp) {
        (
            i,
            MicroOp::Create {
                ino: 100 + i,
                ftype: FileType::File,
            },
        )
    }

    #[test]
    fn merge_interleaves_shards_by_stamp() {
        let a = vec![op(0), op(3), op(4)];
        let b = vec![op(1), op(2), op(5)];
        let m = merge_stamped(vec![a, b, Vec::new()]);
        assert_eq!(m.truncated_at, None);
        assert_eq!(m.dropped, 0);
        let stamps: Vec<u64> = m.ops.iter().map(|(s, _)| *s).collect();
        assert_eq!(stamps, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn merge_truncates_at_the_first_gap() {
        // Stamp 2 is missing (lost in an unsealed epoch): 3 and 4 must
        // not replay even though they are present.
        let m = merge_stamped(vec![vec![op(0), op(3)], vec![op(1), op(4)]]);
        assert_eq!(m.ops.len(), 2);
        assert_eq!(m.truncated_at, Some(2));
        assert_eq!(m.dropped, 2);
    }

    #[test]
    fn merge_sorts_unsorted_streams() {
        let m = merge_stamped(vec![vec![op(2), op(0)], vec![op(1)]]);
        let stamps: Vec<u64> = m.ops.iter().map(|(s, _)| *s).collect();
        assert_eq!(stamps, vec![0, 1, 2]);
    }

    #[test]
    fn merge_survives_duplicate_stamps() {
        let m = merge_stamped(vec![vec![op(0), op(1)], vec![op(1), op(2)]]);
        let stamps: Vec<u64> = m.ops.iter().map(|(s, _)| *s).collect();
        assert_eq!(stamps, vec![0, 1, 2], "duplicate admitted once");
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        let m = merge_stamped::<MicroOp>(Vec::new());
        assert!(m.ops.is_empty());
        assert_eq!(m.truncated_at, None);
    }

    #[test]
    fn windows_license_skipping_exactly_the_recorded_gap() {
        // Stamps 2..4 died with a quarantined shard, and the journal
        // recorded them: the merge steps over the gap instead of
        // truncating, and counts the loss.
        let m = merge_stamped_with_windows(vec![vec![op(0), op(1)], vec![op(4), op(5)]], &[(2, 4)]);
        let stamps: Vec<u64> = m.ops.iter().map(|(s, _)| *s).collect();
        assert_eq!(stamps, vec![0, 1, 4, 5]);
        assert_eq!(m.truncated_at, None);
        assert_eq!(m.lost, 2);
        assert_eq!(m.next_stamp, 6);
    }

    #[test]
    fn uncovered_gap_still_truncates_despite_windows() {
        // The window covers stamp 2 but stamp 3 is missing *and*
        // unrecorded: truncate at 3 — a window must never widen.
        let m = merge_stamped_with_windows(vec![vec![op(0), op(1)], vec![op(4)]], &[(2, 3)]);
        assert_eq!(m.ops.len(), 2);
        assert_eq!(m.truncated_at, Some(3));
        assert_eq!(m.dropped, 1);
        assert_eq!(m.lost, 1);
        assert_eq!(m.next_stamp, 3);
    }

    #[test]
    fn windows_never_suppress_present_stamps() {
        // Stamp 1 is window-covered but actually on disk: it replays.
        let m = merge_stamped_with_windows(vec![vec![op(0), op(1), op(2)]], &[(1, 2)]);
        let stamps: Vec<u64> = m.ops.iter().map(|(s, _)| *s).collect();
        assert_eq!(stamps, vec![0, 1, 2]);
        assert_eq!(m.lost, 0);
    }

    #[test]
    fn pairing_clean_roundtrip() {
        let i = [
            TxnRecord { txn: 1, epoch: 4 },
            TxnRecord { txn: 2, epoch: 5 },
        ];
        let s = [
            TxnRecord { txn: 2, epoch: 5 },
            TxnRecord { txn: 1, epoch: 4 },
        ];
        let r = verify_pairing(&i, &s);
        assert!(r.is_clean());
        assert_eq!(r.sealed, vec![1, 2]);
    }

    #[test]
    fn pairing_flags_unsealed_and_orphans() {
        let i = [TxnRecord { txn: 1, epoch: 4 }];
        let s = [TxnRecord { txn: 9, epoch: 4 }];
        let r = verify_pairing(&i, &s);
        assert!(!r.is_clean());
        assert_eq!(r.unsealed, vec![TxnRecord { txn: 1, epoch: 4 }]);
        assert_eq!(r.orphan_seals, vec![TxnRecord { txn: 9, epoch: 4 }]);
        assert!(r.sealed.is_empty());
    }

    #[test]
    fn pairing_rejects_epoch_mismatch() {
        let i = [TxnRecord { txn: 1, epoch: 4 }];
        let s = [TxnRecord { txn: 1, epoch: 5 }];
        let r = verify_pairing(&i, &s);
        assert_eq!(r.epoch_mismatches, vec![TxnRecord { txn: 1, epoch: 4 }]);
        assert!(r.sealed.is_empty(), "mismatched pair must not replay");
    }

    #[test]
    fn pairing_merges_split_intents() {
        // The same transaction listed twice must still pair once.
        let i = [
            TxnRecord { txn: 3, epoch: 7 },
            TxnRecord { txn: 3, epoch: 7 },
        ];
        let s = [TxnRecord { txn: 3, epoch: 7 }];
        let r = verify_pairing(&i, &s);
        assert_eq!(r.sealed, vec![3]);
        assert!(r.is_clean());
    }
}
