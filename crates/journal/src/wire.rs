//! Binary encoding of log frames for the on-disk journal.
//!
//! Hand-rolled little-endian encoding (no format crates in the dependency
//! budget): every frame is self-describing and checksummed, so recovery
//! can detect torn writes and out-of-order partial persistence.
//!
//! # Records are redo-only
//!
//! The trace's [`MicroOp::SetData`] carries a file's whole old *and* new
//! contents, because the checker rolls writes back. Recovery only ever
//! redoes, so the log keeps the new bytes and replaces the old ones by
//! their length and [`checksum`]:
//!
//! ```text
//! tag 4 | ino u64 | old_len u32 | old_digest u64 | new_len u32 | new bytes
//! ```
//!
//! Namespace ops (`Create`, `Remove`, `Ins`, `Del`) are logged as traced.
//! Decoding yields a [`RedoOp`], the redo projection of the traced op.
//! The two guards have different jobs. The frame checksum guards
//! *integrity*: a record that decodes is the record that was written.
//! The digest guards the *replay precondition*: the file must hold what
//! the write overwrote, which [`crate::recovery`] checks before it
//! installs `new`. That precondition is what `FsState::apply_micro`
//! checks with the full old bytes; length plus a 64-bit digest catches a
//! mismatched base without logging it.

use atomfs_trace::{Inum, MicroOp};
use atomfs_vfs::FileType;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().expect("4")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().expect("8")))
    }

    fn bytes(&mut self) -> Option<Vec<u8>> {
        let n = self.u32()? as usize;
        self.take(n).map(<[u8]>::to_vec)
    }

    fn string(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?).ok()
    }
}

fn ftype_tag(f: FileType) -> u8 {
    match f {
        FileType::File => 0,
        FileType::Dir => 1,
    }
}

fn ftype_from(tag: u8) -> Option<FileType> {
    match tag {
        0 => Some(FileType::File),
        1 => Some(FileType::Dir),
        _ => None,
    }
}

/// A logged micro-op as recovery reads it back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RedoOp {
    /// A namespace op (`Create`, `Remove`, `Ins` or `Del`), as traced.
    Ns(MicroOp),
    /// A [`MicroOp::SetData`] without its old contents: `old_len` and
    /// `old_digest` are the length and [`checksum`] of the bytes the
    /// write overwrote.
    SetData {
        ino: Inum,
        old_len: u32,
        old_digest: u64,
        new: Vec<u8>,
    },
}

impl From<&MicroOp> for RedoOp {
    /// The redo projection: what the log keeps of `op`.
    fn from(op: &MicroOp) -> Self {
        match op {
            MicroOp::SetData { ino, old, new } => RedoOp::SetData {
                ino: *ino,
                old_len: old.len() as u32,
                old_digest: checksum(old),
                new: new.clone(),
            },
            ns => RedoOp::Ns(ns.clone()),
        }
    }
}

/// Encoded size of `op`, so a frame's buffer is allocated once.
fn encoded_len(op: &MicroOp) -> usize {
    match op {
        MicroOp::Create { .. } | MicroOp::Remove { .. } => MIN_OP_BYTES,
        MicroOp::Ins { name, .. } | MicroOp::Del { name, .. } => 1 + 8 + 4 + name.len() + 8,
        MicroOp::SetData { new, .. } => 1 + 8 + 4 + 8 + 4 + new.len(),
    }
}

/// Encode one micro-op as its redo record.
fn encode_op(op: &MicroOp, out: &mut Vec<u8>) {
    match op {
        MicroOp::Create { ino, ftype } => {
            out.push(0);
            put_u64(out, *ino);
            out.push(ftype_tag(*ftype));
        }
        MicroOp::Remove { ino, ftype } => {
            out.push(1);
            put_u64(out, *ino);
            out.push(ftype_tag(*ftype));
        }
        MicroOp::Ins {
            parent,
            name,
            child,
        } => {
            out.push(2);
            put_u64(out, *parent);
            put_bytes(out, name.as_bytes());
            put_u64(out, *child);
        }
        MicroOp::Del {
            parent,
            name,
            child,
        } => {
            out.push(3);
            put_u64(out, *parent);
            put_bytes(out, name.as_bytes());
            put_u64(out, *child);
        }
        MicroOp::SetData { ino, old, new } => {
            out.push(4);
            put_u64(out, *ino);
            put_u32(out, old.len() as u32);
            put_u64(out, checksum(old));
            put_bytes(out, new);
        }
    }
}

fn decode_op(r: &mut Reader<'_>) -> Option<RedoOp> {
    Some(RedoOp::Ns(match r.u8()? {
        0 => MicroOp::Create {
            ino: r.u64()?,
            ftype: ftype_from(r.u8()?)?,
        },
        1 => MicroOp::Remove {
            ino: r.u64()?,
            ftype: ftype_from(r.u8()?)?,
        },
        2 => MicroOp::Ins {
            parent: r.u64()?,
            name: r.string()?,
            child: r.u64()?,
        },
        3 => MicroOp::Del {
            parent: r.u64()?,
            name: r.string()?,
            child: r.u64()?,
        },
        4 => {
            return Some(RedoOp::SetData {
                ino: r.u64()?,
                old_len: r.u32()?,
                old_digest: r.u64()?,
                new: r.bytes()?,
            })
        }
        _ => return None,
    }))
}

/// Smallest encoding of any micro-op: a `Create`/`Remove` is
/// tag(1) + ino(8) + ftype(1) bytes. Used to sanity-bound the op count
/// a frame payload claims.
const MIN_OP_BYTES: usize = 10;

/// The frame checksum: an FNV-style multiply-xor absorbing 64-bit words
/// (with a length fold and a splitmix64 finalizer) instead of single
/// bytes. Byte-at-a-time FNV-1a was the single largest slice of the
/// group-commit path — three dependent ops per byte — and a word-wise
/// mix is ~8x faster at the same job. Every absorption step is bijective
/// in the accumulator, so any single-bit flip provably changes the sum;
/// the finalizer spreads the difference across all 64 output bits.
///
/// Only self-consistency matters: recovery verifies sums this same
/// function produced. There is no cross-version log compatibility to
/// preserve. It is also the digest a redo `SetData` keeps of the bytes
/// it overwrote.
pub fn checksum(bytes: &[u8]) -> u64 {
    const M: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h: u64 = 0xcbf29ce484222325;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8"));
        h = (h ^ w).wrapping_mul(M);
        h ^= h >> 29;
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut w = 0u64;
        for (i, b) in rem.iter().enumerate() {
            w |= u64::from(*b) << (8 * i);
        }
        h = (h ^ w).wrapping_mul(M);
        h ^= h >> 29;
    }
    h ^= bytes.len() as u64;
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Frame magic: "AJS3" little-endian. There is no reader for the
/// earlier formats.
pub const MAGIC: u32 = 0x33534a41;

/// Fixed frame header size:
/// `MAGIC u32 | gen u32 | shard u16 | kind u8 | pad u8 | epoch u64 | seq u64 | txn u64 | payload_len u32`.
pub const FRAME_HEADER: usize = 40;

/// What a log frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A batch of stamped micro-ops staged by ordinary (single-shard) ops.
    Batch,
    /// "Every frame of this shard up to here belongs to epochs ≤ `epoch`,
    /// and epoch `epoch` is complete on this shard."
    EpochSeal,
    /// The source-shard half of a rename transaction: the rename's full
    /// stamped op list, tagged with the transaction id.
    RenameIntent,
    /// The destination-shard half: same epoch + txn id, no ops. An intent
    /// whose seal never became durable is discarded at recovery.
    RenameSeal,
    /// A shard-death record written to every *surviving* shard when the
    /// commit path quarantines a dead shard. `txn` carries the dead-shard
    /// bitmask (shard ids fit in a u64, `MAX_SHARDS` ≤ 64); the payload
    /// lists the half-open `[lo, hi)` stamp windows that were staged to
    /// the dead shard and discarded with it. Recovery may skip exactly
    /// these stamps when merging — any *unrecorded* gap still truncates.
    Quarantine,
}

impl FrameKind {
    fn tag(self) -> u8 {
        match self {
            FrameKind::Batch => 0,
            FrameKind::EpochSeal => 1,
            FrameKind::RenameIntent => 2,
            FrameKind::RenameSeal => 3,
            FrameKind::Quarantine => 4,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => FrameKind::Batch,
            1 => FrameKind::EpochSeal,
            2 => FrameKind::RenameIntent,
            3 => FrameKind::RenameSeal,
            4 => FrameKind::Quarantine,
            _ => return None,
        })
    }

    /// Whether this kind carries a (possibly empty) op payload.
    fn carries_ops(self) -> bool {
        matches!(self, FrameKind::Batch | FrameKind::RenameIntent)
    }

    /// Whether this kind carries lost-stamp windows instead of ops.
    fn carries_windows(self) -> bool {
        matches!(self, FrameKind::Quarantine)
    }
}

/// One decoded frame of a shard's log stream.
///
/// `gen` is the log generation (a recovery checkpoint rewrites the log
/// under a higher generation, so stale frames from the previous one can
/// never be replayed); `epoch` is the group-commit epoch; `seq` is the per-shard frame sequence number; `stamp`s
/// on the ops come from the mount-wide staging counter, so merging every
/// shard's ops by stamp reconstructs one legal total order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub gen: u32,
    pub shard: u16,
    pub kind: FrameKind,
    pub epoch: u64,
    pub seq: u64,
    pub txn: u64,
    pub ops: Vec<(u64, RedoOp)>,
    /// Lost-stamp windows, half-open `[lo, hi)`. Non-empty only for
    /// [`FrameKind::Quarantine`] frames.
    pub windows: Vec<(u64, u64)>,
}

/// Smallest encoding of one stamped op: stamp(8) + MIN_OP_BYTES.
const MIN_STAMPED_OP_BYTES: usize = 8 + MIN_OP_BYTES;

/// Encode one op-carrying (or sealing) frame from borrowed parts:
/// header | payload | checksum trailer, the checksum covering everything
/// before the trailer. The append path encodes its staged batch straight
/// from the staging buffer; each `SetData` is logged as its redo record.
#[allow(clippy::too_many_arguments)]
pub fn encode_frame_parts(
    gen: u32,
    shard: u16,
    kind: FrameKind,
    epoch: u64,
    seq: u64,
    txn: u64,
    ops: &[(u64, MicroOp)],
) -> Vec<u8> {
    debug_assert!(kind.carries_ops() || ops.is_empty());
    debug_assert!(!kind.carries_windows(), "use encode_quarantine_parts");
    let payload_len = 4 + ops.iter().map(|(_, op)| 8 + encoded_len(op)).sum::<usize>();
    build_frame(gen, shard, kind, epoch, seq, txn, payload_len, |out| {
        put_u32(out, ops.len() as u32);
        for (stamp, op) in ops {
            put_u64(out, *stamp);
            encode_op(op, out);
        }
    })
}

/// Encode a [`FrameKind::Quarantine`] frame: `mask` (the dead-shard
/// bitmask) rides in the `txn` header field, the lost-stamp windows in
/// the payload as `count u32 | (lo u64 | hi u64)…`. Windows must be
/// well-formed (`lo < hi`) — decode rejects anything else, so a bit flip
/// can never widen what recovery is allowed to skip.
pub fn encode_quarantine_parts(
    gen: u32,
    shard: u16,
    epoch: u64,
    seq: u64,
    mask: u64,
    windows: &[(u64, u64)],
) -> Vec<u8> {
    debug_assert!(windows.iter().all(|&(lo, hi)| lo < hi));
    let payload_len = 4 + 16 * windows.len();
    build_frame(
        gen,
        shard,
        FrameKind::Quarantine,
        epoch,
        seq,
        mask,
        payload_len,
        |out| {
            put_u32(out, windows.len() as u32);
            for (lo, hi) in windows {
                put_u64(out, *lo);
                put_u64(out, *hi);
            }
        },
    )
}

/// Sort half-open `[lo, hi)` lost-stamp windows and merge every pair that
/// overlaps or touches, leaving the one canonical list a
/// [`FrameKind::Quarantine`] frame carries. Both the runtime's cumulative
/// list and recovery's union over every frame go through here, so the two
/// compare equal.
pub(crate) fn coalesce_windows(windows: &mut Vec<(u64, u64)>) {
    windows.sort_unstable();
    windows.dedup_by(|next, kept| {
        let merge = next.0 <= kept.1;
        if merge {
            kept.1 = kept.1.max(next.1);
        }
        merge
    });
}

/// One buffer per frame: write the header with a placeholder payload
/// length, let `payload` append straight after it, patch the length, then
/// append the checksum. `payload_len` sizes the allocation up front.
#[allow(clippy::too_many_arguments)]
fn build_frame(
    gen: u32,
    shard: u16,
    kind: FrameKind,
    epoch: u64,
    seq: u64,
    txn: u64,
    payload_len: usize,
    payload: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload_len + 8);
    put_u32(&mut out, MAGIC);
    put_u32(&mut out, gen);
    out.extend_from_slice(&shard.to_le_bytes());
    out.push(kind.tag());
    out.push(0); // pad — must be zero, checked on decode
    put_u64(&mut out, epoch);
    put_u64(&mut out, seq);
    put_u64(&mut out, txn);
    put_u32(&mut out, 0); // payload_len, patched below
    debug_assert_eq!(out.len(), FRAME_HEADER);
    payload(&mut out);
    let len = (out.len() - FRAME_HEADER) as u32;
    out[FRAME_HEADER - 4..FRAME_HEADER].copy_from_slice(&len.to_le_bytes());
    let sum = checksum(&out);
    put_u64(&mut out, sum);
    out
}

/// Try to decode one frame at the start of `buf`.
///
/// Returns the frame and its total encoded length, or `None` when the
/// bytes are not a complete, checksummed, well-formed frame (recovery
/// stops there). Lengths and counts came off the wire: they are clamped
/// against the bytes actually present before any allocation, so a
/// corrupted field can never drive a huge allocation or an overflowing
/// index. Seal frames (`EpochSeal`, `RenameSeal`) must carry zero
/// ops — a "seal" smuggling ops is corrupt by definition.
pub fn decode_frame(buf: &[u8]) -> Option<(Frame, usize)> {
    let mut r = Reader { buf, pos: 0 };
    if r.u32()? != MAGIC {
        return None;
    }
    let gen = r.u32()?;
    let shard = u16::from_le_bytes(r.take(2)?.try_into().expect("2"));
    let kind = FrameKind::from_tag(r.u8()?)?;
    if r.u8()? != 0 {
        return None; // pad byte must be zero
    }
    let epoch = r.u64()?;
    let seq = r.u64()?;
    let txn = r.u64()?;
    let payload_len = r.u32()? as usize;
    if payload_len > buf.len().saturating_sub(r.pos) {
        return None;
    }
    let payload_start = r.pos;
    let payload = r.take(payload_len)?;
    let stored_sum = r.u64()?;
    let total = r.pos;
    if checksum(&buf[..payload_start + payload_len]) != stored_sum {
        return None;
    }
    let mut pr = Reader {
        buf: payload,
        pos: 0,
    };
    let count = pr.u32()? as usize;
    let mut ops = Vec::new();
    let mut windows = Vec::new();
    if kind.carries_windows() {
        // Quarantine payload: `count` half-open stamp windows, each
        // exactly 16 bytes, strictly ascending and well-formed. The
        // strictness matters: these windows *license* recovery to skip
        // stamps, so a malformed list must fail the whole frame rather
        // than decode to something more permissive.
        if count > payload.len().saturating_sub(pr.pos) / 16 {
            return None;
        }
        windows.reserve(count);
        let mut prev_hi = 0u64;
        for _ in 0..count {
            let lo = pr.u64()?;
            let hi = pr.u64()?;
            if lo >= hi || (prev_hi > 0 && lo < prev_hi) {
                return None;
            }
            prev_hi = hi;
            windows.push((lo, hi));
        }
    } else {
        // Every stamped op encodes to at least MIN_STAMPED_OP_BYTES, so
        // a count the remaining payload cannot possibly hold is corrupt
        // — reject it before reserving.
        if count > payload.len().saturating_sub(pr.pos) / MIN_STAMPED_OP_BYTES {
            return None;
        }
        if !kind.carries_ops() && count != 0 {
            return None;
        }
        ops.reserve(count);
        for _ in 0..count {
            let stamp = pr.u64()?;
            ops.push((stamp, decode_op(&mut pr)?));
        }
    }
    if pr.pos != payload.len() {
        return None;
    }
    Some((
        Frame {
            gen,
            shard,
            kind,
            epoch,
            seq,
            txn,
            ops,
            windows,
        },
        total,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_windows_merges_touching_overlapping_and_nested() {
        let run = |mut w: Vec<(u64, u64)>| {
            coalesce_windows(&mut w);
            w
        };
        assert_eq!(run(vec![]), vec![]);
        assert_eq!(run(vec![(4, 6)]), vec![(4, 6)]);
        // Touching half-open windows share no stamp but still merge.
        assert_eq!(run(vec![(1, 2), (2, 3)]), vec![(1, 3)]);
        // Overlapping.
        assert_eq!(run(vec![(1, 5), (3, 8)]), vec![(1, 8)]);
        // Nested: the outer window's end survives.
        assert_eq!(run(vec![(1, 10), (2, 3), (4, 6)]), vec![(1, 10)]);
        // Unsorted, with duplicates and a gap that must stay open.
        assert_eq!(
            run(vec![(20, 21), (5, 7), (1, 3), (6, 9), (5, 7), (2, 4)]),
            vec![(1, 4), (5, 9), (20, 21)]
        );
        // Idempotent on its own output.
        assert_eq!(
            run(vec![(1, 4), (5, 9), (20, 21)]),
            vec![(1, 4), (5, 9), (20, 21)]
        );
    }

    const KINDS: [FrameKind; 5] = [
        FrameKind::Batch,
        FrameKind::EpochSeal,
        FrameKind::RenameIntent,
        FrameKind::RenameSeal,
        FrameKind::Quarantine,
    ];

    fn sample_ops() -> Vec<MicroOp> {
        vec![
            MicroOp::Create {
                ino: 7,
                ftype: FileType::Dir,
            },
            MicroOp::Ins {
                parent: 1,
                name: "directory name".into(),
                child: 7,
            },
            MicroOp::SetData {
                ino: 9,
                old: b"before".to_vec(),
                new: vec![0xEE; 1000],
            },
            MicroOp::Del {
                parent: 1,
                name: "x".into(),
                child: 3,
            },
            MicroOp::Remove {
                ino: 3,
                ftype: FileType::File,
            },
        ]
    }

    /// A frame of `kind` as traced ops, its encoding, and the frame
    /// decoding must yield.
    fn sample(kind: FrameKind) -> (Vec<u8>, Frame) {
        let ops: Vec<(u64, MicroOp)> = if kind.carries_ops() {
            sample_ops()
                .into_iter()
                .enumerate()
                .map(|(i, op)| (100 + i as u64, op))
                .collect()
        } else {
            Vec::new()
        };
        let windows = if kind.carries_windows() {
            vec![(10, 14), (20, 21)]
        } else {
            Vec::new()
        };
        let bytes = if kind.carries_windows() {
            encode_quarantine_parts(3, 2, 17, 42, 9, &windows)
        } else {
            encode_frame_parts(3, 2, kind, 17, 42, 9, &ops)
        };
        let frame = Frame {
            gen: 3,
            shard: 2,
            kind,
            epoch: 17,
            seq: 42,
            txn: 9,
            ops: ops.iter().map(|(s, op)| (*s, RedoOp::from(op))).collect(),
            windows,
        };
        (bytes, frame)
    }

    /// A frame around a hand-built payload, checksummed honestly.
    fn frame_with_payload(kind: FrameKind, txn: u64, payload: &[u8]) -> Vec<u8> {
        build_frame(3, 2, kind, 17, 42, txn, payload.len(), |out| {
            out.extend_from_slice(payload)
        })
    }

    #[test]
    fn frame_roundtrip_all_kinds() {
        for kind in KINDS {
            let (bytes, want) = sample(kind);
            let (got, total) = decode_frame(&bytes).expect("valid frame");
            assert_eq!(got, want);
            assert_eq!(total, bytes.len());
            assert_eq!(bytes.capacity(), bytes.len(), "sized up front");
        }
    }

    #[test]
    fn set_data_logs_new_bytes_and_a_digest_of_the_old() {
        let (_, frame) = sample(FrameKind::Batch);
        assert_eq!(
            frame.ops[2].1,
            RedoOp::SetData {
                ino: 9,
                old_len: 6,
                old_digest: checksum(b"before"),
                new: vec![0xEE; 1000],
            }
        );
        let op = &sample_ops()[2];
        let mut rec = Vec::new();
        encode_op(op, &mut rec);
        assert_eq!(rec.len(), encoded_len(op));
        assert_eq!(rec.len(), 1 + 8 + 4 + 8 + 4 + 1000);
    }

    #[test]
    fn zeros_are_not_a_frame() {
        // The scan's clean-end-of-log rule: never-written space is zeros.
        assert!(decode_frame(&[0u8; 64]).is_none());
    }

    #[test]
    fn previous_format_magic_is_not_a_frame() {
        // An "AJS2" frame, otherwise well-formed and honestly checksummed.
        let (mut bytes, _) = sample(FrameKind::Batch);
        bytes[..4].copy_from_slice(&0x32534a41u32.to_le_bytes());
        let end = bytes.len() - 8;
        let sum = checksum(&bytes[..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
        assert!(decode_frame(&bytes).is_none());
    }

    #[test]
    fn huge_wire_length_is_rejected_without_allocating() {
        // A frame whose header claims a payload far past the buffer end.
        let (mut bytes, _) = sample(FrameKind::Batch);
        bytes[FRAME_HEADER - 4..FRAME_HEADER].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_frame(&bytes).is_none());
    }

    #[test]
    fn huge_op_count_with_valid_checksum_is_rejected() {
        // The checksum only covers the bytes as written, so a frame
        // *encoded* with a lying count field checksums fine — the count
        // clamp is the only thing standing between it and a huge
        // `Vec::reserve`.
        let bytes = frame_with_payload(FrameKind::Batch, 0, &u32::MAX.to_le_bytes());
        assert!(decode_frame(&bytes).is_none());
    }

    #[test]
    fn frame_single_bit_flips_are_caught() {
        for kind in [FrameKind::RenameIntent, FrameKind::Quarantine] {
            let (bytes, _) = sample(kind);
            for byte in 0..bytes.len() {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[byte] ^= 1 << bit;
                    assert!(
                        decode_frame(&bad).is_none(),
                        "{kind:?}: flip of byte {byte} bit {bit} forged a frame"
                    );
                }
            }
        }
    }

    #[test]
    fn frame_truncations_are_detected() {
        let (bytes, _) = sample(FrameKind::Batch);
        for cut in 0..bytes.len() {
            assert!(decode_frame(&bytes[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn seal_frames_smuggling_ops_are_rejected() {
        // A RenameSeal that claims an op payload: structurally valid,
        // correctly checksummed, semantically illegal.
        let mut payload = Vec::new();
        put_u32(&mut payload, 1);
        put_u64(&mut payload, 7);
        encode_op(
            &MicroOp::Create {
                ino: 1,
                ftype: FileType::File,
            },
            &mut payload,
        );
        assert!(decode_frame(&frame_with_payload(FrameKind::RenameSeal, 9, &payload)).is_none());
    }

    #[test]
    fn malformed_quarantine_windows_are_rejected() {
        // Empty, inverted, and overlapping window lists: the first is
        // legal, the rest must fail the whole frame even though the
        // checksum is honest — a quarantine frame that could be read
        // more permissively than written would license recovery to skip
        // stamps nobody recorded as lost.
        let build = |windows: &[(u64, u64)]| {
            let mut payload = Vec::new();
            put_u32(&mut payload, windows.len() as u32);
            for (lo, hi) in windows {
                put_u64(&mut payload, *lo);
                put_u64(&mut payload, *hi);
            }
            frame_with_payload(FrameKind::Quarantine, 0b10, &payload)
        };
        assert!(decode_frame(&build(&[])).is_some(), "empty list is legal");
        assert!(decode_frame(&build(&[(5, 5)])).is_none(), "empty window");
        assert!(decode_frame(&build(&[(9, 4)])).is_none(), "inverted");
        assert!(
            decode_frame(&build(&[(4, 9), (7, 12)])).is_none(),
            "overlapping"
        );
        assert!(
            decode_frame(&build(&[(10, 12), (4, 6)])).is_none(),
            "descending"
        );
    }

    #[test]
    fn frames_parse_back_to_back() {
        let (a, _) = sample(FrameKind::Batch);
        let (b, _) = sample(FrameKind::EpochSeal);
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let (fa, la) = decode_frame(&stream).unwrap();
        assert_eq!(fa.kind, FrameKind::Batch);
        let (fb, _) = decode_frame(&stream[la..]).unwrap();
        assert_eq!(fb.kind, FrameKind::EpochSeal);
    }
}
