//! Binary encoding of log frames for the on-disk journal.
//!
//! Every frame is self-describing and checksummed, so recovery can
//! detect torn writes and out-of-order partial persistence. The byte
//! layer — little-endian writers, the strict reader, and the sealed
//! `header | payload | checksum` envelope — is [`atomfs_vfs::frame`],
//! shared with the server's wire frames. This module keeps what is the
//! journal's own: the header fields ([`FRAME_HEADER`]), [`MAGIC`], the
//! checksum seed, the record schema, and the strictness rules (seal
//! frames carry no ops, quarantine windows are well-formed).
//!
//! # Records are redo extents
//!
//! The trace's [`MicroOp::SetData`] is an extent: the bytes a write or
//! truncate touched, on both sides, because the checker rolls updates
//! back. Recovery only ever redoes, so the log keeps the new side and
//! replaces the old bytes by their length and [`checksum`]:
//!
//! ```text
//! tag 4 | ino u64 | off u32 | old_len u32 | new_len u32
//!       | overwritten u32 | old_digest u64 | new_bytes_len u32 | new bytes
//! ```
//!
//! A 1 KiB write into a 4 KiB file logs its 1 KiB and 37 bytes of
//! record around it, not the file. Namespace ops (`Create`, `Remove`,
//! `Ins`, `Del`) are logged as traced. Decoding yields a [`RedoOp`], the
//! redo projection of the traced op.
//! The two guards have different jobs. The frame checksum guards
//! *integrity*: a record that decodes is the record that was written.
//! The digest guards the *replay precondition*: the file must be
//! `old_len` bytes long and hold, at `off`, what the update overwrote,
//! which [`crate::recovery`] checks before it splices `new` in. That
//! precondition is what `FsState::apply_micro` checks with the old
//! bytes themselves; a length plus a 64-bit digest of the range catches
//! a mismatched base without logging it. Decoding also refuses an
//! extent whose ranges end past its lengths, so replay never indexes
//! out of a file.
//!
//! # The checksum
//!
//! Both guards are [`checksum`]: the workspace's one word checksum
//! ([`atomfs_vfs::checksum()`]) under the journal's own seed, so a server
//! wire frame never verifies as a journal frame. On a page-sized write
//! the commit sums the bytes twice — the overwritten range for the
//! digest, then the whole frame — and recovery sums them again, so the sum runs
//! eight independent lanes over 64-byte blocks instead of one chain of
//! dependent multiplies. Frames shorter than a block (seals, most
//! namespace batches) take the one-lane path. A change to the sum is a
//! change of format: [`MAGIC`] names it, and older frames are refused
//! by their header, not read.
//!
//! # One encoder, two destinations
//!
//! A frame is encoded into a [`frame::Out`] as it is produced: a `Vec`
//! ([`encode_frame_parts`]), or a shard's sectors
//! ([`crate::shard::ShardWriter`]), which sums the bytes with the
//! incremental [`atomfs_vfs::Checksum`] as they pass. The payload length
//! is computed before the first byte, so the header needs no patching
//! and the commit never holds a whole frame.

use atomfs_trace::{Inum, MicroOp};
use atomfs_vfs::frame::{self, put_len_prefixed, put_u16, put_u32, put_u64, Out, Reader};
use atomfs_vfs::FileType;

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
    /// A [`MicroOp::SetData`] extent without its old bytes: the file
    /// goes from `old_len` to `new_len` bytes and holds `new` at `off`.
    /// `old_digest` is the [`checksum`] of the `overwritten` bytes at
    /// `off` that the extent replaced.
    SetData {
        ino: Inum,
        off: u32,
        old_len: u32,
        new_len: u32,
        overwritten: u32,
        old_digest: u64,
        new: Vec<u8>,
    },
}

impl From<&MicroOp> for RedoOp {
    /// The redo projection: what the log keeps of `op`.
    fn from(op: &MicroOp) -> Self {
        match op {
            MicroOp::SetData {
                ino,
                off,
                old,
                new,
                old_len,
                new_len,
            } => RedoOp::SetData {
                ino: *ino,
                off: *off,
                old_len: *old_len,
                new_len: *new_len,
                overwritten: old.len() as u32,
                old_digest: checksum(old),
                new: new.to_vec(),
            },
            ns => RedoOp::Ns(ns.clone()),
        }
    }
}

/// Bytes of a redo `SetData` record besides its new bytes.
const SET_DATA_HEADER: usize = 1 + 8 + 4 + 4 + 4 + 4 + 8 + 4;

/// Encoded size of `op`, so a frame's buffer is allocated once.
fn encoded_len(op: &MicroOp) -> usize {
    match op {
        MicroOp::Create { .. } | MicroOp::Remove { .. } => MIN_OP_BYTES,
        MicroOp::Ins { name, .. } | MicroOp::Del { name, .. } => 1 + 8 + 4 + name.len() + 8,
        MicroOp::SetData { new, .. } => SET_DATA_HEADER + new.len(),
    }
}

/// Encode one micro-op as its redo record.
fn encode_op(op: &MicroOp, out: &mut impl Out) {
    match op {
        MicroOp::Create { ino, ftype } => {
            out.put(&[0]);
            put_u64(out, *ino);
            out.put(&[ftype_tag(*ftype)]);
        }
        MicroOp::Remove { ino, ftype } => {
            out.put(&[1]);
            put_u64(out, *ino);
            out.put(&[ftype_tag(*ftype)]);
        }
        MicroOp::Ins {
            parent,
            name,
            child,
        } => {
            out.put(&[2]);
            put_u64(out, *parent);
            put_len_prefixed(out, name.as_bytes());
            put_u64(out, *child);
        }
        MicroOp::Del {
            parent,
            name,
            child,
        } => {
            out.put(&[3]);
            put_u64(out, *parent);
            put_len_prefixed(out, name.as_bytes());
            put_u64(out, *child);
        }
        MicroOp::SetData {
            ino,
            off,
            old,
            new,
            old_len,
            new_len,
        } => {
            out.put(&[4]);
            put_u64(out, *ino);
            put_u32(out, *off);
            put_u32(out, *old_len);
            put_u32(out, *new_len);
            put_u32(out, old.len() as u32);
            put_u64(out, checksum(old));
            put_len_prefixed(out, new);
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
            name: r.str()?.into(),
            child: r.u64()?,
        },
        3 => MicroOp::Del {
            parent: r.u64()?,
            name: r.str()?.into(),
            child: r.u64()?,
        },
        4 => {
            let (ino, off) = (r.u64()?, r.u32()?);
            let (old_len, new_len, overwritten) = (r.u32()?, r.u32()?, r.u32()?);
            let old_digest = r.u64()?;
            let new = r.len_prefixed()?;
            // Each side's bytes must lie within its file length.
            let fits = |n: usize, len: u32| n == 0 || off as usize + n <= len as usize;
            if !fits(overwritten as usize, old_len) || !fits(new.len(), new_len) {
                return None;
            }
            return Some(RedoOp::SetData {
                ino,
                off,
                old_len,
                new_len,
                overwritten,
                old_digest,
                new: new.to_vec(),
            });
        }
        _ => return None,
    }))
}

/// Smallest encoding of any micro-op: a `Create`/`Remove` is
/// tag(1) + ino(8) + ftype(1) bytes. Used to sanity-bound the op count
/// a frame payload claims.
const MIN_OP_BYTES: usize = 10;

/// Seed of the journal's [`checksum`]; the server's wire frames use
/// another, so neither codec's bytes verify under the other.
const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The frame checksum, and the digest a redo `SetData` keeps of the
/// range it overwrote: [`atomfs_vfs::checksum()`] under the journal's
/// seed. See the module docs.
pub fn checksum(bytes: &[u8]) -> u64 {
    atomfs_vfs::checksum(SEED, bytes)
}

/// [`checksum`] over bytes fed in pieces.
pub(crate) fn checksum_stream() -> atomfs_vfs::Checksum {
    atomfs_vfs::Checksum::new(SEED)
}

/// Frame magic: "AJS5" little-endian (extent `SetData` records;
/// "AJS4" frames logged whole files, and "AJS3" frames carried the
/// one-lane sum). There is no reader for the earlier formats.
pub const MAGIC: u32 = 0x35534a41;

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

/// A frame's header fields. The payload length is not one of them: it
/// follows from the [`Payload`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Header {
    pub gen: u32,
    pub shard: u16,
    pub kind: FrameKind,
    pub epoch: u64,
    pub seq: u64,
    pub txn: u64,
}

/// What a frame carries after its header.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Payload<'a> {
    /// Stamped micro-ops (none for a seal), each logged as its redo
    /// record: `count u32 | (stamp u64 | record)…`.
    Ops(&'a [(u64, MicroOp)]),
    /// A [`FrameKind::Quarantine`] frame's lost-stamp windows:
    /// `count u32 | (lo u64 | hi u64)…`.
    Windows(&'a [(u64, u64)]),
}

impl Payload<'_> {
    /// Encoded payload bytes.
    fn len(&self) -> usize {
        4 + match self {
            Payload::Ops(ops) => ops.iter().map(|(_, op)| 8 + encoded_len(op)).sum::<usize>(),
            Payload::Windows(windows) => 16 * windows.len(),
        }
    }

    /// Total encoded length of a frame carrying this payload: header,
    /// payload and checksum trailer.
    pub(crate) fn frame_len(&self) -> usize {
        FRAME_HEADER + self.len() + frame::TRAILER_LEN
    }
}

/// Write the fixed header of a frame whose payload is `payload_len`
/// bytes.
fn write_header(h: &Header, payload_len: usize, out: &mut impl Out) {
    put_u32(out, MAGIC);
    put_u32(out, h.gen);
    put_u16(out, h.shard);
    out.put(&[h.kind.tag(), 0]); // pad — must be zero, checked on decode
    put_u64(out, h.epoch);
    put_u64(out, h.seq);
    put_u64(out, h.txn);
    put_u32(out, payload_len as u32);
}

/// Write everything of a frame that its checksum trailer covers: the
/// header, then the payload. The caller appends [`checksum`] of these
/// bytes, little-endian, to seal it.
pub(crate) fn write_body(h: &Header, payload: &Payload<'_>, out: &mut impl Out) {
    debug_assert_eq!(
        matches!(payload, Payload::Windows(_)),
        h.kind.carries_windows()
    );
    write_header(h, payload.len(), out);
    match payload {
        Payload::Ops(ops) => {
            debug_assert!(h.kind.carries_ops() || ops.is_empty());
            put_u32(out, ops.len() as u32);
            for (stamp, op) in *ops {
                put_u64(out, *stamp);
                encode_op(op, out);
            }
        }
        Payload::Windows(windows) => {
            debug_assert!(windows.iter().all(|&(lo, hi)| lo < hi));
            put_u32(out, windows.len() as u32);
            for (lo, hi) in *windows {
                put_u64(out, *lo);
                put_u64(out, *hi);
            }
        }
    }
}

/// One frame in one buffer, sized up front: [`write_body`], then the
/// checksum trailer.
fn encode(h: &Header, payload: Payload<'_>) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.frame_len());
    write_body(h, &payload, &mut out);
    let sum = checksum(&out);
    put_u64(&mut out, sum);
    out
}

/// Encode one op-carrying (or sealing) frame from borrowed parts:
/// header | payload | checksum trailer, the checksum covering everything
/// before the trailer. Each `SetData` is logged as its redo extent. The
/// journal's own append path streams the same bytes into sectors
/// (`write_body`); this is the one-buffer form.
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
    let h = Header {
        gen,
        shard,
        kind,
        epoch,
        seq,
        txn,
    };
    encode(&h, Payload::Ops(ops))
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
    let h = Header {
        gen,
        shard,
        kind: FrameKind::Quarantine,
        epoch,
        seq,
        txn: mask,
    };
    encode(&h, Payload::Windows(windows))
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
    // The magic before the sum: bytes that are not a frame (stale
    // sectors, zeroed space) never have a forged length summed.
    if Reader::new(buf).u32()? != MAGIC {
        return None;
    }
    let (header, payload, total) = frame::open(buf, FRAME_HEADER, usize::MAX, SEED)?;
    let mut h = Reader::new(&header[4..]);
    let gen = h.u32()?;
    let shard = h.u16()?;
    let kind = FrameKind::from_tag(h.u8()?)?;
    if h.u8()? != 0 {
        return None; // pad byte must be zero
    }
    let epoch = h.u64()?;
    let seq = h.u64()?;
    let txn = h.u64()?;
    let mut pr = Reader::new(payload);
    let mut ops = Vec::new();
    let mut windows = Vec::new();
    if kind.carries_windows() {
        // Quarantine payload: `count` half-open stamp windows, each
        // exactly 16 bytes, strictly ascending and well-formed. The
        // strictness matters: these windows *license* recovery to skip
        // stamps, so a malformed list must fail the whole frame rather
        // than decode to something more permissive.
        let count = pr.count(16)?;
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
        // — `count` rejects it before reserving.
        let count = pr.count(MIN_STAMPED_OP_BYTES)?;
        if !kind.carries_ops() && count != 0 {
            return None;
        }
        ops.reserve(count);
        for _ in 0..count {
            let stamp = pr.u64()?;
            ops.push((stamp, decode_op(&mut pr)?));
        }
    }
    if !pr.done() {
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
                off: 2,
                old: b"before"[..].into(),
                new: vec![0xEE; 1000].into(),
                old_len: 8,
                new_len: 1002,
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
        let h = Header {
            gen: 3,
            shard: 2,
            kind,
            epoch: 17,
            seq: 42,
            txn,
        };
        let mut out = Vec::new();
        write_header(&h, payload.len(), &mut out);
        out.extend_from_slice(payload);
        let sum = checksum(&out);
        put_u64(&mut out, sum);
        out
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
                off: 2,
                old_len: 8,
                new_len: 1002,
                overwritten: 6,
                old_digest: checksum(b"before"),
                new: vec![0xEE; 1000],
            }
        );
        let op = &sample_ops()[2];
        let mut rec = Vec::new();
        encode_op(op, &mut rec);
        assert_eq!(rec.len(), encoded_len(op));
        assert_eq!(rec.len(), SET_DATA_HEADER + 1000);
    }

    #[test]
    fn extents_ending_past_their_lengths_are_rejected() {
        // Honestly checksummed, structurally complete, and out of range:
        // replay would index past the file, so decode refuses the frame.
        let extent = |off: u32, old_len: u32, old: usize, new_len: u32, new: usize| {
            let op = MicroOp::SetData {
                ino: 9,
                off,
                old: vec![1; old].into(),
                new: vec![2; new].into(),
                old_len,
                new_len,
            };
            let mut payload = Vec::new();
            put_u32(&mut payload, 1);
            put_u64(&mut payload, 5);
            encode_op(&op, &mut payload);
            decode_frame(&frame_with_payload(FrameKind::Batch, 0, &payload))
        };
        assert!(extent(2, 8, 6, 8, 6).is_some());
        assert!(extent(u32::MAX, 8, 0, 8, 0).is_some(), "an empty side");
        assert!(extent(3, 8, 6, 9, 6).is_none(), "old side past old_len");
        assert!(extent(3, 9, 6, 8, 6).is_none(), "new side past new_len");
        assert!(
            extent(u32::MAX, 8, 1, 8, 0).is_none(),
            "offset far past the end"
        );
    }

    #[test]
    fn zeros_are_not_a_frame() {
        // The scan's clean-end-of-log rule: never-written space is zeros.
        assert!(decode_frame(&[0u8; 64]).is_none());
    }

    #[test]
    fn previous_format_magic_is_not_a_frame() {
        // An "AJS4" frame, otherwise well-formed and honestly checksummed.
        let (mut bytes, _) = sample(FrameKind::Batch);
        bytes[..4].copy_from_slice(&0x34534a41u32.to_le_bytes());
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
