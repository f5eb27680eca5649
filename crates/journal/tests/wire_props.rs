//! Seeded property tests on the journal's wire format: `decode_frame` fed
//! arbitrary bytes, truncations, and bit-flipped encodings of valid
//! frames must never panic and never return a frame that differs from
//! the redo projection of the one encoded — the checksum (plus the
//! clamped length/count fields) catches every corruption the fault layer
//! can inject. The stakes: a forged `RenameIntent`/`RenameSeal` with a
//! different `(txn, epoch)` could pair with the wrong transaction at
//! recovery, and a forged offset, length or digest in a `SetData`
//! extent would change which base a redo write accepts or where it
//! lands, so the properties assert corruption can do neither. Extents
//! built from random writes and truncates of random files decode and
//! replay to the file the traced extent makes.
//!
//! The journal streams each frame into its shard's sectors as it
//! encodes; the same generators pin that the streamed log is byte for
//! byte the one-buffer encodings laid end to end.
//!
//! Each property runs over seeds `0..CASES` through [`check_seeds`],
//! drawing its input from a [`SplitMix64`]; a failure names its seed.

use std::sync::Arc;

use atomfs_journal::device::SECTOR_SIZE;
use atomfs_journal::recovery::replay;
use atomfs_journal::wire::{
    decode_frame, encode_frame_parts, encode_quarantine_parts, Frame, FrameKind, RedoOp,
    FRAME_HEADER, MAGIC,
};
use atomfs_journal::{BlockDevice, Disk, ShardConfig, ShardWriter};
use atomfs_trace::MicroOp;
use atomfs_vfs::rng::check_seeds;
use atomfs_vfs::{FileType, SplitMix64};
use crlh::FsState;

/// Seeds per property.
const CASES: u64 = 256;

fn byte_vec(rng: &mut SplitMix64, len: std::ops::Range<usize>) -> Vec<u8> {
    let mut v = vec![0u8; rng.random_range(len)];
    rng.fill(&mut v);
    v
}

/// A 1..12-letter name.
fn name(rng: &mut SplitMix64) -> String {
    byte_vec(rng, 1..12)
        .iter()
        .map(|b| char::from(b'a' + b % 26))
        .collect()
}

fn ftype(rng: &mut SplitMix64) -> FileType {
    if rng.random_bool(0.5) {
        FileType::Dir
    } else {
        FileType::File
    }
}

/// One micro-op, names/payloads built from small byte pools.
fn gen_op(rng: &mut SplitMix64) -> MicroOp {
    match rng.random_range(0..5) {
        0 => MicroOp::Create {
            ino: rng.next_u64(),
            ftype: ftype(rng),
        },
        1 => MicroOp::Remove {
            ino: rng.next_u64(),
            ftype: ftype(rng),
        },
        2 => MicroOp::Ins {
            parent: rng.next_u64(),
            name: name(rng),
            child: rng.next_u64(),
        },
        3 => MicroOp::Del {
            parent: rng.next_u64(),
            name: name(rng),
            child: rng.next_u64(),
        },
        _ => gen_extent(rng, 0..40),
    }
}

/// A well-formed `SetData` extent, each side's bytes within its length,
/// with `new` drawn from `new_len`.
fn gen_extent(rng: &mut SplitMix64, new_len: std::ops::Range<usize>) -> MicroOp {
    let off = rng.random_range(0..64) as u32;
    let (old, new) = (byte_vec(rng, 0..40), byte_vec(rng, new_len));
    MicroOp::SetData {
        ino: rng.next_u64(),
        off,
        old_len: off + old.len() as u32 + rng.random_range(0..8) as u32,
        new_len: off + new.len() as u32 + rng.random_range(0..8) as u32,
        old: old.into(),
        new: new.into(),
    }
}

/// A random file and a random write or truncate of it: the file, and
/// the extent that records the edit.
fn gen_edit(rng: &mut SplitMix64) -> (Vec<u8>, MicroOp) {
    let file = byte_vec(rng, 0..200);
    let len = file.len() as u64;
    let read = |r: std::ops::Range<u64>| file[r.start as usize..r.end as usize].to_vec();
    let op = if rng.random_bool(0.7) {
        let off = rng.random_range(0..len + 32);
        MicroOp::write_extent(7, len, off, &byte_vec(rng, 0..100), read)
    } else {
        MicroOp::resize_extent(7, len, rng.random_range(0..len + 64), read)
    };
    (file, op)
}

/// The fields of one frame: seal kinds carry no ops (the format rejects
/// a "seal" smuggling a payload), op-bearing kinds carry a small
/// stamped batch of traced ops, quarantine frames their windows.
struct Parts {
    kind: FrameKind,
    gen: u32,
    shard: u16,
    epoch: u64,
    seq: u64,
    txn: u64,
    ops: Vec<(u64, MicroOp)>,
    windows: Vec<(u64, u64)>,
}

fn gen_parts(rng: &mut SplitMix64) -> Parts {
    let kind = match rng.random_range(0..5) {
        0 => FrameKind::Batch,
        1 => FrameKind::EpochSeal,
        2 => FrameKind::RenameIntent,
        3 => FrameKind::RenameSeal,
        _ => FrameKind::Quarantine,
    };
    let (gen, shard) = (rng.next_u64() as u32, rng.next_u64() as u16);
    let (epoch, seq, txn) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
    let mut ops = Vec::new();
    if matches!(kind, FrameKind::Batch | FrameKind::RenameIntent) {
        for _ in 0..rng.random_range(0..5) {
            ops.push((rng.next_u64(), gen_op(rng)));
        }
    }
    // Quarantine windows must be ascending and non-overlapping; build
    // them from (start-offset, width) deltas.
    let mut windows = Vec::new();
    if matches!(kind, FrameKind::Quarantine) {
        let mut lo = 0u64;
        for _ in 0..rng.random_range(0..4) {
            let (gap, width) = (rng.random_range(0..1000), rng.random_range(1..50));
            lo = lo.saturating_add(gap);
            windows.push((lo, lo + width));
            lo += width;
        }
    }
    Parts {
        kind,
        gen,
        shard,
        epoch,
        seq,
        txn,
        ops,
        windows,
    }
}

fn encode(p: &Parts) -> Vec<u8> {
    if p.kind == FrameKind::Quarantine {
        encode_quarantine_parts(p.gen, p.shard, p.epoch, p.seq, p.txn, &p.windows)
    } else {
        encode_frame_parts(p.gen, p.shard, p.kind, p.epoch, p.seq, p.txn, &p.ops)
    }
}

/// One frame's encoding and the frame decoding must yield: op-bearing
/// kinds decode to the redo projection of their traced ops.
fn gen_frame(rng: &mut SplitMix64) -> (Vec<u8>, Frame) {
    let p = gen_parts(rng);
    let frame = Frame {
        gen: p.gen,
        shard: p.shard,
        kind: p.kind,
        epoch: p.epoch,
        seq: p.seq,
        txn: p.txn,
        ops: p.ops.iter().map(|(s, op)| (*s, RedoOp::from(op))).collect(),
        windows: p.windows.clone(),
    };
    (encode(&p), frame)
}

#[test]
fn streamed_frames_are_the_encoded_bytes() {
    check_seeds(CASES, |rng| {
        let disk = Arc::new(Disk::new());
        let cfg = ShardConfig::default();
        let shard = rng.random_range(0..cfg.shards);
        let gen = rng.next_u64() as u32;
        let mut w = ShardWriter::new(Arc::clone(&disk) as Arc<dyn BlockDevice>, shard, gen, &cfg);
        let (mut want, mut sector_writes) = (Vec::new(), 0u64);
        for _ in 0..rng.random_range(1..12) {
            let mut p = gen_parts(rng);
            (p.gen, p.shard, p.seq) = (gen, shard as u16, w.next_seq());
            if !p.ops.is_empty() && rng.random_bool(0.3) {
                // A page-sized write spans sectors, and lands anywhere
                // in them.
                p.ops.push((rng.next_u64(), gen_extent(rng, 0..3000)));
            }
            let bytes = encode(&p);
            let (first, last) = (
                want.len() / SECTOR_SIZE,
                (want.len() + bytes.len() - 1) / SECTOR_SIZE,
            );
            sector_writes += (last - first + 1) as u64;
            want.extend_from_slice(&bytes);
            if p.kind == FrameKind::Quarantine {
                w.append_quarantine(p.epoch, p.txn, &p.windows)
            } else {
                w.append_frame(p.kind, p.epoch, p.txn, &p.ops)
            }
            .expect("a perfect disk");
            if rng.random_bool(0.3) {
                disk.flush();
            }
        }
        assert_eq!(w.position(), want.len() as u64);
        // One write per sector each frame touches, as when a frame was
        // cut from one buffer.
        assert_eq!(disk.write_count(), sector_writes);
        let base = cfg.region_base(shard);
        let got: Vec<u8> = (0..want.len().div_ceil(SECTOR_SIZE) as u64)
            .flat_map(|i| disk.read(base + i))
            .collect();
        assert_eq!(&got[..want.len()], &want[..], "streamed log differs");
        assert!(
            got[want.len()..].iter().all(|&b| b == 0),
            "bytes past the tail"
        );
    });
}

#[test]
fn frame_roundtrip_is_the_redo_projection() {
    check_seeds(CASES, |rng| {
        let (bytes, frame) = gen_frame(rng);
        let (decoded, total) = decode_frame(&bytes).expect("valid frame decodes");
        assert_eq!(&decoded, &frame);
        assert_eq!(total, bytes.len());
        // The pairing-relevant fields roundtrip bit-exactly.
        assert_eq!(decoded.epoch, frame.epoch);
        assert_eq!(decoded.txn, frame.txn);
        assert_eq!(decoded.kind, frame.kind);
    });
}

#[test]
fn frame_truncations_never_decode() {
    check_seeds(CASES, |rng| {
        let (bytes, _) = gen_frame(rng);
        let cut = rng.random_range(0..bytes.len());
        assert!(
            decode_frame(&bytes[..cut]).is_none(),
            "a truncated frame must never decode (cut at {} of {})",
            cut,
            bytes.len()
        );
    });
}

#[test]
fn frame_bit_flips_never_forge_a_pairable_transaction() {
    check_seeds(CASES, |rng| {
        let (bytes, frame) = gen_frame(rng);
        let mut bad = bytes.clone();
        for _ in 0..rng.random_range(1..5) {
            let byte = rng.random_range(0..bad.len());
            bad[byte] ^= 1 << rng.random_range(0..8);
        }
        match decode_frame(&bad) {
            None => {}
            Some((decoded, _)) => {
                // Flips may cancel back to the original bytes; anything
                // else surviving the checksum would let a corrupted
                // intent or seal pair under a different (txn, epoch).
                assert_eq!(&bad, &bytes, "corrupted frame decoded");
                assert_eq!(decoded, frame);
            }
        }
    });
}

#[test]
fn frame_arbitrary_bytes_never_panic() {
    check_seeds(CASES, |rng| {
        let mut buf = MAGIC.to_le_bytes().to_vec();
        buf.extend_from_slice(&byte_vec(rng, 0..400));
        if let Some((frame, total)) = decode_frame(&buf) {
            assert!(total <= buf.len());
            // Whatever decodes, the lost-stamp windows are well-formed:
            // ascending, non-overlapping, non-empty. Recovery skips
            // exactly these stamps, so garbage must never widen them.
            let mut prev = 0u64;
            for (lo, hi) in &frame.windows {
                assert!(lo < hi && *lo >= prev);
                prev = *hi;
            }
        }
    });
}

#[test]
fn extent_roundtrip_replays_to_the_traced_file() {
    check_seeds(CASES, |rng| {
        let (file, extent) = gen_edit(rng);
        let ops = [
            MicroOp::Create {
                ino: 7,
                ftype: FileType::File,
            },
            MicroOp::replace(7, Vec::new(), file),
            extent,
        ];
        let stamped: Vec<(u64, MicroOp)> = ops
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, op)| (i as u64, op))
            .collect();
        let bytes = encode_frame_parts(1, 0, FrameKind::Batch, 1, 0, 0, &stamped);
        let (frame, _) = decode_frame(&bytes).expect("valid frame decodes");
        let mut traced = FsState::new();
        for op in &ops {
            traced.apply_micro(op).unwrap();
        }
        assert_eq!(replay(&frame.ops).expect("the redo extents replay"), traced);
    });
}

#[test]
fn extent_truncations_never_decode() {
    check_seeds(CASES, |rng| {
        let (_, extent) = gen_edit(rng);
        let bytes = encode_frame_parts(1, 0, FrameKind::Batch, 1, 0, 0, &[(0, extent)]);
        // Every cut inside the record, and a few in the trailer.
        for cut in FRAME_HEADER..bytes.len() {
            assert!(
                decode_frame(&bytes[..cut]).is_none(),
                "cut at {cut} of {} decoded",
                bytes.len()
            );
        }
    });
}

#[test]
fn extent_field_bit_flips_never_forge_a_frame() {
    check_seeds(CASES, |rng| {
        let (_, extent) = gen_edit(rng);
        let bytes =
            encode_frame_parts(1, 0, FrameKind::Batch, 1, 0, 0, &[(rng.next_u64(), extent)]);
        // count u32 | stamp u64 | tag u8 | ino u64, then off u32,
        // old_len u32, new_len u32, overwritten u32 and old_digest u64.
        let field = FRAME_HEADER + 4 + 8 + 1 + 8;
        for byte in field..field + 4 + 4 + 4 + 4 + 8 {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&bad).is_none(),
                    "flip of byte {byte} bit {bit} forged a redo write"
                );
            }
        }
    });
}
