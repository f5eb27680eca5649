//! Property-based tests on the journal's wire format: `decode_frame` fed
//! arbitrary bytes, truncations, and bit-flipped encodings of valid
//! frames must never panic and never return a frame that differs from
//! the one encoded — the checksum (plus the clamped length/count fields)
//! catches every corruption the fault layer can inject. The stakes: a
//! forged `RenameIntent`/`RenameSeal` with a different `(txn, epoch)`
//! could pair with the wrong transaction at recovery, so the properties
//! assert corruption can never *re-pair*.

use atomfs_journal::wire::{decode_frame, encode_frame, Frame, FrameKind};
use atomfs_trace::MicroOp;
use atomfs_vfs::FileType;
use proptest::collection::vec;
use proptest::prelude::*;

/// Strategy for one micro-op, names/payloads built from small byte pools
/// (no string-regex strategies needed).
fn op_strategy() -> impl Strategy<Value = MicroOp> {
    prop_oneof![
        (any::<u64>(), any::<bool>()).prop_map(|(ino, dir)| MicroOp::Create {
            ino,
            ftype: if dir { FileType::Dir } else { FileType::File },
        }),
        (any::<u64>(), any::<bool>()).prop_map(|(ino, dir)| MicroOp::Remove {
            ino,
            ftype: if dir { FileType::Dir } else { FileType::File },
        }),
        (any::<u64>(), vec(any::<u8>(), 1..12), any::<u64>()).prop_map(|(parent, name, child)| {
            MicroOp::Ins {
                parent,
                name: name.iter().map(|b| char::from(b'a' + b % 26)).collect(),
                child,
            }
        }),
        (any::<u64>(), vec(any::<u8>(), 1..12), any::<u64>()).prop_map(|(parent, name, child)| {
            MicroOp::Del {
                parent,
                name: name.iter().map(|b| char::from(b'a' + b % 26)).collect(),
                child,
            }
        }),
        (
            any::<u64>(),
            vec(any::<u8>(), 0..40),
            vec(any::<u8>(), 0..40)
        )
            .prop_map(|(ino, old, new)| MicroOp::SetData { ino, old, new }),
    ]
}

/// Strategy for one frame: seal kinds carry no ops (the format
/// rejects a "seal" smuggling a payload), op-bearing kinds carry a small
/// stamped batch.
fn frame_strategy() -> impl Strategy<Value = Frame> {
    (
        any::<u32>(),
        any::<u16>(),
        0u8..5,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        vec((any::<u64>(), op_strategy()), 0..5),
        vec((any::<u64>(), 1u64..50), 0..4),
    )
        .prop_map(|(gen, shard, k, epoch, seq, txn, ops, spans)| {
            let kind = match k {
                0 => FrameKind::Batch,
                1 => FrameKind::EpochSeal,
                2 => FrameKind::RenameIntent,
                3 => FrameKind::RenameSeal,
                _ => FrameKind::Quarantine,
            };
            let carries = matches!(kind, FrameKind::Batch | FrameKind::RenameIntent);
            // Quarantine windows must be ascending and non-overlapping;
            // build them from (start-offset, width) deltas.
            let mut windows = Vec::new();
            if matches!(kind, FrameKind::Quarantine) {
                let mut lo = 0u64;
                for (gap, width) in spans {
                    lo = lo.saturating_add(gap % 1000);
                    windows.push((lo, lo + width));
                    lo += width;
                }
            }
            Frame {
                gen,
                shard,
                kind,
                epoch,
                seq,
                txn,
                ops: if carries { ops } else { Vec::new() },
                windows,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frame_roundtrip_is_exact(frame in frame_strategy()) {
        let bytes = encode_frame(&frame);
        let (decoded, total) = decode_frame(&bytes).expect("valid frame decodes");
        prop_assert_eq!(&decoded, &frame);
        prop_assert_eq!(total, bytes.len());
        // The pairing-relevant fields roundtrip bit-exactly.
        prop_assert_eq!(decoded.epoch, frame.epoch);
        prop_assert_eq!(decoded.txn, frame.txn);
        prop_assert_eq!(decoded.kind, frame.kind);
    }

    #[test]
    fn frame_truncations_never_decode(frame in frame_strategy(), frac in 0.0f64..1.0) {
        let bytes = encode_frame(&frame);
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assert!(cut < bytes.len());
        prop_assert!(
            decode_frame(&bytes[..cut]).is_none(),
            "a truncated frame must never decode (cut at {} of {})",
            cut,
            bytes.len()
        );
    }

    #[test]
    fn frame_bit_flips_never_forge_a_pairable_transaction(
        frame in frame_strategy(),
        flips in vec((any::<u16>(), 0u8..8), 1..5)
    ) {
        let bytes = encode_frame(&frame);
        let mut bad = bytes.clone();
        for (pos, bit) in &flips {
            let byte = *pos as usize % bad.len();
            bad[byte] ^= 1 << bit;
        }
        match decode_frame(&bad) {
            None => {}
            Some((decoded, _)) => {
                // Flips may cancel back to the original bytes; anything
                // else surviving the checksum would let a corrupted
                // intent or seal pair under a different (txn, epoch).
                prop_assert_eq!(&bad, &bytes, "corrupted frame decoded");
                prop_assert_eq!(decoded, frame);
            }
        }
    }

    #[test]
    fn frame_arbitrary_bytes_never_panic(tail in vec(any::<u8>(), 0..400)) {
        let mut buf = atomfs_journal::wire::MAGIC2.to_le_bytes().to_vec();
        buf.extend_from_slice(&tail);
        if let Some((frame, total)) = decode_frame(&buf) {
            prop_assert!(total <= buf.len());
            // Whatever decodes, the lost-stamp windows are well-formed:
            // ascending, non-overlapping, non-empty. Recovery skips
            // exactly these stamps, so garbage must never widen them.
            let mut prev = 0u64;
            for (lo, hi) in &frame.windows {
                prop_assert!(lo < hi && *lo >= prev);
                prev = *hi;
            }
        }
    }
}
