//! Byte pins for the two binary formats: journal log frames and server
//! wire frames.
//!
//! A fixed corpus — one journal frame of each `FrameKind` (the `Batch`
//! carrying all five micro-op kinds, a non-empty `SetData` extent among
//! them),
//! one request of each opcode, one response of each kind — is encoded
//! and compared with bytes captured from an earlier build of the codecs.
//! Short frames are pinned as full hex, long ones by length and sum.
//! A refactor of either codec must leave every pin in place: a moved pin
//! is a format change, which needs a new journal `MAGIC` or wire
//! `VERSION`, not a new pin.

use atomfs_journal::wire::{
    decode_frame, encode_frame_parts, encode_quarantine_parts, FrameKind, MAGIC,
};
use atomfs_server::wire::{
    decode_request_frame, decode_response_frame, encode_request_frame, encode_response, Request,
    Response, FLAG_CREATE, FLAG_READ, FLAG_WRITE, VERSION,
};
use atomfs_trace::MicroOp;
use atomfs_vfs::{FileType, FsError, Metadata};

/// Frames up to this many bytes are pinned as hex; longer ones by
/// length and sum.
const HEX_MAX: usize = 128;

/// Distinct, non-periodic filler bytes.
fn filler(n: usize, salt: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(167).wrapping_add(salt))
        .collect()
}

fn pin(bytes: &[u8]) -> String {
    if bytes.len() <= HEX_MAX {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    } else {
        format!(
            "{} bytes, sum {:016x}",
            bytes.len(),
            atomfs_vfs::checksum(0, bytes)
        )
    }
}

fn journal_corpus() -> Vec<(&'static str, Vec<u8>)> {
    let batch = vec![
        (
            100,
            MicroOp::Create {
                ino: 7,
                ftype: FileType::File,
            },
        ),
        (
            101,
            MicroOp::Ins {
                parent: 1,
                name: "file".into(),
                child: 7,
            },
        ),
        (
            102,
            MicroOp::SetData {
                ino: 7,
                off: 4,
                old: b"old contents"[..].into(),
                new: filler(300, 3).into(),
                old_len: 16,
                new_len: 304,
            },
        ),
        (
            103,
            MicroOp::Del {
                parent: 1,
                name: "gone".into(),
                child: 8,
            },
        ),
        (
            104,
            MicroOp::Remove {
                ino: 8,
                ftype: FileType::Dir,
            },
        ),
    ];
    let rename = vec![
        (
            200,
            MicroOp::Del {
                parent: 1,
                name: "a".into(),
                child: 9,
            },
        ),
        (
            201,
            MicroOp::Ins {
                parent: 2,
                name: "b".into(),
                child: 9,
            },
        ),
    ];
    vec![
        (
            "Batch",
            encode_frame_parts(3, 1, FrameKind::Batch, 17, 42, 0, &batch),
        ),
        (
            "EpochSeal",
            encode_frame_parts(3, 1, FrameKind::EpochSeal, 17, 43, 0, &[]),
        ),
        (
            "RenameIntent",
            encode_frame_parts(3, 0, FrameKind::RenameIntent, 18, 5, 0xabc, &rename),
        ),
        (
            "RenameSeal",
            encode_frame_parts(3, 2, FrameKind::RenameSeal, 18, 6, 0xabc, &[]),
        ),
        (
            "Quarantine",
            encode_quarantine_parts(3, 0, 19, 7, 0b1010, &[(10, 14), (20, 21)]),
        ),
    ]
}

fn request_corpus() -> Vec<(&'static str, Request)> {
    let path = |p: &str| p.to_string();
    vec![
        ("Mknod", Request::Mknod { path: path("/a") }),
        ("Mkdir", Request::Mkdir { path: path("/d") }),
        ("Unlink", Request::Unlink { path: path("/a") }),
        ("Rmdir", Request::Rmdir { path: path("/d") }),
        (
            "Rename",
            Request::Rename {
                src: path("/x"),
                dst: path("/dir/y"),
            },
        ),
        ("Stat", Request::Stat { path: path("/s") }),
        ("Readdir", Request::Readdir { path: path("/") }),
        (
            "Read",
            Request::Read {
                path: path("/f"),
                offset: 7,
                len: 512,
            },
        ),
        (
            "Write",
            Request::Write {
                path: path("/f"),
                offset: 3,
                data: filler(200, 5),
            },
        ),
        (
            "Truncate",
            Request::Truncate {
                path: path("/f"),
                size: 4096,
            },
        ),
        ("Sync", Request::Sync),
        (
            "Open",
            Request::Open {
                path: path("/f"),
                flags: FLAG_READ | FLAG_WRITE | FLAG_CREATE,
            },
        ),
        ("Close", Request::Close { fd: 3 }),
        (
            "PRead",
            Request::PRead {
                fd: 3,
                offset: 9,
                len: 4096,
            },
        ),
        (
            "PWrite",
            Request::PWrite {
                fd: 3,
                offset: 11,
                data: b"pwrite bytes".to_vec(),
            },
        ),
    ]
}

fn response_corpus() -> Vec<(&'static str, Response)> {
    vec![
        ("Unit", Response::Unit),
        ("Fd", Response::Fd(9)),
        ("Len", Response::Len(1 << 40)),
        (
            "Stat",
            Response::Stat(Metadata {
                ino: 5,
                ftype: FileType::File,
                size: 1234,
                nlink: 1,
            }),
        ),
        (
            "Names",
            Response::Names(vec!["a".into(), "bb".into(), "ccc".into()]),
        ),
        ("Data", Response::Data(filler(300, 11))),
        ("Err", Response::Err(FsError::NotFound)),
    ]
}

/// Every frame of the corpus, named, encoded by the current codecs. Each
/// must also decode back whole, so a pin never holds bytes the codec
/// itself refuses.
fn corpus() -> Vec<(String, Vec<u8>)> {
    let mut all = Vec::new();
    for (name, bytes) in journal_corpus() {
        let (_, total) = decode_frame(&bytes).expect("journal frame decodes");
        assert_eq!(total, bytes.len(), "journal {name}");
        all.push((format!("journal {name}"), bytes));
    }
    for (i, (name, req)) in request_corpus().into_iter().enumerate() {
        let mut bytes = Vec::new();
        encode_request_frame(&mut bytes, 0x1122_3344_5566_7700 + i as u64, &req.view());
        let (_, view, total) = decode_request_frame(&bytes).expect("request decodes");
        assert_eq!(
            (view.to_owned(), total),
            (req, bytes.len()),
            "request {name}"
        );
        all.push((format!("request {name}"), bytes));
    }
    for (i, (name, rsp)) in response_corpus().into_iter().enumerate() {
        let mut bytes = Vec::new();
        encode_response(&mut bytes, 0x99aa_bbcc_ddee_ff00 + i as u64, &rsp);
        let (_, got, total) = decode_response_frame(&bytes).expect("response decodes");
        assert_eq!((got, total), (rsp, bytes.len()), "response {name}");
        all.push((format!("response {name}"), bytes));
    }
    all
}

/// The bytes of [`corpus`], captured from the codecs as of journal
/// magic "AJS5" and wire version 2.
const PINS: &[(&str, &str)] = &[
    ("journal Batch", "499 bytes, sum 9d43c312f8f76bb6"),
    ("journal EpochSeal", "414a5335030000000100010011000000000000002b0000000000000000000000000000000400000000000000d3eb3addf50a6b12"),
    ("journal RenameIntent", "414a5335030000000000020012000000000000000500000000000000bc0a0000000000004000000002000000c80000000000000003010000000000000001000000610900000000000000c90000000000000002020000000000000001000000620900000000000000cbc4e8cdef0e4c89"),
    ("journal RenameSeal", "414a5335030000000200030012000000000000000600000000000000bc0a0000000000000400000000000000240eaf4783b48e59"),
    ("journal Quarantine", "414a53350300000000000400130000000000000007000000000000000a0000000000000024000000020000000a000000000000000e00000000000000140000000000000015000000000000004c58f19d602760c0"),
    ("request Mknod", "414652510200007766554433221106000000020000002f61e4dc4dea6dc430ae"),
    ("request Mkdir", "414652510201017766554433221106000000020000002f64b1e3e73953edbaeb"),
    ("request Unlink", "414652510202027766554433221106000000020000002f61e5d2b1168026fefe"),
    ("request Rmdir", "414652510203037766554433221106000000020000002f64da59076b0d12e7f7"),
    ("request Rename", "414652510204047766554433221110000000020000002f78060000002f6469722f792c84aa22979c4fb6"),
    ("request Stat", "414652510205057766554433221106000000020000002f73318e653ec04f0252"),
    ("request Readdir", "414652510206067766554433221105000000010000002f2b9ff8c580fbda3a"),
    ("request Read", "414652510207077766554433221112000000020000002f660700000000000000000200003cee94fa30207521"),
    ("request Write", "240 bytes, sum 29d1d37fde8da473"),
    ("request Truncate", "41465251020909776655443322110e000000020000002f660010000000000000174eceacd32ee4c8"),
    ("request Sync", "41465251020a0a7766554433221100000000c61c751e480b6a11"),
    ("request Open", "41465251020b0b7766554433221107000000020000002f660788bb56f3a3a726be"),
    ("request Close", "41465251020c0c776655443322110400000003000000bf154a9d0175f7d2"),
    ("request PRead", "41465251020d0d77665544332211100000000300000009000000000000000010000086a92934a1ae6cee"),
    ("request PWrite", "41465251020e0e7766554433221118000000030000000b000000000000007077726974652062797465731f456f87306a5b6d"),
    ("response Unit", "41465253020000ffeeddccbbaa99000000006822f4a27ef83454"),
    ("response Fd", "41465253020101ffeeddccbbaa9904000000090000000b43d55c99540b28"),
    ("response Len", "41465253020202ffeeddccbbaa990800000000000000000100001e2bb3dce425d766"),
    ("response Stat", "41465253020303ffeeddccbbaa9915000000050000000000000000d204000000000000010000004a4126690cf4267e"),
    ("response Names", "41465253020404ffeeddccbbaa9916000000030000000100000061020000006262030000006363633fdd8b948fd41955"),
    ("response Data", "326 bytes, sum 9210bf4d2193af28"),
    ("response Err", "4146525302ff06ffeeddccbbaa99040000000200000057875146c60afdb7"),
];

#[test]
fn format_versions_are_unchanged() {
    assert_eq!(MAGIC.to_le_bytes(), *b"AJS5");
    assert_eq!(VERSION, 2);
}

#[test]
fn every_corpus_frame_matches_its_pin() {
    let got: Vec<(String, String)> = corpus()
        .into_iter()
        .map(|(name, bytes)| (name, pin(&bytes)))
        .collect();
    let mismatches: Vec<String> = got
        .iter()
        .zip(PINS.iter().map(Some).chain(std::iter::repeat(None)))
        .filter(|((name, p), want)| *want != Some(&(name.as_str(), p.as_str())))
        .map(|((name, p), _)| format!("    (\"{name}\", \"{p}\"),"))
        .collect();
    assert!(
        mismatches.is_empty() && got.len() == PINS.len(),
        "{} of {} frames moved from their pins ({} pinned); current bytes:\n{}",
        mismatches.len(),
        got.len(),
        PINS.len(),
        mismatches.join("\n")
    );
}
