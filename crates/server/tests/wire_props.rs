//! Seeded property tests on the RPC wire protocol, mirroring the
//! journal's `wire_props` discipline: arbitrary bytes, truncations, and
//! bit-flipped encodings of valid frames must never panic, never decode
//! to a different request/response than was encoded, and never let a
//! forged length or count field drive a huge allocation. The server
//! treats any decode failure as connection poison, so these properties
//! are exactly the boundary between "malicious client" and "memory
//! safety plus bounded allocation".
//!
//! Each property runs over seeds `0..CASES` through [`check_seeds`],
//! drawing its input from a [`SplitMix64`]; a failure names its seed.

use atomfs_server::wire::{
    decode_request_frame, decode_response_frame, encode_request_frame, encode_response,
    frame_size_hint, Request, Response, FLAG_MASK, HDR_LEN, MAX_PAYLOAD, REQ_MAGIC, RSP_MAGIC,
    VERSION,
};
use atomfs_vfs::rng::check_seeds;
use atomfs_vfs::{FsError, Metadata, SplitMix64};

/// Seeds per property.
const CASES: u64 = 256;

fn byte_vec(rng: &mut SplitMix64, len: std::ops::Range<usize>) -> Vec<u8> {
    let mut v = vec![0u8; rng.random_range(len)];
    rng.fill(&mut v);
    v
}

fn path_from(bytes: Vec<u8>) -> String {
    let mut p = String::from("/");
    p.extend(bytes.iter().map(|b| char::from(b'a' + b % 26)));
    p
}

fn gen_path(rng: &mut SplitMix64) -> String {
    path_from(byte_vec(rng, 0..24))
}

fn gen_request(rng: &mut SplitMix64) -> Request {
    match rng.random_range(0..15) {
        0 => Request::Mknod {
            path: gen_path(rng),
        },
        1 => Request::Mkdir {
            path: gen_path(rng),
        },
        2 => Request::Unlink {
            path: gen_path(rng),
        },
        3 => Request::Rmdir {
            path: gen_path(rng),
        },
        4 => Request::Rename {
            src: gen_path(rng),
            dst: gen_path(rng),
        },
        5 => Request::Stat {
            path: gen_path(rng),
        },
        6 => Request::Readdir {
            path: gen_path(rng),
        },
        7 => Request::Read {
            path: gen_path(rng),
            offset: rng.next_u64(),
            len: rng.random_range(0..100_000),
        },
        8 => Request::Write {
            path: gen_path(rng),
            offset: rng.next_u64(),
            data: byte_vec(rng, 0..64),
        },
        9 => Request::Truncate {
            path: gen_path(rng),
            size: rng.next_u64(),
        },
        10 => Request::Sync,
        11 => Request::Open {
            path: gen_path(rng),
            flags: rng.next_u64() as u8 & FLAG_MASK,
        },
        12 => Request::Close {
            fd: rng.next_u64() as u32,
        },
        13 => Request::PRead {
            fd: rng.next_u64() as u32,
            offset: rng.next_u64(),
            len: rng.random_range(0..100_000),
        },
        _ => Request::PWrite {
            fd: rng.next_u64() as u32,
            offset: rng.next_u64(),
            data: byte_vec(rng, 0..64),
        },
    }
}

fn gen_response(rng: &mut SplitMix64) -> Response {
    match rng.random_range(0..7) {
        0 => Response::Unit,
        1 => Response::Fd(rng.next_u64() as u32),
        2 => Response::Len(rng.next_u64()),
        3 => {
            let (ino, size) = (rng.next_u64(), rng.next_u64());
            Response::Stat(if rng.random_bool(0.5) {
                Metadata::dir(ino, size, rng.random_range(0..100))
            } else {
                Metadata::file(ino, size)
            })
        }
        4 => Response::Names(
            (0..rng.random_range(0..8))
                .map(|_| path_from(byte_vec(rng, 0..12)))
                .collect(),
        ),
        5 => Response::Data(byte_vec(rng, 0..80)),
        _ => {
            let all = [
                FsError::NotFound,
                FsError::Exists,
                FsError::NotDir,
                FsError::IsDir,
                FsError::NotEmpty,
                FsError::InvalidArgument,
                FsError::NameTooLong,
                FsError::NoSpace,
                FsError::FileTooBig,
                FsError::BadFd,
                FsError::PermissionDenied,
                FsError::Busy,
                FsError::ReadOnly,
                FsError::Unsupported,
                FsError::Io,
            ];
            Response::Err(all[rng.random_range(0..all.len())])
        }
    }
}

/// Flip 1..5 random bits of `buf`.
fn flip_bits(rng: &mut SplitMix64, buf: &mut [u8]) {
    for _ in 0..rng.random_range(1..5) {
        let byte = rng.random_range(0..buf.len());
        buf[byte] ^= 1 << rng.random_range(0..8);
    }
}

#[test]
fn arbitrary_bytes_never_panic() {
    check_seeds(CASES, |rng| {
        let buf = byte_vec(rng, 0..300);
        if let Some((_, _, total)) = decode_request_frame(&buf) {
            assert!(total <= buf.len());
        }
        if let Some((_, _, total)) = decode_response_frame(&buf) {
            assert!(total <= buf.len());
        }
        if let Some((plen, total)) = frame_size_hint(&buf, REQ_MAGIC) {
            assert!(plen <= MAX_PAYLOAD);
            assert_eq!(total, HDR_LEN + plen + 8);
        }
    });
}

#[test]
fn arbitrary_bytes_with_magic_prefix_never_panic() {
    check_seeds(CASES, |rng| {
        // Force the interesting path: a valid magic + version over garbage.
        let mut buf = REQ_MAGIC.to_le_bytes().to_vec();
        buf.push(VERSION);
        buf.extend_from_slice(&byte_vec(rng, 0..300));
        if let Some((_, _, total)) = decode_request_frame(&buf) {
            assert!(total <= buf.len());
        }
    });
}

#[test]
fn request_roundtrip_is_exact() {
    check_seeds(CASES, |rng| {
        let (req, tag) = (gen_request(rng), rng.next_u64());
        let mut buf = Vec::new();
        encode_request_frame(&mut buf, tag, &req.view());
        let (t, view, total) = decode_request_frame(&buf).expect("valid frame decodes");
        assert_eq!(t, tag);
        assert_eq!(view.to_owned(), req);
        assert_eq!(total, buf.len());
    });
}

#[test]
fn response_roundtrip_is_exact() {
    check_seeds(CASES, |rng| {
        let (rsp, tag) = (gen_response(rng), rng.next_u64());
        let mut buf = Vec::new();
        encode_response(&mut buf, tag, &rsp);
        let (t, got, total) = decode_response_frame(&buf).expect("valid frame decodes");
        assert_eq!(t, tag);
        assert_eq!(got, rsp);
        assert_eq!(total, buf.len());
    });
}

#[test]
fn request_truncations_never_decode() {
    check_seeds(CASES, |rng| {
        let mut buf = Vec::new();
        encode_request_frame(&mut buf, 9, &gen_request(rng).view());
        let cut = rng.random_range(0..buf.len());
        assert!(
            decode_request_frame(&buf[..cut]).is_none(),
            "truncated frame decoded (cut {} of {})",
            cut,
            buf.len()
        );
    });
}

#[test]
fn response_truncations_never_decode() {
    check_seeds(CASES, |rng| {
        let mut buf = Vec::new();
        encode_response(&mut buf, 9, &gen_response(rng));
        let cut = rng.random_range(0..buf.len());
        assert!(decode_response_frame(&buf[..cut]).is_none());
    });
}

#[test]
fn request_bit_flips_never_forge() {
    check_seeds(CASES, |rng| {
        let (req, tag) = (gen_request(rng), rng.next_u64());
        let mut buf = Vec::new();
        encode_request_frame(&mut buf, tag, &req.view());
        let mut bad = buf.clone();
        flip_bits(rng, &mut bad);
        match decode_request_frame(&bad) {
            None => {}
            Some((t, view, _)) => {
                // Flips may cancel back to the original bytes; anything
                // else surviving the checksum would be a forgery.
                assert_eq!(&bad, &buf, "corrupted frame decoded");
                assert_eq!(t, tag);
                assert_eq!(view.to_owned(), req);
            }
        }
    });
}

#[test]
fn response_bit_flips_never_forge() {
    check_seeds(CASES, |rng| {
        let (rsp, tag) = (gen_response(rng), rng.next_u64());
        let mut buf = Vec::new();
        encode_response(&mut buf, tag, &rsp);
        let mut bad = buf.clone();
        flip_bits(rng, &mut bad);
        match decode_response_frame(&bad) {
            None => {}
            Some((t, got, _)) => {
                assert_eq!(&bad, &buf, "corrupted frame decoded");
                assert_eq!(t, tag);
                assert_eq!(got, rsp);
            }
        }
    });
}

#[test]
fn forged_length_fields_are_clamped() {
    check_seeds(CASES, |rng| {
        // Patch payload_len to an absurd value: both the streaming size
        // hint and the full decoder must reject it before any allocation
        // could be sized from it.
        let forged_len = rng.random_range(MAX_PAYLOAD as u32 + 1..u32::MAX);
        let mut buf = Vec::new();
        encode_request_frame(&mut buf, 3, &gen_request(rng).view());
        buf[HDR_LEN - 4..HDR_LEN].copy_from_slice(&forged_len.to_le_bytes());
        assert!(frame_size_hint(&buf, REQ_MAGIC).is_none());
        assert!(decode_request_frame(&buf).is_none());
    });
}

#[test]
fn forged_names_count_is_clamped() {
    check_seeds(CASES, |rng| {
        // A names response whose count field claims more entries than
        // its payload could hold must be rejected without allocating a
        // `count`-sized Vec. Build it by patching a small valid frame's
        // count in place and re-deriving nothing: the checksum then
        // mismatches, which is also a rejection — so additionally check
        // the dedicated guard via a frame whose checksum is fixed up.
        let (count, tag) = (rng.random_range(64u32..u32::MAX), rng.next_u64());
        let names: Vec<String> = (0..4).map(|i| format!("n{i}")).collect();
        let mut buf = Vec::new();
        encode_response(&mut buf, tag, &Response::Names(names));
        buf[HDR_LEN..HDR_LEN + 4].copy_from_slice(&count.to_le_bytes());
        assert!(decode_response_frame(&buf).is_none());
        // Fix the checksum so only the count guard can reject it.
        let body_end = buf.len() - 8;
        let sum = atomfs_server::wire::checksum(&buf[..body_end]);
        buf[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert!(decode_response_frame(&buf).is_none());
    });
}

#[test]
fn size_hint_agrees_with_decoder() {
    check_seeds(CASES, |rng| {
        let (req, tag) = (gen_request(rng), rng.next_u64());
        let mut buf = Vec::new();
        encode_request_frame(&mut buf, tag, &req.view());
        let (plen, total) = frame_size_hint(&buf, REQ_MAGIC).expect("hint on valid frame");
        assert_eq!(total, buf.len());
        assert_eq!(plen, buf.len() - HDR_LEN - 8);
        // The hint must reject the wrong direction.
        assert!(frame_size_hint(&buf, RSP_MAGIC).is_none());
    });
}
