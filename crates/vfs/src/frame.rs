//! The workspace's one framed byte codec.
//!
//! Both binary formats — the journal's log frames (`atomfs_journal::wire`)
//! and the server's RPC frames (`atomfs_server::wire`) — are built on this
//! module: the little-endian writers (`put_*`, into any [`Out`]), the
//! strict [`Reader`],
//! which clamps every length or count it reads against the bytes present
//! before anything is built from it, and the sealed envelope:
//!
//! ```text
//! header (hdr_len bytes, ending in payload_len u32) | payload | checksum u64
//! ```
//!
//! [`seal`] patches the length and appends the [`checksum()`] of the
//! frame; [`open`] clamps the length and checks the sum; [`peek_total`]
//! sizes a frame from its header alone. Each format keeps its own header
//! fields, magic, seed and schema, and checks its magic (and version)
//! before [`open`] sums anything. Every function is `#[inline]`: the
//! release profile has no LTO, and a field read must not become a
//! cross-crate call.

use crate::checksum::checksum;

/// Byte length of the checksum trailer.
pub const TRAILER_LEN: usize = 8;

/// Where encoded bytes go, in order, as they are produced: a `Vec`, or
/// a writer that passes them on without holding the whole frame (the
/// journal streams its frames into device sectors).
pub trait Out {
    /// Append `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl Out for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Append `v` little-endian.
#[inline]
pub fn put_u16(out: &mut impl Out, v: u16) {
    out.put(&v.to_le_bytes());
}

/// Append `v` little-endian.
#[inline]
pub fn put_u32(out: &mut impl Out, v: u32) {
    out.put(&v.to_le_bytes());
}

/// Append `v` little-endian.
#[inline]
pub fn put_u64(out: &mut impl Out, v: u64) {
    out.put(&v.to_le_bytes());
}

/// Append `b` behind its length as a `u32`; [`Reader::len_prefixed`]
/// reads it back.
#[inline]
pub fn put_len_prefixed(out: &mut impl Out, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.put(b);
}

/// A strict little-endian reader over a byte slice. Every method returns
/// `None` rather than read past the end, and what it returns borrows
/// from the slice: nothing is allocated.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// The next `N` bytes as an array.
    #[inline]
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N).map(|s| s.try_into().expect("N bytes"))
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        self.array::<1>().map(|[b]| b)
    }

    /// The next little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// The bytes behind a `u32` length, as [`put_len_prefixed`] wrote
    /// them. The length is clamped against the bytes present.
    #[inline]
    pub fn len_prefixed(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A [`len_prefixed`](Self::len_prefixed) field that must be UTF-8.
    #[inline]
    pub fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.len_prefixed()?).ok()
    }

    /// A `u32` item count, refused when the bytes left cannot hold that
    /// many items of at least `min_item` (> 0) bytes each — so a forged
    /// count never sizes an allocation.
    #[inline]
    pub fn count(&mut self, min_item: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        (n <= (self.buf.len() - self.pos) / min_item).then_some(n)
    }

    /// Everything left.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Whether every byte has been read.
    #[inline]
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Seal the frame that starts at `out[start]`: its `hdr_len`-byte header
/// ends in a placeholder `u32` payload length, and everything after the
/// header is the payload. Writes the length and appends the checksum of
/// the whole frame under `seed`.
#[inline]
pub fn seal(out: &mut Vec<u8>, start: usize, hdr_len: usize, seed: u64) {
    let body = start + hdr_len;
    let len = (out.len() - body) as u32;
    out[body - 4..body].copy_from_slice(&len.to_le_bytes());
    let sum = checksum(seed, &out[start..]);
    put_u64(out, sum);
}

/// The total length (header, payload and trailer) of the frame whose
/// header starts `hdr`, read from its length field alone. `None` when
/// `hdr` is shorter than `hdr_len` or the length exceeds `max_payload`.
/// The checksum is not checked: the rest of the frame may not have
/// arrived yet.
#[inline]
pub fn peek_total(hdr: &[u8], hdr_len: usize, max_payload: usize) -> Option<usize> {
    let field = hdr.get(hdr_len.checked_sub(4)?..hdr_len)?;
    let payload_len = u32::from_le_bytes(field.try_into().expect("4")) as usize;
    if payload_len > max_payload {
        return None;
    }
    hdr_len.checked_add(payload_len)?.checked_add(TRAILER_LEN)
}

/// Open the frame at the start of `buf`: clamp its payload length
/// against `max_payload` and the bytes present, then check its sum
/// under `seed`. Returns `(header, payload, total_len)`, borrowed from
/// `buf`, or `None` when the bytes are not a whole, intact frame.
#[inline]
pub fn open(
    buf: &[u8],
    hdr_len: usize,
    max_payload: usize,
    seed: u64,
) -> Option<(&[u8], &[u8], usize)> {
    let total = peek_total(buf, hdr_len, max_payload)?;
    let frame = buf.get(..total)?;
    let (body, trailer) = frame.split_at(total - TRAILER_LEN);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8"));
    if checksum(seed, body) != stored {
        return None;
    }
    let (header, payload) = body.split_at(hdr_len);
    Some((header, payload, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{check_seeds, SplitMix64};
    use atomfs_obs::alloc::{measure, Counting};

    /// Counts this thread's allocations, so one test can assert that a
    /// call allocated nothing while the others run in parallel.
    #[global_allocator]
    static A: Counting = Counting;

    /// A frame shaped like the server's: magic u32 | code u8 | len u32.
    const HDR: usize = 9;
    const SEED: u64 = 0x1234_5678_9abc_def0;
    const MAX: usize = 1 << 16;

    fn sample(payload: &[u8]) -> Vec<u8> {
        let mut out = vec![0xEE; 3]; // bytes of an earlier frame
        let start = out.len();
        put_u32(&mut out, 0x4d52_4641);
        out.push(7);
        put_u32(&mut out, 0);
        put_len_prefixed(&mut out, payload);
        seal(&mut out, start, HDR, SEED);
        out.drain(..start);
        out
    }

    #[test]
    fn sealed_frames_open_to_their_parts() {
        for len in [0, 1, 63, 64, 200] {
            let body: Vec<u8> = (0..len as u8).collect();
            let bytes = sample(&body);
            let (hdr, payload, total) = open(&bytes, HDR, MAX, SEED).expect("opens");
            assert_eq!(total, bytes.len());
            assert_eq!(peek_total(&bytes[..HDR], HDR, MAX), Some(total));
            let mut h = Reader::new(hdr);
            assert_eq!(
                (h.u32(), h.u8(), h.u32()),
                (Some(0x4d52_4641), Some(7), Some(4 + len))
            );
            let mut p = Reader::new(payload);
            assert_eq!(p.len_prefixed(), Some(&body[..]));
            assert!(p.done());
            // Trailing bytes of a next frame are not this frame's.
            let mut stream = bytes.clone();
            stream.extend_from_slice(&bytes);
            assert_eq!(open(&stream, HDR, MAX, SEED).map(|f| f.2), Some(total));
        }
    }

    #[test]
    fn a_truncation_at_any_length_never_opens() {
        let bytes = sample(b"some payload bytes, long enough to cross one 64-byte block .....");
        for cut in 0..bytes.len() {
            assert!(
                open(&bytes[..cut], HDR, MAX, SEED).is_none(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn any_single_bit_flip_never_opens() {
        let bytes = sample(b"a payload past one 64-byte block, so the flip hits the lanes too..");
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    open(&bad, HDR, MAX, SEED).is_none(),
                    "flip of byte {byte} bit {bit} opened"
                );
            }
        }
    }

    #[test]
    fn another_seed_never_opens() {
        assert!(open(&sample(b"x"), HDR, MAX, SEED ^ 1).is_none());
    }

    #[test]
    fn forged_lengths_are_refused_before_any_allocation() {
        let mut past_buffer = sample(b"abc");
        past_buffer[HDR - 4..HDR].copy_from_slice(&1000u32.to_le_bytes());
        let mut past_max = vec![0; HDR + MAX + 1 + TRAILER_LEN];
        past_max[HDR - 4..HDR].copy_from_slice(&(MAX as u32 + 1).to_le_bytes());
        let mut huge = sample(b"abc");
        huge[HDR - 4..HDR].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut count = Vec::new();
        put_u32(&mut count, u32::MAX);
        put_u32(&mut count, 0);

        let spent = measure(|| {
            assert!(open(&past_buffer, HDR, MAX, SEED).is_none());
            assert!(open(&past_max, HDR, MAX, SEED).is_none());
            assert!(peek_total(&past_max, HDR, MAX).is_none());
            assert!(open(&huge, HDR, usize::MAX, SEED).is_none());
            assert!(Reader::new(&count).count(1).is_none());
            assert!(Reader::new(&count).len_prefixed().is_none());
        });
        assert_eq!(spent.allocs, 0, "a refusal allocated");
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        check_seeds(400, |rng: &mut SplitMix64| {
            let mut buf = vec![0u8; rng.random_range(0..160usize)];
            rng.fill(&mut buf);
            if buf.len() >= HDR && rng.random_bool(0.5) {
                // A plausible length, so some inputs reach the sum.
                let len = rng.random_range(0..buf.len() as u32);
                buf[HDR - 4..HDR].copy_from_slice(&len.to_le_bytes());
            }
            let hdr_len = rng.random_range(0..12usize);
            let _ = peek_total(&buf, hdr_len, MAX);
            let _ = open(&buf, hdr_len, MAX, SEED);
            let mut r = Reader::new(&buf);
            loop {
                let read = match rng.random_range(0..8u32) {
                    0 => r.u8().is_some(),
                    1 => r.u16().is_some(),
                    2 => r.u32().is_some(),
                    3 => r.u64().is_some(),
                    4 => r.len_prefixed().is_some(),
                    5 => r.str().is_some(),
                    6 => r.count(rng.random_range(1..20usize)).is_some(),
                    _ => r.take(rng.random_range(0..40usize)).is_some(),
                };
                if !read || r.done() {
                    break;
                }
            }
            let _ = r.rest();
            assert!(r.done());
        });
    }
}
