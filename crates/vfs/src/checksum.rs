//! The workspace's one frame checksum.
//!
//! Both binary codecs — the journal's on-disk frames and the server's
//! wire frames — seal their bytes with [`checksum`], each under its own
//! seed so a frame of one can never verify as a frame of the other.
//!
//! The sum absorbs little-endian 64-bit words with one step, an
//! FNV-style multiply-xor followed by an xor-shift. Every step is
//! bijective in the accumulator *and* in the word, so a single-bit flip
//! anywhere provably changes the sum: the step that absorbs the flipped
//! word leaves a different state, and every later step (and the
//! splitmix64 finalizer) maps different states to different states.
//!
//! One accumulator would make that a chain of dependent multiplies, and
//! on page-sized records the chain's latency is the whole cost. Inputs
//! of 64 bytes or more therefore run eight lanes over 64-byte blocks
//! (word `i` of each block goes to lane `i`), so the eight chains
//! overlap; the lanes then fold into the accumulator in lane order, and
//! the tail (whole words, then the zero-padded remainder), the length
//! fold and the finalizer run on the one accumulator. Shorter inputs —
//! most request frames — never touch the lanes and pay one chain. The
//! bit-flip argument holds lane by lane: a flip changes its lane's final
//! state, and the in-order fold is bijective in each lane.
//!
//! Only self-consistency matters: every sum is checked by this same
//! function, and both codecs refuse the bytes of an older checksum by
//! their header (journal magic, protocol version), not by a second
//! reader.
//!
//! [`Checksum`] computes the same sum over bytes fed in pieces, so a
//! writer can seal a frame it streams out without holding it whole.
//! Whether the lanes run depends on the total length, which a stream
//! knows only at the end; the lanes therefore always absorb each whole
//! block, and [`Checksum::finish`] folds them in only when at least one
//! block arrived, exactly as the one-shot path does.

/// The multiplier of the absorb step (the golden ratio, odd).
const M: u64 = 0x9E37_79B9_7F4A_7C15;

/// Parallel accumulators over a block.
const LANES: usize = 8;

/// Bytes per block: one word per lane. Inputs shorter than this take
/// the one-lane path.
const BLOCK: usize = 8 * LANES;

/// One absorb step: bijective in `h` for a fixed `w`, and in `w` for a
/// fixed `h`.
#[inline(always)]
fn absorb(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(M);
    h ^ (h >> 29)
}

#[inline(always)]
fn word(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8"))
}

/// The last `rem` (< 8) bytes of `bytes` as a zero-padded little-endian
/// word. With a whole word behind them it is one load and a shift, not
/// a copy of a variable-length slice.
#[inline(always)]
fn tail_word(bytes: &[u8], rem: usize) -> u64 {
    let n = bytes.len();
    if n >= 8 {
        word(&bytes[n - 8..]) >> (8 * (8 - rem))
    } else {
        bytes[n - rem..]
            .iter()
            .enumerate()
            .fold(0, |w, (i, b)| w | u64::from(*b) << (8 * i))
    }
}

/// The lanes' starting states: distinct, so no lane mirrors another.
#[inline(always)]
fn lanes_init(seed: u64) -> [u64; LANES] {
    std::array::from_fn(|i| seed ^ (i as u64).wrapping_mul(M))
}

/// Absorb one whole block, word `i` into lane `i`.
#[inline(always)]
fn absorb_block(lanes: &mut [u64; LANES], b: &[u8]) {
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = absorb(*lane, word(&b[8 * i..8 * i + 8]));
    }
}

/// The steps after the blocks: `rest` (the last `< BLOCK` bytes of
/// `bytes`) as whole words, then the zero-padded remainder, the length
/// fold and the finalizer.
#[inline(always)]
fn close(mut h: u64, bytes: &[u8], rest: usize, len: u64) -> u64 {
    let mut words = bytes[bytes.len() - rest..].chunks_exact(8);
    for w in &mut words {
        h = absorb(h, word(w));
    }
    let rem = words.remainder().len();
    if rem != 0 {
        h = absorb(h, tail_word(bytes, rem));
    }
    h ^= len;
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// The 64-bit checksum of `bytes` under `seed`. See the module docs.
pub fn checksum(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    let mut blocks = bytes.chunks_exact(BLOCK);
    if bytes.len() >= BLOCK {
        let mut lanes = lanes_init(seed);
        for b in &mut blocks {
            absorb_block(&mut lanes, b);
        }
        for lane in lanes {
            h = absorb(h, lane);
        }
    }
    close(h, bytes, blocks.remainder().len(), bytes.len() as u64)
}

/// [`checksum`] over bytes that arrive in pieces: feeding a byte string
/// through [`update`](Self::update) in any split, then calling
/// [`finish`](Self::finish), gives `checksum(seed, whole)`. It holds at
/// most one partial block, so it never allocates.
#[derive(Debug, Clone)]
pub struct Checksum {
    seed: u64,
    lanes: [u64; LANES],
    /// The current partial block; `buf[..fill]` is live.
    buf: [u8; BLOCK],
    fill: usize,
    len: u64,
}

impl Checksum {
    /// An empty sum under `seed`.
    pub fn new(seed: u64) -> Self {
        Checksum {
            seed,
            lanes: lanes_init(seed),
            buf: [0; BLOCK],
            fill: 0,
            len: 0,
        }
    }

    /// Absorb the next piece of the input.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.fill > 0 {
            let n = (BLOCK - self.fill).min(bytes.len());
            self.buf[self.fill..self.fill + n].copy_from_slice(&bytes[..n]);
            self.fill += n;
            bytes = &bytes[n..];
            if self.fill < BLOCK {
                return;
            }
            absorb_block(&mut self.lanes, &self.buf);
            self.fill = 0;
        }
        // The lanes pass in and out one by one through `black_box`.
        // Loaded and stored as one array, they let the compiler turn the
        // block loop into two-lane SSE2 vectors, whose emulated 64-bit
        // multiply made the loop twice as slow as the one-shot sum's.
        let mut lanes: [u64; LANES] = std::array::from_fn(|i| std::hint::black_box(self.lanes[i]));
        let mut blocks = bytes.chunks_exact(BLOCK);
        for b in &mut blocks {
            absorb_block(&mut lanes, b);
        }
        for (kept, lane) in self.lanes.iter_mut().zip(lanes) {
            *kept = std::hint::black_box(lane);
        }
        let rest = blocks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.fill = rest.len();
    }

    /// The sum of everything absorbed.
    pub fn finish(&self) -> u64 {
        let mut h = self.seed;
        if self.len >= BLOCK as u64 {
            for lane in self.lanes {
                h = absorb(h, lane);
            }
        }
        close(h, &self.buf[..self.fill], self.fill, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two codecs' seeds (`journal::wire`, `server::wire`).
    const JOURNAL: u64 = 0xcbf2_9ce4_8422_2325;
    const SERVER: u64 = 0x5114_2b5c_9e1e_f00d;

    /// Distinct, non-periodic bytes.
    fn bytes(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(151).wrapping_add(7))
            .collect()
    }

    #[test]
    fn every_single_bit_flip_changes_the_sum() {
        // 0..=257 crosses the word, block and tail edges: 8-byte words,
        // the 64-byte lane path, and every tail length after 1-4 blocks.
        for len in 0..=257 {
            let b = bytes(len);
            let base = checksum(JOURNAL, &b);
            for byte in 0..len {
                for bit in 0..8 {
                    let mut bad = b.clone();
                    bad[byte] ^= 1 << bit;
                    assert_ne!(
                        checksum(JOURNAL, &bad),
                        base,
                        "len {len}: flip of byte {byte} bit {bit} kept the sum"
                    );
                }
            }
        }
    }

    #[test]
    fn swapping_words_across_lanes_changes_the_sum() {
        for len in [64, 128, 200] {
            let b = bytes(len);
            let base = checksum(SERVER, &b);
            // Word 0 (lane 0) against every other lane of the first
            // block, and lane 1 of block 0 against lane 5 of block 1.
            let mut pairs: Vec<(usize, usize)> = (1..LANES).map(|j| (0, 8 * j)).collect();
            if len >= 2 * BLOCK {
                pairs.push((8, BLOCK + 40));
            }
            for (a, c) in pairs {
                let mut s = b.clone();
                for k in 0..8 {
                    s.swap(a + k, c + k);
                }
                assert_ne!(s, b);
                assert_ne!(
                    checksum(SERVER, &s),
                    base,
                    "len {len}: swap of words at {a} and {c}"
                );
            }
        }
    }

    #[test]
    fn appending_zero_bytes_changes_the_sum() {
        for len in 0..=200 {
            let b = bytes(len);
            let base = checksum(JOURNAL, &b);
            for extra in 1..=16 {
                let mut longer = b.clone();
                longer.resize(len + extra, 0);
                assert_ne!(
                    checksum(JOURNAL, &longer),
                    base,
                    "len {len} + {extra} zeros"
                );
            }
        }
    }

    #[test]
    fn the_two_seeds_give_different_sums() {
        for len in 0..=257 {
            let b = bytes(len);
            assert_ne!(checksum(JOURNAL, &b), checksum(SERVER, &b), "len {len}");
        }
    }

    #[test]
    fn incremental_sum_equals_the_one_shot_sum_under_any_split() {
        // Every length across the word, block and tail edges, each cut
        // into random pieces (empty ones included).
        crate::rng::check_seeds(8, |rng| {
            for len in 0..=257 {
                let b = bytes(len);
                let mut sum = Checksum::new(JOURNAL);
                let mut at = 0;
                while at < len {
                    let n = rng.random_range(0..(len - at).min(80) + 1);
                    sum.update(&b[at..at + n]);
                    at += n;
                }
                assert_eq!(sum.finish(), checksum(JOURNAL, &b), "len {len}");
            }
        });
        assert_eq!(Checksum::new(SERVER).finish(), checksum(SERVER, &[]));
    }

    #[test]
    fn pinned_values() {
        // 100 bytes: one block on the lanes, four tail words, a 4-byte
        // remainder. A change to any step of the function moves these.
        let b = bytes(100);
        assert_eq!(checksum(JOURNAL, &b), 0x4350_fe03_2cc7_8d5f);
        assert_eq!(checksum(SERVER, &b), 0x5114_f0ce_7280_c465);
    }
}
