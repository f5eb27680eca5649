//! The benchmark's own op generator.
//!
//! Deliberately independent of `atomfs-workloads`, `atomfs-bench` and
//! `rand`: the program under test receives only what this file
//! generates, so a later PR to those crates cannot move the yardstick.
//!
//! A stream is a pure function of `(workload, seed, thread)`. Each
//! generator carries a model of the files its thread owns (which exist,
//! how long they are, how much of them holds pattern bytes), so every
//! op it emits succeeds and every read carries its own expected result.
//! Ownership is per thread — file names carry the thread id — which is
//! what makes the final tree independent of the interleaving. The one
//! exception is [`Workload::LocalRenameChecked`], where both threads
//! fight over twelve names on purpose and `ENOENT`/`EEXIST` are expected.

use crate::spec::Workload;

/// SplitMix64 (Steele, Lea, Flood 2014).
#[derive(Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n` is far below 2^32 here, so
    /// the bias is below 2^-32).
    #[inline]
    pub fn below(&mut self, n: u32) -> u32 {
        debug_assert!(n > 0);
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }
}

/// Largest single transfer any workload issues.
pub const MAX_IO: usize = 8192;
const PATTERN_LEN: usize = 1 << 16;

/// File contents: byte `pos` of logical file `fid` is
/// `bytes[(fid * 4099 + pos) % 64 KiB]`. The table repeats its head past
/// the end, so every transfer is one contiguous slice — writes pass the
/// slice itself and read checks are one `memcmp`, keeping the client's
/// own cost per op to a few nanoseconds.
pub struct Pattern {
    bytes: Vec<u8>,
}

impl Pattern {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix::new(seed ^ 0x7061_7474_6572_6e00);
        let mut bytes = Vec::with_capacity(PATTERN_LEN + MAX_IO);
        while bytes.len() < PATTERN_LEN {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        bytes.extend_from_within(..MAX_IO);
        Pattern { bytes }
    }

    #[inline]
    pub fn slice(&self, fid: u32, pos: u64, len: usize) -> &[u8] {
        assert!(len <= MAX_IO);
        let start = ((fid as u64 * 4099 + pos) % PATTERN_LEN as u64) as usize;
        &self.bytes[start..start + len]
    }

    /// Whether `got` is what a read at `off` must return from a file of
    /// `size` bytes whose first `valid` bytes hold the pattern and whose
    /// rest (a truncate-extended tail) reads as zeroes.
    pub fn matches(&self, fid: u32, off: u64, valid: u64, got: &[u8]) -> bool {
        let pat_len = (valid.saturating_sub(off) as usize).min(got.len());
        got[..pat_len] == *self.slice(fid, off, pat_len) && got[pat_len..].iter().all(|&b| b == 0)
    }
}

/// Index into a [`Layout`]'s path table.
pub type PathId = u32;

/// One generated operation. Paths are table indices so the stream is
/// compact and comparable; `fid` names the logical file whose pattern the
/// bytes follow (it survives renames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Mknod {
        path: PathId,
    },
    Unlink {
        path: PathId,
    },
    Rename {
        src: PathId,
        dst: PathId,
    },
    /// `size` is the expected `st_size` (unchecked on the contended mix).
    Stat {
        path: PathId,
        size: u32,
    },
    Readdir {
        dir: PathId,
    },
    /// Expect `min(len, size - off)` bytes: pattern below `valid`, zero above.
    Read {
        path: PathId,
        fid: u32,
        off: u32,
        len: u32,
        size: u32,
        valid: u32,
    },
    Write {
        path: PathId,
        fid: u32,
        off: u32,
        len: u32,
    },
    Truncate {
        path: PathId,
        size: u32,
    },
    Sync,
    /// FD session, four round trips: open, pwrite, pread, close.
    FdOpen {
        path: PathId,
    },
    FdWrite {
        fid: u32,
        off: u32,
        len: u32,
    },
    FdRead {
        fid: u32,
        off: u32,
        len: u32,
        size: u32,
        valid: u32,
    },
    FdClose,
}

impl Op {
    /// Whether the op changes the tree (the reference replay skips the rest).
    pub fn mutates(&self) -> bool {
        !matches!(
            self,
            Op::Stat { .. } | Op::Readdir { .. } | Op::Read { .. } | Op::Sync | Op::FdRead { .. }
        )
    }
}

/// A file the set-up phase creates before the first op.
pub struct Seeded {
    pub path: PathId,
    pub fid: u32,
    pub size: u32,
}

/// The tree a workload starts from and the names its ops use.
pub struct Layout {
    pub dirs: Vec<String>,
    pub paths: Vec<String>,
    pub seeded: Vec<Seeded>,
}

/// Client threads / connections. `nproc` is 2 on the reference host;
/// fixed, never auto-scaled, and stamped into every result.
pub const CLIENTS: usize = 2;

// ---- local_meta: Fileserver personality -------------------------------
const META_DIRS: u32 = 128;
const META_FILES_PER_DIR: u32 = 32;
const META_FILE_SIZE: u32 = 4096;

// ---- local_write_sync --------------------------------------------------
const WS_DIRS: u32 = 16;
const WS_FILES: u32 = 128; // per thread
/// Files are one 4 KiB block and never outgrow it: a traced AtomFs logs
/// a file's whole old and new contents on every write, so the journal
/// takes 2 x file size per overwrite whatever the write's length.
const WS_FILE_SIZE: u32 = 4 << 10;
/// `sync()` after this many ops of a thread.
pub const SYNC_EVERY: u32 = 16;

// ---- local_rename_checked ---------------------------------------------
const RC_DIRS: u32 = 3;
const RC_NAMES: u32 = 4;

// ---- rpc_serial_mixed --------------------------------------------------
const SM_DIRS: u32 = 64;
const SM_FILES_PER_DIR: u32 = 64; // per connection: 64 x 128 files in all
const SM_FILE_SIZE: u32 = 4096;

// ---- rpc_pipelined_read ------------------------------------------------
const PR_DIRS: u32 = 16;
const PR_FILES_PER_DIR: u32 = 64;
const PR_FILE_SIZE: u32 = 1024;
const PR_READ: u32 = 256;

impl Layout {
    pub fn of(w: Workload) -> Layout {
        let mut l = Layout {
            dirs: Vec::new(),
            paths: Vec::new(),
            seeded: Vec::new(),
        };
        match w {
            Workload::LocalMeta => {
                for d in 0..META_DIRS {
                    l.dirs.push(format!("/d{d:03}"));
                }
                // Shared, read-only after set-up: ids 0..4096.
                for d in 0..META_DIRS {
                    for f in 0..META_FILES_PER_DIR {
                        let path = l.push(format!("/d{d:03}/f{f:02}"));
                        l.seeded.push(Seeded {
                            path,
                            fid: path,
                            size: META_FILE_SIZE,
                        });
                    }
                }
                // Per-thread scratch name in every directory.
                for t in 0..CLIENTS {
                    for d in 0..META_DIRS {
                        l.push(format!("/d{d:03}/n{t}"));
                    }
                }
            }
            Workload::LocalWriteSync => {
                for d in 0..WS_DIRS {
                    l.dirs.push(format!("/w{d:02}"));
                }
                for t in 0..CLIENTS as u32 {
                    // Home A (seeded), then home B in another directory
                    // (cross-directory rename toggles between the two).
                    for f in 0..WS_FILES {
                        let path = l.push(format!("/w{:02}/t{t}_{f:03}", f % WS_DIRS));
                        l.seeded.push(Seeded {
                            path,
                            fid: path,
                            size: WS_FILE_SIZE,
                        });
                    }
                    for f in 0..WS_FILES {
                        l.push(format!("/w{:02}/t{t}_{f:03}r", (f + 5) % WS_DIRS));
                    }
                    for d in 0..WS_DIRS {
                        l.push(format!("/w{d:02}/t{t}_tmp"));
                    }
                }
            }
            Workload::LocalRenameChecked => {
                for d in 0..RC_DIRS {
                    l.dirs.push(format!("/r{d}"));
                }
                for d in 0..RC_DIRS {
                    for n in 0..RC_NAMES {
                        l.push(format!("/r{d}/{}", (b'a' + n as u8) as char));
                    }
                }
            }
            Workload::RpcSerialMixed => {
                for d in 0..SM_DIRS {
                    l.dirs.push(format!("/d{d:02}"));
                }
                for c in 0..CLIENTS as u32 {
                    for d in 0..SM_DIRS {
                        for f in 0..SM_FILES_PER_DIR {
                            let path = l.push(format!("/d{d:02}/c{c}_f{f:02}"));
                            l.seeded.push(Seeded {
                                path,
                                fid: path,
                                size: SM_FILE_SIZE,
                            });
                        }
                    }
                }
            }
            Workload::RpcPipelinedRead => {
                for d in 0..PR_DIRS {
                    l.dirs.push(format!("/p{d:02}"));
                }
                for d in 0..PR_DIRS {
                    for f in 0..PR_FILES_PER_DIR {
                        let path = l.push(format!("/p{d:02}/f{f:02}"));
                        l.seeded.push(Seeded {
                            path,
                            fid: path,
                            size: PR_FILE_SIZE,
                        });
                    }
                }
            }
        }
        l
    }

    fn push(&mut self, path: String) -> PathId {
        self.paths.push(path);
        (self.paths.len() - 1) as PathId
    }
}

/// Model of one file a thread owns.
#[derive(Clone, Copy)]
struct FileState {
    path: PathId,
    fid: u32,
    size: u32,
    /// Bytes `0..valid` hold the pattern; `valid..size` read as zeroes.
    valid: u32,
}

impl FileState {
    /// A write of `len` at `off <= valid` leaves no hole.
    fn wrote(&mut self, off: u32, len: u32) {
        debug_assert!(off <= self.valid);
        self.valid = self.valid.max(off + len);
        self.size = self.size.max(off + len);
    }
}

/// Deterministic op stream of one client thread.
pub struct OpGen {
    workload: Workload,
    thread: u32,
    rng: SplitMix,
    /// Ops of the current draw not yet handed out (a draw may emit
    /// several, e.g. `mknod` + `unlink`), stored reversed.
    pending: Vec<Op>,
    emitted: u64,
    files: Vec<FileState>,
    /// `rpc_serial_mixed`: names of this connection with no file behind them.
    absent: Vec<PathId>,
}

impl OpGen {
    pub fn new(workload: Workload, seed: u64, thread: usize) -> Self {
        let t = thread as u32;
        // Streams of different workloads and threads must not correlate.
        let mut rng = SplitMix::new(seed ^ ((workload as u64 + 1) << 56) ^ ((t as u64 + 1) << 48));
        rng.next_u64();
        let seeded = |base: u32, n: u32, size: u32| -> Vec<FileState> {
            (base..base + n)
                .map(|p| FileState {
                    path: p,
                    fid: p,
                    size,
                    valid: size,
                })
                .collect()
        };
        let files = match workload {
            Workload::LocalWriteSync => {
                seeded(t * (2 * WS_FILES + WS_DIRS), WS_FILES, WS_FILE_SIZE)
            }
            Workload::RpcSerialMixed => {
                let n = SM_DIRS * SM_FILES_PER_DIR;
                seeded(t * n, n, SM_FILE_SIZE)
            }
            _ => Vec::new(),
        };
        OpGen {
            workload,
            thread: t,
            rng,
            pending: Vec::new(),
            emitted: 0,
            files,
            absent: Vec::new(),
        }
    }

    pub fn next_op(&mut self) -> Op {
        if self.workload == Workload::LocalWriteSync
            && self.emitted % SYNC_EVERY as u64 == SYNC_EVERY as u64 - 1
        {
            self.emitted += 1;
            return Op::Sync;
        }
        if self.pending.is_empty() {
            match self.workload {
                Workload::LocalMeta => self.draw_local_meta(),
                Workload::LocalWriteSync => self.draw_write_sync(),
                Workload::LocalRenameChecked => self.draw_rename_checked(),
                Workload::RpcSerialMixed => self.draw_serial_mixed(),
                Workload::RpcPipelinedRead => self.draw_pipelined_read(),
            }
            self.pending.reverse();
        }
        self.emitted += 1;
        self.pending
            .pop()
            .expect("every draw emits at least one op")
    }

    /// create + write 4 KiB, append 1 KiB, whole-file read, stat, unlink.
    fn draw_local_meta(&mut self) {
        let shared = META_DIRS * META_FILES_PER_DIR;
        let dir = self.rng.below(META_DIRS);
        let path = shared + self.thread * META_DIRS + dir;
        let other = self.rng.below(shared);
        self.pending.extend([
            Op::Mknod { path },
            Op::Write {
                path,
                fid: path,
                off: 0,
                len: 4096,
            },
            Op::Write {
                path,
                fid: path,
                off: 4096,
                len: 1024,
            },
            Op::Read {
                path,
                fid: path,
                off: 0,
                len: MAX_IO as u32,
                size: 5120,
                valid: 5120,
            },
            Op::Stat {
                path: other,
                size: META_FILE_SIZE,
            },
            Op::Unlink { path },
        ]);
    }

    /// 60 % 4 KiB overwrite, 10 % truncate/extend, 10 % mknod+unlink,
    /// 5 % cross-directory rename, 15 % read (`next_op` adds the syncs).
    fn draw_write_sync(&mut self) {
        let i = self.rng.below(WS_FILES) as usize;
        let roll = self.rng.below(100);
        let f = &mut self.files[i];
        if roll < 60 {
            f.wrote(0, WS_FILE_SIZE);
            self.pending.push(Op::Write {
                path: f.path,
                fid: f.fid,
                off: 0,
                len: WS_FILE_SIZE,
            });
        } else if roll < 70 {
            let size = 512 * self.rng.below(WS_FILE_SIZE / 512 + 1);
            f.size = size;
            f.valid = f.valid.min(size);
            self.pending.push(Op::Truncate { path: f.path, size });
        } else if roll < 80 {
            let base = self.thread * (2 * WS_FILES + WS_DIRS) + 2 * WS_FILES;
            let path = base + self.rng.below(WS_DIRS);
            self.pending
                .extend([Op::Mknod { path }, Op::Unlink { path }]);
        } else if roll < 85 {
            // Home A is `base + i`, home B is `base + WS_FILES + i`.
            let base = self.thread * (2 * WS_FILES + WS_DIRS);
            let home_a = base + i as u32;
            let dst = if f.path == home_a {
                home_a + WS_FILES
            } else {
                home_a
            };
            self.pending.push(Op::Rename { src: f.path, dst });
            f.path = dst;
        } else {
            let (path, fid, size, valid) = (f.path, f.fid, f.size, f.valid);
            self.pending.push(Op::Read {
                path,
                fid,
                off: 0,
                len: WS_FILE_SIZE,
                size,
                valid,
            });
        }
    }

    /// Contended mix over 3 dirs x 4 names, 3/13 renames. Namespace ops
    /// and `readdir` only: with one 512 B write in thirteen ops the live
    /// checker reports `AbstractionRelation` violations on about one
    /// round in three (README "Findings"), and a benchmark needs
    /// workloads on which nothing fails. Files are therefore always
    /// empty here.
    fn draw_rename_checked(&mut self) {
        let names = RC_DIRS * RC_NAMES;
        let path = self.rng.below(names);
        let op = match self.rng.below(13) {
            0..=2 => Op::Rename {
                src: path,
                dst: self.rng.below(names),
            },
            3..=6 => Op::Mknod { path },
            7..=10 => Op::Unlink { path },
            _ => Op::Readdir {
                dir: self.rng.below(RC_DIRS),
            },
        };
        self.pending.push(op);
    }

    /// 30 % stat, 25 % 4 KiB read, 15 % 1 KiB write, 7 % mknod, 7 % unlink,
    /// 5 % rename, 5 % readdir, 5 % FD session, 1 % sync.
    fn draw_serial_mixed(&mut self) {
        let roll = self.rng.below(100);
        // Keep at least half the names populated so reads never starve.
        let may_remove = self.files.len() > (SM_DIRS * SM_FILES_PER_DIR / 2) as usize;
        let i = self.rng.below(self.files.len() as u32) as usize;
        let f = self.files[i];
        match roll {
            0..=29 => self.pending.push(Op::Stat {
                path: f.path,
                size: f.size,
            }),
            30..=54 => self.pending.push(Op::Read {
                path: f.path,
                fid: f.fid,
                off: 0,
                len: 4096,
                size: f.size,
                valid: f.valid,
            }),
            55..=69 => {
                let off = 1024 * self.rng.below((f.valid / 1024).min(3) + 1);
                self.files[i].wrote(off, 1024);
                self.pending.push(Op::Write {
                    path: f.path,
                    fid: f.fid,
                    off,
                    len: 1024,
                });
            }
            70..=76 if !self.absent.is_empty() => {
                let k = self.rng.below(self.absent.len() as u32) as usize;
                let path = self.absent.swap_remove(k);
                self.files.push(FileState {
                    path,
                    fid: path,
                    size: 0,
                    valid: 0,
                });
                self.pending.push(Op::Mknod { path });
            }
            77..=83 if may_remove => {
                self.files.swap_remove(i);
                self.absent.push(f.path);
                self.pending.push(Op::Unlink { path: f.path });
            }
            84..=88 if !self.absent.is_empty() => {
                let k = self.rng.below(self.absent.len() as u32) as usize;
                let dst = std::mem::replace(&mut self.absent[k], f.path);
                self.files[i].path = dst;
                self.pending.push(Op::Rename { src: f.path, dst });
            }
            89..=93 => self.pending.push(Op::Readdir {
                dir: self.rng.below(SM_DIRS),
            }),
            94..=98 => {
                let off = 1024 * self.rng.below((f.valid / 1024).min(3) + 1);
                self.files[i].wrote(off, 1024);
                let after = self.files[i];
                self.pending.extend([
                    Op::FdOpen { path: f.path },
                    Op::FdWrite {
                        fid: f.fid,
                        off,
                        len: 1024,
                    },
                    Op::FdRead {
                        fid: f.fid,
                        off,
                        len: 1024,
                        size: after.size,
                        valid: after.valid,
                    },
                    Op::FdClose,
                ]);
            }
            99 => self.pending.push(Op::Sync),
            // A guarded arm that could not fire (nothing absent yet, or
            // too few files left): a stat keeps the op count per draw.
            _ => self.pending.push(Op::Stat {
                path: f.path,
                size: f.size,
            }),
        }
    }

    /// 70 % stat, 30 % 256 B read over 16 dirs x 64 shared files.
    fn draw_pipelined_read(&mut self) {
        let path = self.rng.below(PR_DIRS * PR_FILES_PER_DIR);
        let op = if self.rng.below(10) < 7 {
            Op::Stat {
                path,
                size: PR_FILE_SIZE,
            }
        } else {
            Op::Read {
                path,
                fid: path,
                off: 0,
                len: PR_READ,
                size: PR_FILE_SIZE,
                valid: PR_FILE_SIZE,
            }
        };
        self.pending.push(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(w: Workload, seed: u64, thread: usize, n: usize) -> Vec<Op> {
        let mut g = OpGen::new(w, seed, thread);
        (0..n).map(|_| g.next_op()).collect()
    }

    #[test]
    fn equal_seeds_give_identical_streams_and_patterns() {
        for w in Workload::ALL {
            assert_eq!(stream(w, 7, 0, 5000), stream(w, 7, 0, 5000), "{w:?}");
        }
        assert_eq!(Pattern::new(7).bytes, Pattern::new(7).bytes);
    }

    #[test]
    fn other_seed_or_thread_gives_another_stream() {
        for w in Workload::ALL {
            assert_ne!(stream(w, 7, 0, 5000), stream(w, 8, 0, 5000), "{w:?} seed");
            assert_ne!(stream(w, 7, 0, 5000), stream(w, 7, 1, 5000), "{w:?} thread");
        }
        assert_ne!(Pattern::new(7).bytes, Pattern::new(8).bytes);
    }

    #[test]
    fn write_sync_syncs_every_sixteen_ops() {
        let ops = stream(Workload::LocalWriteSync, 3, 0, 16 * 200);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(*op == Op::Sync, i % 16 == 15, "op {i}: {op:?}");
        }
    }

    #[test]
    fn pattern_check_accepts_zero_tail_and_rejects_damage() {
        let p = Pattern::new(1);
        let mut buf = p.slice(9, 4096, 1024).to_vec();
        assert!(p.matches(9, 4096, 8192, &buf));
        buf[100] ^= 1;
        assert!(!p.matches(9, 4096, 8192, &buf));
        // Pattern up to byte 4608, zeroes after.
        let mut tail = p.slice(9, 4096, 512).to_vec();
        tail.extend_from_slice(&[0; 512]);
        assert!(p.matches(9, 4096, 4608, &tail));
        assert!(!p.matches(9, 4096, 8192, &tail));
    }

    #[test]
    fn layouts_have_unique_paths_under_known_dirs() {
        for w in Workload::ALL {
            let l = Layout::of(w);
            let mut sorted = l.paths.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), l.paths.len(), "{w:?}");
            for p in &l.paths {
                let dir = &p[..p.rfind('/').unwrap()];
                assert!(l.dirs.iter().any(|d| d == dir), "{w:?}: {p}");
            }
        }
    }
}
