//! Seeded property tests on the core data structures and invariants.
//! Each property runs over seeds `0..CASES` through
//! [`check_seeds`], drawing its input from a [`SplitMix64`]; a failure
//! names its seed. Inputs that once failed are named tests below.
//!
//! * **differential**: random op scripts agree between AtomFS and the
//!   sequential oracle `SeqFs` (the CRL-H abstract specification behind
//!   a mutex, its effects applied in place by `crlh::afs::step`), and
//!   between AtomFS and the checker's own `crlh::afs::apply_aop` (the
//!   same specification, its effects recorded as micro-ops);
//! * **roll-back**: applying random valid micro-op sequences and
//!   unapplying them in reverse is the identity — the soundness core of
//!   the abstraction relation; a file's extents agree with whole-file
//!   replacement and each inverts to the file before it;
//! * **paths**: normalization is idempotent and round-trips;
//! * **directory index**: a directory's hashed index behaves like a
//!   model map;
//! * **sequential refinement**: single-threaded AtomFS traces replayed
//!   through the full checker are always clean, and the final abstract
//!   state matches the shadow concrete state exactly.

use std::sync::Arc;

use atomfs::fastdir::FastDir;
use atomfs::table::{InodeRef, InodeSlot};
use atomfs::AtomFs;
use atomfs_baselines::SeqFs;
use atomfs_trace::{BufferSink, MicroOp, TraceSink, ROOT_INUM};
use atomfs_vfs::path::{is_prefix, normalize, to_string};
use atomfs_vfs::rng::check_seeds;
use atomfs_vfs::{FileSystem, FileType, SplitMix64};
use crlh::state::{FsState, Node};
use crlh::{CheckerConfig, HelperMode, LpChecker, RelationCadence};

/// Seeds per property.
const CASES: u64 = 64;

/// A small alphabet of operations over a bounded namespace.
#[derive(Debug, Clone)]
enum Op {
    Mknod(u8, u8),
    Mkdir(u8, u8),
    Unlink(u8, u8),
    Rmdir(u8, u8),
    Rename(u8, u8, u8, u8),
    Write(u8, u8, u8),
    Truncate(u8, u8, u8),
    Stat(u8, u8),
    Readdir(u8),
    Read(u8, u8, u8),
}

fn path(d: u8, n: u8) -> String {
    format!("/dir{}/f{}", d % 3, n % 4)
}

fn dirpath(d: u8) -> String {
    format!("/dir{}", d % 3)
}

fn byte(rng: &mut SplitMix64) -> u8 {
    rng.next_u64() as u8
}

fn gen_op(rng: &mut SplitMix64) -> Op {
    let mut b = || byte(rng);
    match b() % 10 {
        0 => Op::Mknod(b(), b()),
        1 => Op::Mkdir(b(), b()),
        2 => Op::Unlink(b(), b()),
        3 => Op::Rmdir(b(), b()),
        4 => Op::Rename(b(), b(), b(), b()),
        5 => Op::Write(b(), b(), b()),
        6 => Op::Truncate(b(), b(), b()),
        7 => Op::Stat(b(), b()),
        8 => Op::Readdir(b()),
        _ => Op::Read(b(), b(), b()),
    }
}

/// A script of `1..max_len` random ops.
fn gen_ops(rng: &mut SplitMix64, max_len: usize) -> Vec<Op> {
    let len = rng.random_range(1..max_len);
    (0..len).map(|_| gen_op(rng)).collect()
}

/// Execute one op, producing a comparable abstract result string.
fn exec(fs: &dyn FileSystem, op: &Op) -> String {
    match op {
        Op::Mknod(d, n) => format!("{:?}", fs.mknod(&path(*d, *n))),
        Op::Mkdir(d, n) => format!("{:?}", fs.mkdir(&path(*d, *n))),
        Op::Unlink(d, n) => format!("{:?}", fs.unlink(&path(*d, *n))),
        Op::Rmdir(d, n) => format!("{:?}", fs.rmdir(&path(*d, *n))),
        Op::Rename(a, b, c, d) => format!("{:?}", fs.rename(&path(*a, *b), &path(*c, *d))),
        Op::Write(d, n, k) => format!(
            "{:?}",
            fs.write(&path(*d, *n), u64::from(*k % 16), &[*k; 5])
        ),
        Op::Truncate(d, n, k) => {
            format!("{:?}", fs.truncate(&path(*d, *n), u64::from(*k % 32)))
        }
        Op::Stat(d, n) => format!("{:?}", fs.stat(&path(*d, *n)).map(|m| (m.ftype, m.size))),
        Op::Readdir(d) => format!(
            "{:?}",
            fs.readdir(&dirpath(*d)).map(|mut v| {
                v.sort();
                v
            })
        ),
        Op::Read(d, n, k) => {
            let mut buf = vec![0u8; usize::from(*k % 16) + 1];
            format!(
                "{:?}",
                fs.read(&path(*d, *n), u64::from(*k % 8), &mut buf)
                    .map(|x| {
                        buf.truncate(x);
                        buf
                    })
            )
        }
    }
}

fn setup(fs: &dyn FileSystem) {
    for d in 0..3 {
        fs.mkdir(&format!("/dir{d}")).unwrap();
    }
}

/// AtomFS and the sequential oracle, the abstract specification run
/// through `afs::step`, agree on every script.
fn agrees_with_oracle(ops: &[Op]) {
    let a = AtomFs::new();
    setup(&a);
    let b = SeqFs::new();
    setup(&b);
    for (i, op) in ops.iter().enumerate() {
        assert_eq!(exec(&a, op), exec(&b, op), "divergence at step {i}");
    }
}

#[test]
fn atomfs_matches_oracle() {
    check_seeds(CASES, |rng| agrees_with_oracle(&gen_ops(rng, 120)));
}

/// Sequential instrumented runs always check clean, and at quiescence
/// the abstract state equals the shadow concrete state (the identity
/// abstraction relation).
fn checks_clean_sequentially(ops: &[Op]) {
    let sink = Arc::new(BufferSink::new());
    let fs = AtomFs::traced(sink.clone() as Arc<dyn TraceSink>);
    setup(&fs);
    for op in ops {
        exec(&fs, op);
    }
    let report = LpChecker::check(
        CheckerConfig {
            mode: HelperMode::Helpers,
            relation: RelationCadence::EveryEvent,
            invariants: true,
        },
        &sink.take(),
    );
    assert!(report.is_ok(), "violations: {:?}", report.violations);
    assert_eq!(report.stats.helps, 0);
}

#[test]
fn sequential_traces_always_check_clean() {
    check_seeds(CASES, |rng| checks_clean_sequentially(&gen_ops(rng, 60)));
}

/// Applying a random valid micro-op sequence drawn from `rng` then
/// unapplying it in reverse restores the original state exactly.
fn rollback_roundtrips(rng: &mut SplitMix64, steps: usize) {
    let mut state = FsState::new();
    let mut applied: Vec<MicroOp> = Vec::new();
    let mut next = 100u64;
    for _ in 0..steps {
        // Build a random *valid* micro-op against the current state.
        let ids: Vec<u64> = state.map.keys().copied().collect();
        let pick = ids[rng.random_range(0..ids.len())];
        let op = match rng.random_range(0..4) {
            0 => {
                next += 1;
                MicroOp::Create {
                    ino: next,
                    ftype: if rng.random_bool(0.5) {
                        FileType::File
                    } else {
                        FileType::Dir
                    },
                }
            }
            1 => {
                // Insert an existing orphan under a directory.
                let dirs: Vec<u64> = state
                    .map
                    .iter()
                    .filter(|(_, n)| matches!(n, Node::Dir(_)))
                    .map(|(id, _)| *id)
                    .collect();
                let orphans: Vec<u64> = {
                    let reachable = state.reachable();
                    state
                        .map
                        .keys()
                        .copied()
                        .filter(|i| !reachable.contains(i))
                        .collect()
                };
                if orphans.is_empty() {
                    continue;
                }
                MicroOp::Ins {
                    parent: dirs[rng.random_range(0..dirs.len())],
                    name: format!("e{}", rng.random_range(0..1000u32)),
                    child: orphans[rng.random_range(0..orphans.len())],
                }
            }
            2 => match state.node(pick) {
                Some(Node::File(f)) => random_edit(rng, pick, f).0,
                _ => continue,
            },
            _ => {
                // Delete a random entry from a random directory.
                let entry = state.map.iter().find_map(|(id, n)| match n {
                    Node::Dir(d) => d
                        .iter()
                        .next()
                        .map(|(name, child)| (*id, name.clone(), *child)),
                    _ => None,
                });
                match entry {
                    Some((parent, name, child)) => MicroOp::Del {
                        parent,
                        name,
                        child,
                    },
                    None => continue,
                }
            }
        };
        // Ins may collide with an existing name; skip those.
        if state.apply_micro(&op).is_ok() {
            applied.push(op);
        }
    }
    let snapshot = state.clone();
    assert!(snapshot.map.contains_key(&ROOT_INUM));
    for op in applied.iter().rev() {
        state.unapply_micro(op).unwrap();
    }
    assert_eq!(state, FsState::new());
    // And replaying restores the snapshot.
    let mut replay = FsState::new();
    for op in &applied {
        replay.apply_micro(op).unwrap();
    }
    assert_eq!(replay, snapshot);
}

/// A random edit of file `ino`, whose bytes are `f`: a write (possibly
/// empty, or past the end), a truncate up or down, or a clear. Returns
/// the extent that records it and the file after it, as the spec's
/// byte edits compute it.
fn random_edit(rng: &mut SplitMix64, ino: u64, f: &[u8]) -> (MicroOp, Vec<u8>) {
    let len = f.len() as u64;
    let read = |r: std::ops::Range<u64>| f[r.start as usize..r.end as usize].to_vec();
    let mut after = f.to_vec();
    let op = match rng.random_range(0..4) {
        0 | 1 => {
            let off = rng.random_range(0..len + 16);
            let data = vec![byte(rng); rng.random_range(0..48)];
            crlh::afs::write_bytes(&mut after, off, &data).unwrap();
            MicroOp::write_extent(ino, len, off, &data, read)
        }
        2 => {
            let size = rng.random_range(0..len + 32);
            crlh::afs::truncate_bytes(&mut after, size).unwrap();
            MicroOp::resize_extent(ino, len, size, read)
        }
        _ => {
            after.clear();
            MicroOp::resize_extent(ino, len, 0, read)
        }
    };
    (op, after)
}

/// Random write/truncate/clear sequences give the same file through
/// extents as through whole-file replacement, each extent inverts to
/// the file before it, and unapplying every extent in reverse empties
/// the file again.
#[test]
fn extents_agree_with_whole_file_replacement() {
    check_seeds(CASES, |rng| {
        let create = MicroOp::Create {
            ino: 2,
            ftype: FileType::File,
        };
        let (mut by_extent, mut by_file) = (FsState::new(), FsState::new());
        by_extent.apply_micro(&create).unwrap();
        by_file.apply_micro(&create).unwrap();
        let file = |s: &FsState| s.node(2).and_then(Node::as_file).unwrap().clone();
        let mut extents = Vec::new();
        for _ in 0..rng.random_range(1..40) {
            let before = file(&by_extent);
            let (extent, after) = random_edit(rng, 2, &before);
            assert_eq!(extent.inverse().inverse(), extent);
            by_extent.apply_micro(&extent).unwrap();
            by_file
                .apply_micro(&MicroOp::replace(2, before.clone(), after.clone()))
                .unwrap();
            assert_eq!(file(&by_extent), after, "{extent}");
            assert_eq!(by_extent, by_file);
            let mut undone = by_extent.clone();
            undone.unapply_micro(&extent).unwrap();
            assert_eq!(file(&undone), before, "{extent} does not invert");
            extents.push(extent);
        }
        for extent in extents.iter().rev() {
            by_extent.unapply_micro(extent).unwrap();
        }
        assert_eq!(file(&by_extent), b"");
    });
}

#[test]
fn rollback_is_exact_inverse() {
    check_seeds(CASES, |rng| {
        let steps = rng.random_range(1..60);
        rollback_roundtrips(rng, steps)
    });
}

/// Path normalization is idempotent and `to_string ∘ normalize` is a
/// fixpoint, over `/`-joined parts drawn from `[a-z.]{0,6}`.
#[test]
fn normalize_idempotent() {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz.";
    check_seeds(CASES, |rng| {
        let parts: Vec<String> = (0..rng.random_range(0..8))
            .map(|_| {
                (0..rng.random_range(0..7))
                    .map(|_| char::from(ALPHABET[rng.random_range(0..ALPHABET.len())]))
                    .collect()
            })
            .collect();
        let raw = format!("/{}", parts.join("/"));
        if let Ok(c1) = normalize(&raw) {
            let printed = to_string(&c1);
            let c2 = normalize(&printed).unwrap();
            assert_eq!(&c1, &c2);
            assert_eq!(to_string(&c2), printed);
        }
    });
}

/// `is_prefix` is reflexive, transitive in chains, and monotone.
#[test]
fn prefix_laws() {
    check_seeds(CASES, |rng| {
        let v: Vec<u32> = (0..rng.random_range(0..10))
            .map(|_| rng.next_u64() as u32)
            .collect();
        let k = rng.random_range(0..v.len() + 1);
        assert!(is_prefix(&v[..k], &v));
        assert!(is_prefix(&v, &v));
    });
}

/// A directory's index behaves exactly like a model BTreeMap under
/// `(insert?, key, is_dir)` commands. Every insert links a fresh child
/// of the given type (numbered by step, never reused), so a hit must
/// return the very `InodeRef` inserted — not one a tombstone or a
/// retired table still points at.
fn fastdir_agrees_with_model(cmds: &[(bool, u16, bool)]) {
    let dir = FastDir::new();
    let mut model = std::collections::BTreeMap::<String, InodeRef>::new();
    for (step, &(insert, key, is_dir)) in cmds.iter().enumerate() {
        let name = format!("k{key}");
        if insert {
            let ftype = if is_dir {
                FileType::Dir
            } else {
                FileType::File
            };
            let child: InodeRef = Arc::new(InodeSlot::new(step as u64 + 2, ftype));
            let expect = !model.contains_key(&name);
            assert_eq!(dir.insert(&name, &child), expect);
            if expect {
                model.insert(name, child);
            }
        } else {
            let expect = model.remove(&name).map(|c| c.ino());
            assert_eq!(dir.remove(&name), expect);
        }
        assert_eq!(dir.len(), model.len());
        let expected_subdirs = model.values().filter(|c| c.dir().is_some()).count() as u32;
        assert_eq!(dir.subdirs(), expected_subdirs);
        let guard = atomfs::epoch::pin();
        for (k, child) in &model {
            let (ino, got) = dir.lookup(&guard, k).expect("model entry resolves");
            assert_eq!(ino, child.ino());
            assert!(Arc::ptr_eq(got, child), "{k} resolves to a stale child");
        }
    }
    let mut names = dir.names();
    names.sort();
    let expected: Vec<String> = model.keys().cloned().collect();
    assert_eq!(names, expected);
}

/// 400 to 1000 commands over 40 names: about one command in four
/// tombstones an entry, and with ~20 live entries the index compacts
/// every ~45 tombstones, so each run grows through several compactions.
#[test]
fn fastdir_matches_model() {
    check_seeds(CASES, |rng| {
        let cmds: Vec<(bool, u16, bool)> = (0..rng.random_range(400..1000))
            .map(|_| {
                (
                    rng.random_bool(0.5),
                    rng.random_range(0..40),
                    rng.random_bool(0.5),
                )
            })
            .collect();
        fastdir_agrees_with_model(&cmds);
    });
}

/// The abstract spec, as the checker applies it (`apply_aop`, which
/// also builds the undo effects), agrees with the concrete AtomFS on
/// sequential scripts: run ops on both, compare result strings.
fn spec_refines_concrete(ops: &[Op]) {
    use atomfs_trace::{OpDesc, OpRet};
    let fs = AtomFs::new();
    setup(&fs);
    let mut afs = FsState::new();
    let mut next_id = 1000u64;
    let mut alloc = |_ft: FileType| {
        next_id += 1;
        next_id
    };
    for d in 0..3 {
        let (_, ret, err) = crlh::afs::apply_aop(
            &mut afs,
            &OpDesc::Mkdir {
                path: vec![format!("dir{d}")],
            },
            &mut alloc,
        );
        assert_eq!(ret, OpRet::Ok);
        assert!(err.is_none());
    }
    for op in ops {
        let concrete = exec(&fs, op);
        let desc = desc_of(op);
        let (_, aret, err) = crlh::afs::apply_aop(&mut afs, &desc, &mut alloc);
        assert!(err.is_none());
        let abstract_str = ret_to_string(&desc, &aret);
        assert_eq!(&concrete, &abstract_str, "spec/impl divergence on {op:?}");
    }
}

#[test]
fn abstract_spec_refines_concrete() {
    check_seeds(CASES, |rng| spec_refines_concrete(&gen_ops(rng, 80)));
}

/// Once failed on the earlier chained-hash index (insert `k12` as a
/// file, remove the absent `k0`, remove `k12` with the wrong type flag):
/// removal must count the stored child's type, not the caller's.
#[test]
fn regression_fastdir_remove_uses_stored_child_type() {
    fastdir_agrees_with_model(&[(true, 12, false), (false, 0, false), (false, 12, true)]);
}

/// Once failed as `seed = 17080449011586566976, steps = 32`; that input
/// is kept, now drawn through `SplitMix64`.
#[test]
fn regression_rollback_seed_17080449011586566976() {
    rollback_roundtrips(&mut SplitMix64::new(17_080_449_011_586_566_976), 32);
}

/// Once failed: `mknod /dir0/f1`, `mknod /dir1/f0`, then `rename
/// /dir1/f0 /dir0/f1` — a cross-directory rename over an existing file.
/// Run through every op-script property.
#[test]
fn regression_cross_dir_rename_over_existing_file() {
    let ops = [
        Op::Mknod(78, 53),
        Op::Mknod(97, 72),
        Op::Rename(25, 44, 228, 237),
    ];
    agrees_with_oracle(&ops);
    checks_clean_sequentially(&ops);
    spec_refines_concrete(&ops);
}

/// Mirror `exec`'s formatting for abstract results so both sides compare.
fn ret_to_string(op: &atomfs_trace::OpDesc, ret: &atomfs_trace::OpRet) -> String {
    use atomfs_trace::{OpDesc, OpRet};
    match (op, ret) {
        (_, OpRet::Err(e)) => format!("Err({e:?})"),
        (OpDesc::Stat { .. }, OpRet::Stat(s)) => {
            let ft = if s.is_dir {
                FileType::Dir
            } else {
                FileType::File
            };
            format!("Ok(({ft:?}, {}))", s.size)
        }
        (OpDesc::Readdir { .. }, OpRet::Names(n)) => format!("Ok({n:?})"),
        (OpDesc::Read { .. }, OpRet::Data(d)) => format!("Ok({d:?})"),
        (OpDesc::Write { .. }, OpRet::Written(n)) => format!("Ok({n})"),
        (_, OpRet::Ok) => "Ok(())".to_string(),
        other => format!("unexpected {other:?}"),
    }
}

fn desc_of(op: &Op) -> atomfs_trace::OpDesc {
    use atomfs_trace::OpDesc;
    let comps = |d: u8, n: u8| normalize(&path(d, n)).unwrap();
    match op {
        Op::Mknod(d, n) => OpDesc::Mknod {
            path: comps(*d, *n),
        },
        Op::Mkdir(d, n) => OpDesc::Mkdir {
            path: comps(*d, *n),
        },
        Op::Unlink(d, n) => OpDesc::Unlink {
            path: comps(*d, *n),
        },
        Op::Rmdir(d, n) => OpDesc::Rmdir {
            path: comps(*d, *n),
        },
        Op::Rename(a, b, c, d) => OpDesc::Rename {
            src: comps(*a, *b),
            dst: comps(*c, *d),
        },
        Op::Write(d, n, k) => OpDesc::Write {
            path: comps(*d, *n),
            offset: u64::from(*k % 16),
            data: vec![*k; 5],
        },
        Op::Truncate(d, n, k) => OpDesc::Truncate {
            path: comps(*d, *n),
            size: u64::from(*k % 32),
        },
        Op::Stat(d, n) => OpDesc::Stat {
            path: comps(*d, *n),
        },
        Op::Readdir(d) => OpDesc::Readdir {
            path: normalize(&dirpath(*d)).unwrap(),
        },
        Op::Read(d, n, k) => OpDesc::Read {
            path: comps(*d, *n),
            offset: u64::from(*k % 8),
            len: usize::from(*k % 16) + 1,
        },
    }
}
