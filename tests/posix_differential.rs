//! Differential semantics testing: every file system in the workspace
//! implements the same POSIX semantics, so the same single-threaded
//! operation sequence must produce the *identical* result sequence on all
//! of them. The oracle is the CRL-H specification itself: `SeqFs` (also
//! the DFSCQ stand-in) runs `crlh::afs` behind a mutex, so these tests
//! check the checker's spec against POSIX as well as each backend
//! against the spec.

use atomfs::AtomFs;
use atomfs_baselines::{BigLockFs, RetryFs, RwTreeFs, SeqFs};
use atomfs_vfs::{FileSystem, FsError, SplitMix64};

/// An abstract result comparable across implementations (inode numbers
/// are implementation-specific and excluded).
#[derive(Debug, Clone, PartialEq, Eq)]
enum R {
    Unit(Result<(), FsError>),
    Stat(Result<(bool, u64), FsError>),
    Names(Result<Vec<String>, FsError>),
    Data(Result<Vec<u8>, FsError>),
    Len(Result<usize, FsError>),
}

fn run_script(fs: &dyn FileSystem, seed: u64, count: usize) -> Vec<R> {
    let mut rng = SplitMix64::new(seed);
    let mut results = Vec::with_capacity(count);
    let dirs = ["/d0", "/d1", "/d0/s", "/d1/s"];
    let path = |rng: &mut SplitMix64| {
        format!(
            "{}/n{}",
            dirs[rng.random_range(0..dirs.len())],
            rng.random_range(0..5)
        )
    };
    for i in 0..count {
        let a = path(&mut rng);
        let b = path(&mut rng);
        let r = match rng.random_range(0..13) {
            0 => R::Unit(fs.mknod(&a)),
            1 => R::Unit(fs.mkdir(&a)),
            2 => R::Unit(fs.unlink(&a)),
            3 => R::Unit(fs.rmdir(&a)),
            4 => R::Unit(fs.rename(&a, &b)),
            5 => R::Stat(fs.stat(&a).map(|m| (m.ftype.is_dir(), m.size))),
            6 => R::Names(fs.readdir(&a).map(|mut v| {
                v.sort();
                v
            })),
            7 => {
                let mut buf = vec![0u8; 24];
                R::Data(fs.read(&a, (i % 7) as u64, &mut buf).map(|n| {
                    buf.truncate(n);
                    buf
                }))
            }
            8 => R::Len(fs.write(&a, (i % 5) as u64, format!("w{i}").as_bytes())),
            9 => R::Unit(fs.truncate(&a, (i % 9) as u64)),
            10 => R::Unit(fs.rename(&a, &format!("{a}/sub"))), // EINVAL family
            // Parents that may be files or missing: walk errors against
            // the parents' type check.
            11 => R::Unit(fs.rename(&format!("{a}/x"), &format!("{b}/y"))),
            _ => R::Stat(
                fs.stat(&format!("{a}/deep/er"))
                    .map(|m| (m.ftype.is_dir(), m.size)),
            ),
        };
        results.push(r);
    }
    results
}

fn setup(fs: &dyn FileSystem) {
    for d in ["/d0", "/d1", "/d0/s", "/d1/s"] {
        fs.mkdir(d).unwrap();
    }
}

/// Every backend under test, each set up; the oracle is not among them.
fn candidates() -> Vec<(&'static str, Box<dyn FileSystem>)> {
    let all: Vec<(&str, Box<dyn FileSystem>)> = vec![
        ("atomfs", Box::new(AtomFs::new())),
        ("retryfs", Box::new(RetryFs::new())),
        ("rwtreefs", Box::new(RwTreeFs::new())),
        ("biglock", Box::new(BigLockFs::new(AtomFs::new()))),
    ];
    for (_, fs) in &all {
        setup(fs.as_ref());
    }
    all
}

fn diff_all(seed: u64, count: usize) {
    let oracle = SeqFs::new();
    setup(&oracle);
    let expected = run_script(&oracle, seed, count);
    for (name, fs) in candidates() {
        let got = run_script(fs.as_ref(), seed, count);
        for (i, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
            assert_eq!(
                g, e,
                "{name} diverged from the SeqFs oracle at step {i} (seed {seed})"
            );
        }
    }
}

#[test]
fn differential_small_seeds() {
    for seed in 0..10 {
        diff_all(seed, 400);
    }
}

#[test]
fn differential_long_run() {
    diff_all(777, 3000);
}

/// Once diverged: the oracle checked that the source parent is a
/// directory before it walked the destination branch, so it returned
/// `ENOTDIR` where AtomFS and the specification return `ENOENT`.
#[test]
fn regression_rename_under_a_file_to_a_missing_parent() {
    let oracle: (&str, Box<dyn FileSystem>) = ("seqfs", Box::new(SeqFs::new()));
    for (name, fs) in candidates().into_iter().chain([oracle]) {
        fs.mknod("/f").unwrap();
        assert_eq!(fs.rename("/f/x", "/m/n"), Err(FsError::NotFound), "{name}");
    }
}

/// Writes and truncates at the maximum file size and past it, including
/// offsets whose end wraps `u64`.
fn bound_script(fs: &dyn FileSystem) -> Vec<R> {
    const MAX: u64 = atomfs::blocks::MAX_FILE_SIZE;
    let f = "/d0/big";
    let stat = |fs: &dyn FileSystem| R::Stat(fs.stat(f).map(|m| (m.ftype.is_dir(), m.size)));
    let mut out = vec![R::Unit(fs.mknod(f))];
    for offset in [MAX - 1, MAX, u64::MAX - 1] {
        out.push(R::Len(fs.write(f, offset, b"x")));
        out.push(R::Len(fs.write(f, offset, b"xy")));
        out.push(stat(fs));
    }
    let mut buf = [0u8; 4];
    out.push(R::Data(
        fs.read(f, MAX - 1, &mut buf).map(|n| buf[..n].to_vec()),
    ));
    for size in [MAX + 1, u64::MAX, 2] {
        out.push(R::Unit(fs.truncate(f, size)));
        out.push(stat(fs));
    }
    out
}

#[test]
fn differential_file_size_bound() {
    use FsError::FileTooBig as Big;
    const MAX: u64 = atomfs::blocks::MAX_FILE_SIZE;
    let at_max = R::Stat(Ok((false, MAX)));
    let expected = {
        let oracle = SeqFs::new();
        setup(&oracle);
        bound_script(&oracle)
    };
    assert_eq!(
        expected,
        vec![
            R::Unit(Ok(())),
            R::Len(Ok(1)),
            R::Len(Err(Big)),
            at_max.clone(),
            R::Len(Err(Big)),
            R::Len(Err(Big)),
            at_max.clone(),
            R::Len(Err(Big)),
            R::Len(Err(Big)),
            at_max.clone(),
            R::Data(Ok(b"x".to_vec())),
            R::Unit(Err(Big)),
            at_max.clone(),
            R::Unit(Err(Big)),
            at_max,
            R::Unit(Ok(())),
            R::Stat(Ok((false, 2))),
        ],
        "SeqFs at the file-size bound"
    );
    // One candidate at a time: each holds a maximum-size file.
    let check = |name: &str, fs: &dyn FileSystem| {
        setup(fs);
        assert_eq!(bound_script(fs), expected, "{name} vs oracle");
    };
    check("atomfs", &AtomFs::new());
    check("retryfs", &RetryFs::new());
    check("rwtreefs", &RwTreeFs::new());
    check("biglock", &BigLockFs::new(AtomFs::new()));
}

#[test]
fn differential_rename_heavy() {
    // A rename-dominated script stresses the trickiest error precedence.
    let script = |fs: &dyn FileSystem| {
        let mut out = Vec::new();
        let mut rng = SplitMix64::new(99);
        let paths = [
            "/d0", "/d0/s", "/d0/n1", "/d1", "/d1/n1", "/d0/s/x", "/d0/n1/y",
        ];
        for _ in 0..600 {
            let a = paths[rng.random_range(0..paths.len())];
            let b = paths[rng.random_range(0..paths.len())];
            out.push(R::Unit(fs.rename(a, b)));
            if rng.random_bool(0.3) {
                out.push(R::Unit(fs.mkdir(a)));
            }
            if rng.random_bool(0.2) {
                out.push(R::Unit(fs.mknod(b)));
            }
        }
        out
    };
    let oracle = SeqFs::new();
    setup(&oracle);
    let expected = script(&oracle);
    let atomfs = AtomFs::new();
    setup(&atomfs);
    assert_eq!(script(&atomfs), expected, "atomfs vs oracle");
    let retry = RetryFs::new();
    setup(&retry);
    assert_eq!(script(&retry), expected, "retryfs vs oracle");
}
