//! Table 2 — lines of specifications, implementations, and proofs.
//!
//! The paper's Table 2 counts the Coq development behind AtomFS
//! (abstraction/Aops, invariants, R/G conditions, verified code, proofs).
//! This binary produces the analogous inventory for this reproduction by
//! counting non-blank, non-comment lines of each component, mapped onto
//! the paper's categories:
//!
//! | Paper category | Here |
//! |---|---|
//! | Abstraction and Aops | `crlh/src/state.rs`, `crlh/src/afs.rs` |
//! | Invariants | `crlh/src/invariants.rs`, `crlh/src/rollback.rs` |
//! | R-G conditions | `crlh/src/rg.rs` |
//! | Verified code (the FS) | `crates/core/src/*` |
//! | Proof (⇒ executable checking) | `crlh/src/{checker,helper,ghost,wgl,history}.rs` + tests |

use std::path::Path;

use atomfs_bench::report::Table;

/// Count non-blank, non-comment Rust lines in one file.
fn count_file(path: &Path) -> usize {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0;
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// Count all `.rs` files under a directory (recursively).
fn count_dir(path: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    let mut total = 0;
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            total += count_dir(&p);
        } else if p.extension().is_some_and(|e| e == "rs") {
            total += count_file(&p);
        }
    }
    total
}

fn repo_root() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn main() {
    let root = repo_root();
    let f = |rel: &str| count_file(&root.join(rel));
    let d = |rel: &str| count_dir(&root.join(rel));

    let abstraction = f("crates/crlh/src/state.rs") + f("crates/crlh/src/afs.rs");
    let invariants = f("crates/crlh/src/invariants.rs") + f("crates/crlh/src/rollback.rs");
    let rg = f("crates/crlh/src/rg.rs");
    let verified_code = d("crates/core/src");
    let proof = f("crates/crlh/src/checker.rs")
        + f("crates/crlh/src/helper.rs")
        + f("crates/crlh/src/ghost.rs")
        + f("crates/crlh/src/wgl.rs")
        + f("crates/crlh/src/history.rs")
        + d("crates/crlh/tests")
        + d("tests");
    let total = abstraction + invariants + rg + verified_code + proof;

    println!("Table 2 analog: lines of specifications, implementation, and checking");
    println!("(paper's Coq proof becomes executable checking code here; see DESIGN.md)\n");
    let mut t = Table::new(&["Component", "Lines (this repo)", "Lines (paper, Coq)"]);
    t.row(vec![
        "Abstraction and Aops".into(),
        abstraction.to_string(),
        "344".into(),
    ]);
    t.row(vec![
        "Invariants".into(),
        invariants.to_string(),
        "1397".into(),
    ]);
    t.row(vec!["R-G conditions".into(), rg.to_string(), "451".into()]);
    t.row(vec![
        "Verified code".into(),
        verified_code.to_string(),
        "673".into(),
    ]);
    t.row(vec![
        "Proof / checking".into(),
        proof.to_string(),
        "60324".into(),
    ]);
    t.row(vec!["Total".into(), total.to_string(), "63099".into()]);
    t.print();

    println!("\nWhole-workspace inventory (non-blank, non-comment lines):");
    let mut t2 = Table::new(&["crate", "lines"]);
    for c in [
        "crates/vfs",
        "crates/trace",
        "crates/core",
        "crates/crlh",
        "crates/baselines",
        "crates/workloads",
        "crates/bench",
    ] {
        t2.row(vec![c.into(), d(c).to_string()]);
    }
    t2.row(vec!["tests/".into(), d("tests").to_string()]);
    t2.row(vec!["examples/".into(), d("examples").to_string()]);
    t2.print();
}
