#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json
#
# A and B are result.json files written by benchmark/run.sh; A is the
# base. Prints, per workload x end-to-end metric, both medians with their
# quartiles, the ratio B/A and a verdict; exits 1 if anything is worse.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
target="${CARGO_TARGET_DIR:-$here/target}"
exec "$target/release/atomfs-benchmark" compare "$@"
