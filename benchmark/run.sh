#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--seconds S]
#       build offline, run all five workloads with tracing off, then the
#       traced runs; print every metric, write benchmark/out/result.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run (what the acceptance driver calls); the last line of
#       standard output is the result object
#   benchmark/run.sh --selftest
#       the benchmark's own unit tests
#
# One build path: cargo, offline, against the shims under benchmark/shims.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

if [[ "${1:-}" == "--selftest" ]]; then
    exec cargo test --release --offline --manifest-path "$manifest" --workspace
fi

# Build output goes to stderr so standard output stays the benchmark's.
cargo build --release --offline --quiet --manifest-path "$manifest" 1>&2
target="${CARGO_TARGET_DIR:-$here/target}"
exec "$target/release/atomfs-benchmark" --out-dir "$here/out" "$@"
