#!/usr/bin/env bash
# Builds the release binaries (rsnd, rsnc, rsn_tool) and the benchmark
# runner from source, then runs the benchmark. See benchmark/README.md.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--out FILE] [--smoke]
#
# Runs last run_seconds of BENCHMARK.json; --seconds, if given, must match.
# Cargo builds into $CARGO_TARGET_DIR (default: the repository's target/).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
export CARGO_TARGET_DIR="$target"

cargo build --offline --release --quiet --manifest-path "$root/Cargo.toml" \
    -p rsn-serve -p rsn-cluster -p rsn-bench --bins >&2
cargo build --offline --release --quiet --manifest-path "$root/benchmark/Cargo.toml" >&2

exec "$target/release/rsn-benchmark" --root "$root" --bin-dir "$target/release" "$@"
