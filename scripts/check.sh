#!/usr/bin/env bash
# Repo gate: formatting, lints, rustdoc, and the tier-1 build+test cycle.
#
# Everything runs offline against the vendored dependency stubs (see
# vendor/README note in Cargo.toml) — no network access required.
#
#   scripts/check.sh            run everything
#   scripts/check.sh --fast     skip the release build (debug tests only)

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
    case "$arg" in
    --fast) fast=1 ;;
    *)
        echo "unknown option: $arg" >&2
        exit 2
        ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> pinned analyze_graph_with: no callers outside benchmark/"
# The benchmark runner pins `analyze_graph_with`; every other caller uses
# `analyze_graph`, so the name can go once the runner stops importing it.
if grep -rn --include='*.rs' 'analyze_graph_with(' crates tests examples |
    grep -v '^crates/core/src/graph_analysis.rs:[0-9]*:pub fn analyze_graph_with($'; then
    echo "analyze_graph_with is kept for benchmark/ only; call analyze_graph instead" >&2
    exit 1
fi

echo "==> Vec<bool> reference oracle: no callers in library or binary code"
# `graph_analysis::reference` is the lane engine's differential oracle:
# tests and benches call it, production code does not. Every source under
# crates/*/src is scanned outside its top-level `#[cfg(test)]` items (from
# the attribute to the next closing brace in column 0); only the file that
# defines the oracle may name it.
if awk 'FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests && /^}/ { in_tests = 0; next }
        !in_tests && /(^|[^[:alnum:]_])reference::/ { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit !found }' $(find crates/*/src -name '*.rs' ! -path crates/core/src/graph_analysis.rs); then
    echo "graph_analysis::reference is a test oracle; production code must not call it" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (broken and private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

if [ "$fast" -eq 0 ]; then
    echo "==> cargo build --release (tier-1)"
    cargo build --offline --release
fi

echo "==> cargo test (tier-1)"
cargo test --offline -q

echo "==> benchmark runner build + tests (compiles against the core API)"
cargo build --offline --release --manifest-path benchmark/Cargo.toml
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "==> batch-kernel differential smoke (p34392, batch vs reference)"
cargo test --offline -q -p robust-rsn --test prop_batch_kernel batch_matches_reference_on_p34392

echo "==> articulation-first smoke (ring_of_rings, batch vs reference)"
cargo test --offline -q -p robust-rsn --test prop_sparse_kernel batch_matches_reference_on_ring_of_rings

echo "==> shared-plan differential (one plan across specs vs throw-away plans and the reference)"
cargo test --offline --release -q -p robust-rsn --test prop_batch_kernel \
    shared_plan_matches_throwaway_plans_and_the_reference

echo "==> harden encoder differential (front encoder vs serde oracle, every solver)"
cargo test --offline -q -p rsn-serve --test harden_encoder

echo "==> shard decoder differential (one-pass decoder vs serde oracle, Table I shards)"
cargo test --offline -q -p rsn-serve --test shard_decoder

echo "==> serve smoke (rsnd end to end)"
scripts/serve_smoke.sh

echo "==> chaos smoke (rsnd under fault injection)"
scripts/chaos_smoke.sh

echo "==> store smoke (kill -9 crash recovery)"
scripts/store_smoke.sh

echo "==> loadgen smoke (replayable load generator, chaos composition)"
scripts/loadgen_smoke.sh

echo "==> cluster smoke (3-node rsnc, worker kill mid-campaign, byte-diff)"
scripts/cluster_smoke.sh

if [ "$fast" -eq 0 ]; then
    echo "==> validation campaign smoke (rsn_tool validate p34392)"
    ./target/release/rsn_tool validate p34392 --threads 0

    echo "==> giant smoke (100k-segment generate/parse/build/full sweep)"
    scripts/giant_smoke.sh
fi

echo "All checks passed."
