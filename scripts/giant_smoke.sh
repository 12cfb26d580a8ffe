#!/usr/bin/env bash
# Fleet-scale smoke: generate >= 100k-segment networks with `rsn_tool gen`,
# parse and build them from the textual format, and complete a full batched
# single-fault sweep through the graph kernel — release mode, since a sweep
# over ~10^5 fault modes is lane-block-bound and a debug binary would take
# tens of minutes. The deep-sib shape is a 50k-level SIB tower: it also
# proves every model walk (lex, parse, build, CSR, drop) runs without
# call-stack recursion. Each shape prints the node words its sweep
# re-derived (`nodes_relaxed`).
#
#   scripts/giant_smoke.sh
#
# Runs offline against the vendored dependency stubs, like check.sh.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> building rsn_tool (release)"
cargo build --offline -q --release -p rsn-bench --bin rsn_tool

rsn_tool=target/release/rsn_tool
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

run_shape() {
    local shape="$1" want="$2"
    echo "==> gen $shape (>= $want segments)"
    "$rsn_tool" gen "$shape" --segments "$want" --seed 1 >"$work/$shape.rsn"
    echo "    $(wc -c <"$work/$shape.rsn") bytes of .rsn text"
    echo "==> sweep $shape (parse + build + full single-fault sweep)"
    local json
    json=$("$rsn_tool" sweep "$work/$shape.rsn" --threads 0 --json)
    echo "    $json"
    local segments
    segments=$(echo "$json" | sed -n 's/.*"segments":\([0-9]*\).*/\1/p')
    if [ -z "$segments" ] || [ "$segments" -lt "$want" ]; then
        echo "$shape sweep covered only ${segments:-0} segments (wanted >= $want)" >&2
        exit 1
    fi
    echo "$json" | grep -q '"total_damage":[0-9]' || {
        echo "$shape sweep reported no damage total" >&2
        exit 1
    }
    echo "    nodes_relaxed: $(echo "$json" | sed -n 's/.*"nodes_relaxed":\([0-9]*\).*/\1/p')"
}

run_shape rings 100000
run_shape deep-sib 100000

echo "giant smoke passed."
