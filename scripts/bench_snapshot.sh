#!/usr/bin/env bash
# Benchmark snapshot: runs the release-mode bench suites and assembles the
# machine-readable medians into JSON documents at the repo root —
# BENCH_criticality.json (criticality, parallel_sweep, reach_kernel,
# hardening_incremental, serialize),
# BENCH_simulation.json (simulator shift/retarget/validation-campaign), and
# BENCH_serve.json (rsn_tool loadgen against an in-process rsnd: throughput
# plus p50/p99/p999 latency in closed- and open-loop modes). Every document
# carries a host block naming the cores, commit, dirty flag and cargo
# features.
#
# The vendored criterion shim appends one JSON line per benchmark to
# $BENCH_JSON_PATH. One criterion run cannot resolve a change smaller than
# about 1.7x on a 2-core host, so every bench runs three times and
# each label records the median of its runs' medians with
# their min and max. This script collects those lines into a single JSON
# document per snapshot (bash and awk only — no jq dependency):
#
#   {
#     "snapshot": "criticality",
#     "host": {"nproc": 2, "commit": "...", "dirty": false, "cargo_features": "default"},
#     "benches": ["criticality", "parallel_sweep", ...],
#     "runs": 3,
#     "results": [ {"label": ..., "median_ns": ..., "min_ns": ..., "max_ns": ..., ...}, ... ]
#   }
#
#   scripts/bench_snapshot.sh            run all snapshots
#   scripts/bench_snapshot.sh --quick    reach_kernel only (fast iteration)
#
# Runs offline against the vendored dependency stubs, like check.sh.

set -euo pipefail
cd "$(dirname "$0")/.."

runs=3
crit_benches=(criticality parallel_sweep reach_kernel hardening_incremental serialize)
sim_benches=(simulator)
serve_snapshot=1
for arg in "$@"; do
    case "$arg" in
    --quick)
        crit_benches=(reach_kernel)
        sim_benches=()
        serve_snapshot=0
        ;;
    *)
        echo "unknown option: $arg" >&2
        exit 2
        ;;
    esac
done

# host_block: the host the numbers came from, as one JSON object: cores, the
# commit and whether the tracked files differed from it, and the cargo
# features built (none beyond the defaults).
host_block() {
    local commit=null dirty=null head
    if head=$(git rev-parse HEAD 2>/dev/null); then
        commit="\"$head\""
        dirty=false
        [ -n "$(git status --porcelain --untracked-files=no)" ] && dirty=true
    fi
    printf '{"nproc": %s, "commit": %s, "dirty": %s, "cargo_features": "default"}' \
        "$(nproc)" "$commit" "$dirty"
}
# Taken once, before the first snapshot file is rewritten: the rewritten
# (tracked) files would otherwise mark every later block dirty.
host=$(host_block)

# fold_runs: reads the shim's JSON lines (one per label per run) and prints
# one line per label, in first-seen order: the median of the runs' medians,
# their min and max, the best sample over all runs, and the run count.
fold_runs() {
    awk '
    function field(name,    v) {
        v = $0
        if (!sub(".*\"" name "\":", "", v)) return ""
        sub(/[,}].*/, "", v)
        return v
    }
    {
        label = field("label")
        if (!(label in runs)) order[++labels] = label
        k = ++runs[label]
        med[label, k] = field("median_ns") + 0
        b = field("best_ns") + 0
        if (k == 1 || b < best[label]) best[label] = b
        samples[label] = field("samples")
        iters[label] = field("iters")
    }
    END {
        for (i = 1; i <= labels; i++) {
            l = order[i]
            n = runs[l]
            for (j = 1; j <= n; j++) v[j] = med[l, j]
            for (j = 2; j <= n; j++) {
                x = v[j]
                for (m = j - 1; m >= 1 && v[m] > x; m--) v[m + 1] = v[m]
                v[m + 1] = x
            }
            mid = (n % 2) ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
            printf "{\"label\":%s,\"median_ns\":%.0f,\"min_ns\":%.0f,\"max_ns\":%.0f,", l, mid, v[1], v[n]
            printf "\"best_ns\":%.0f,\"runs\":%d,\"samples\":%s,\"iters\":%s}\n", best[l], n, samples[l], iters[l]
        }
    }'
}

# assemble_snapshot NAME OUT BENCH...: run each bench $runs times, fold the
# shim's JSON lines per label, and write the combined document to OUT.
assemble_snapshot() {
    local snapshot="$1" out="$2"
    shift 2
    local raw lines
    raw=$(mktemp)
    lines=$(mktemp)
    # shellcheck disable=SC2064
    trap "rm -f '$raw' '$lines'" RETURN

    local bench run
    for bench in "$@"; do
        for run in $(seq 1 "$runs"); do
            echo "==> cargo bench -p rsn-bench --bench $bench (run $run of $runs)"
            BENCH_JSON_PATH="$raw" cargo bench --offline -p rsn-bench --bench "$bench"
        done
    done
    fold_runs <"$raw" >"$lines"

    local count
    count=$(wc -l <"$lines")
    if [ "$count" -eq 0 ]; then
        echo "no benchmark results were emitted for $snapshot" >&2
        exit 1
    fi

    {
        printf '{\n'
        printf '  "snapshot": "%s",\n' "$snapshot"
        printf '  "host": %s,\n' "$host"
        printf '  "benches": ['
        local sep=''
        for bench in "$@"; do
            printf '%s"%s"' "$sep" "$bench"
            sep=', '
        done
        printf '],\n'
        printf '  "runs": %s,\n' "$runs"
        printf '  "results": [\n'
        local n=0 line
        while IFS= read -r line; do
            n=$((n + 1))
            if [ "$n" -lt "$count" ]; then
                printf '    %s,\n' "$line"
            else
                printf '    %s\n' "$line"
            fi
        done <"$lines"
        printf '  ]\n'
        printf '}\n'
    } >"$out"

    echo "wrote $out ($count results)"
}

assemble_snapshot criticality BENCH_criticality.json "${crit_benches[@]}"
if [ "${#sim_benches[@]}" -gt 0 ]; then
    assemble_snapshot simulation BENCH_simulation.json "${sim_benches[@]}"
fi

# The serving snapshot replays the seeded default mix against an in-process
# rsnd in both loop modes; each run's LoadReport is already a JSON document,
# so the snapshot just frames the two.
if [ "$serve_snapshot" -eq 1 ]; then
    echo "==> cargo build --release (rsn_tool, rsnc, rsnc-worker)"
    cargo build --offline -q --release -p rsn-bench --bin rsn_tool \
        -p rsn-cluster --bin rsnc --bin rsnc-worker
    tool=target/release/rsn_tool
    network=examples/networks/soc_demo.rsn
    echo "==> rsn_tool loadgen (closed loop, 400 requests)"
    closed=$("$tool" loadgen "$network" --spawn --requests 400 --connections 4 \
        --seed 2022 --slo-ms 500 --json)
    echo "==> rsn_tool loadgen (open loop, 200 req/s)"
    open=$("$tool" loadgen "$network" --spawn --requests 400 --connections 4 \
        --rate 200 --seed 2022 --slo-ms 500 --json)

    # The cluster leg replays the same closed-loop mix against a 3-worker
    # rsnc coordinator, so the snapshot tracks the fan-out overhead next to
    # the single-node numbers.
    echo "==> rsn_tool loadgen against a 3-worker rsnc cluster"
    cluster_log=$(mktemp)
    target/release/rsnc --addr 127.0.0.1:0 --workers 3 \
        --worker-bin target/release/rsnc-worker >"$cluster_log" &
    cluster_pid=$!
    cluster_addr=""
    for _ in $(seq 1 100); do
        cluster_addr=$(sed -n 's/^rsnc listening on //p' "$cluster_log")
        [ -n "$cluster_addr" ] && break
        sleep 0.1
    done
    if [ -z "$cluster_addr" ]; then
        echo "rsnc never printed its listening address" >&2
        kill "$cluster_pid" 2>/dev/null || true
        exit 1
    fi
    cluster=$("$tool" loadgen "$network" --addr "$cluster_addr" \
        --requests 400 --connections 4 --seed 2022 --slo-ms 500 --json)
    kill -TERM "$cluster_pid"
    wait "$cluster_pid" || true
    rm -f "$cluster_log"

    {
        printf '{\n'
        printf '  "snapshot": "serve",\n'
        printf '  "host": %s,\n' "$host"
        printf '  "network": "%s",\n' "$network"
        printf '  "closed_loop": %s,\n' "$closed"
        printf '  "open_loop": %s,\n' "$open"
        printf '  "cluster_closed_loop": %s\n' "$cluster"
        printf '}\n'
    } >BENCH_serve.json
    echo "wrote BENCH_serve.json"
fi
