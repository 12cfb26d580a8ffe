#!/usr/bin/env bash
# Smoke test of cluster mode: boot a single rsnd and a 3-worker rsnc
# cluster, byte-diff cluster responses against the single node (sharded
# sweeps included, via --shard-threshold 1), SIGKILL one worker
# mid-campaign and require the remaining submissions to stay
# byte-identical while the fleet respawns the corpse, then shut the
# coordinator down with SIGTERM and require a clean exit that takes every
# rsnc-worker child with it.
#
#   scripts/cluster_smoke.sh
#
# Runs offline against the vendored dependency stubs, like check.sh.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> building rsnd, rsnc, rsnc-worker and rsn_tool"
cargo build --offline -q -p rsn-serve --bin rsnd -p rsn-bench --bin rsn_tool \
    -p rsn-cluster --bin rsnc --bin rsnc-worker

rsnd=target/debug/rsnd
rsnc=target/debug/rsnc
rsn_tool=target/debug/rsn_tool
network=examples/networks/soc_demo.rsn
single_log=$(mktemp)
cluster_log=$(mktemp)
single_out=$(mktemp -d)

cleanup() {
    kill "$single_pid" 2>/dev/null || true
    kill "$cluster_pid" 2>/dev/null || true
    rm -rf "$single_log" "$cluster_log" "$single_out"
}
trap cleanup EXIT

# wait_for_banner LOG PREFIX: polls LOG until the daemon prints its
# listening address, echoing the address.
wait_for_banner() {
    local log="$1" prefix="$2" addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n "s/^$prefix listening on //p" "$log")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "$prefix never printed its listening address" >&2
        exit 1
    fi
    echo "$addr"
}

# metrics ADDR: one curl-free /metrics scrape via bash /dev/tcp.
metrics() {
    local addr="$1"
    exec 3<>"/dev/tcp/${addr%:*}/${addr#*:}"
    printf 'GET /metrics HTTP/1.1\r\nHost: rsnc\r\nConnection: close\r\n\r\n' >&3
    cat <&3
    exec 3<&-
}

echo "==> starting single-node rsnd"
"$rsnd" --addr 127.0.0.1:0 --workers 2 >"$single_log" &
single_pid=$!
single_addr=$(wait_for_banner "$single_log" rsnd)
echo "    rsnd is up on $single_addr"

echo "==> starting a 3-worker rsnc cluster (every sweep sharded)"
"$rsnc" --addr 127.0.0.1:0 --workers 3 --worker-bin target/debug/rsnc-worker \
    --shard-threshold 1 --health-interval-ms 100 >"$cluster_log" &
cluster_pid=$!
cluster_addr=$(wait_for_banner "$cluster_log" rsnc)
echo "    rsnc is up on $cluster_addr"

echo "==> recording single-node reference bytes (seeds 1..5)"
for seed in 1 2 3 4 5; do
    "$rsn_tool" submit "$network" --addr "$single_addr" --endpoint analyze \
        --seed "$seed" >"$single_out/$seed.json"
done

echo "==> cluster byte-diff before the kill (seeds 1..2)"
for seed in 1 2; do
    "$rsn_tool" submit "$network" --addr "$cluster_addr" --endpoint analyze \
        --seed "$seed" | diff -q - "$single_out/$seed.json" >/dev/null ||
        { echo "cluster bytes diverged at seed $seed" >&2; exit 1; }
done

echo "==> SIGKILL one worker mid-campaign"
worker_pid=$(cat /proc/"$cluster_pid"/task/*/children 2>/dev/null |
    tr ' ' '\n' | sed '/^$/d' | head -n 1)
if [ -z "$worker_pid" ]; then
    echo "could not find a worker child of rsnc" >&2
    exit 1
fi
kill -9 "$worker_pid"

echo "==> cluster byte-diff after the kill (seeds 3..5, failover in flight)"
for seed in 3 4 5; do
    "$rsn_tool" submit "$network" --addr "$cluster_addr" --endpoint analyze \
        --seed "$seed" | diff -q - "$single_out/$seed.json" >/dev/null ||
        { echo "post-kill cluster bytes diverged at seed $seed" >&2; exit 1; }
done

echo "==> fleet recovers: rsnc_workers_up returns to 3"
recovered=0
for _ in $(seq 1 100); do
    if metrics "$cluster_addr" | grep -q '^rsnc_workers_up 3'; then
        recovered=1
        break
    fi
    sleep 0.1
done
if [ "$recovered" -ne 1 ]; then
    echo "the killed worker was never respawned" >&2
    metrics "$cluster_addr" >&2 || true
    exit 1
fi
metrics "$cluster_addr" | grep -q '^rsnc_workers 3'

# The fleet as it stands before shutdown, for the orphan check below.
fleet_pids=$(cat /proc/"$cluster_pid"/task/*/children 2>/dev/null | tr ' ' '\n' | sed '/^$/d')

echo "==> graceful shutdown (SIGTERM)"
kill -TERM "$cluster_pid"
wait "$cluster_pid"
grep -q 'rsnc shut down cleanly' "$cluster_log"
kill -TERM "$single_pid"
wait "$single_pid" || true

echo "==> no rsnc-worker outlives the coordinator"
if [ "$(echo "$fleet_pids" | wc -w)" -ne 3 ]; then
    echo "expected 3 worker children of rsnc before shutdown, saw: $fleet_pids" >&2
    exit 1
fi
orphans=0
for pid in $fleet_pids; do
    # A reaped worker is gone; an orphan keeps its command line.
    if tr '\0' ' ' 2>/dev/null <"/proc/$pid/cmdline" | grep -q rsnc-worker; then
        echo "rsnc-worker $pid outlived the coordinator" >&2
        kill -9 "$pid" 2>/dev/null || true
        orphans=$((orphans + 1))
    fi
done
[ "$orphans" -eq 0 ] || exit 1

echo "cluster smoke passed."
