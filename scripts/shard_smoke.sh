#!/bin/sh
# shard_smoke.sh — end-to-end smoke test for the sharded serving tier.
#
# Generates a pre-partitioned synthetic web graph (genweb -shards 2
# -churn 1), boots one spamserver per shard plus a -role=router front,
# probes routed lookups, batches, and rankings, applies a cross-shard
# delta through the router, and asserts the generation fence advanced
# with no torn view (every touched shard's floor covers the published
# epoch, routed records carry post-delta epochs), and that a SIGHUP
# leaves the router routing. Exits non-zero on any failed probe. Run
# via `make shard-smoke`.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
PIDS=""
cleanup() {
    for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done
    for pid in $PIDS; do wait "$pid" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "shard-smoke: building binaries"
$GO build -o "$WORK/genweb" ./cmd/genweb
$GO build -o "$WORK/spamserver" ./cmd/spamserver

echo "shard-smoke: generating 10k-host graph partitioned over 2 shards"
"$WORK/genweb" -hosts 10000 -shards 2 -churn 1 -out "$WORK/web" >/dev/null
for s in 0 1; do
    for ext in graph names core; do
        if [ ! -s "$WORK/web.shard$s.$ext" ]; then
            echo "shard-smoke: genweb -shards 2 wrote no web.shard$s.$ext" >&2
            exit 1
        fi
    done
done

logs() {
    for f in "$WORK"/shard0.log "$WORK"/shard1.log "$WORK"/router.log; do
        [ -f "$f" ] && { echo "--- $f" >&2; cat "$f" >&2; }
    done
}

wait_addr() {
    # wait_addr <file> <pid> <name>
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ] || ! kill -0 "$2" 2>/dev/null; then
            echo "shard-smoke: $3 never bound" >&2
            logs
            exit 1
        fi
        sleep 0.1
    done
}

for s in 0 1; do
    "$WORK/spamserver" -addr 127.0.0.1:0 -addr-file "$WORK/shard$s.addr" \
        -graph "$WORK/web.shard$s.graph" -names "$WORK/web.shard$s.names" \
        -core "$WORK/web.shard$s.core" 2>"$WORK/shard$s.log" &
    PIDS="$PIDS $!"
    eval "SHARD${s}_PID=$!"
done
wait_addr "$WORK/shard0.addr" "$SHARD0_PID" "shard 0"
wait_addr "$WORK/shard1.addr" "$SHARD1_PID" "shard 1"
S0=$(cat "$WORK/shard0.addr")
S1=$(cat "$WORK/shard1.addr")
echo "shard-smoke: shards up on $S0 and $S1"

"$WORK/spamserver" -role=router -addr 127.0.0.1:0 -addr-file "$WORK/router.addr" \
    -shards "http://$S0;http://$S1" -probe-interval 200ms \
    2>"$WORK/router.log" &
PIDS="$PIDS $!"
ROUTER_PID=$!
wait_addr "$WORK/router.addr" "$ROUTER_PID" "router"
ADDR=$(cat "$WORK/router.addr")

# The router answers 503 until its first probe round fences all shards.
i=0
until curl -sf --max-time 5 "http://$ADDR/readyz" >/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "shard-smoke: router fence never formed" >&2
        logs
        exit 1
    fi
    sleep 0.1
done
echo "shard-smoke: router up on $ADDR"

probe() {
    # probe <name> <url> [curl args...] — body must arrive with HTTP 200.
    name=$1
    url=$2
    shift 2
    if ! body=$(curl -sS --fail --max-time 30 "$@" "$url"); then
        echo "shard-smoke: $name probe failed ($url)" >&2
        logs
        exit 1
    fi
    echo "shard-smoke: $name -> $(echo "$body" | head -c 200)"
}

# expect <name> <pattern> — the last probe's body must contain pattern.
expect() {
    if ! echo "$body" | grep -q "$2"; then
        echo "shard-smoke: $1: expected $2 in: $body" >&2
        logs
        exit 1
    fi
}

probe readyz "http://$ADDR/readyz"
expect "initial generation" '"generation":1'

# Routed point lookups: one host from each shard's partition.
H0=$(head -1 "$WORK/web.shard0.names")
H1=$(head -1 "$WORK/web.shard1.names")
probe "shard-0 lookup" "http://$ADDR/v1/host/$H0"
expect "routed host" "\"host\":\"$H0\""
probe "shard-1 lookup" "http://$ADDR/v1/host/$H1"
expect "routed host" "\"host\":\"$H1\""

# Cross-shard batch: aligned records, null per miss.
probe "cross-shard batch" "http://$ADDR/v1/batch" -X POST \
    --data-binary "{\"hosts\":[\"$H0\",\"no-such-host.example\",\"$H1\"]}"
expect "batch alignment" "\"host\":\"$H0\""
expect "batch alignment" "\"host\":\"$H1\""
expect "null per miss" 'null'
expect "miss counted" '"misses":1'

# Scatter-gather ranking across both shards.
probe "top merge" "http://$ADDR/v1/top?metric=relmass&n=5"
expect "merged ranking" '"metric":"relmass"'
expect "merged records" '"records":\['

# Cross-shard delta through the router: the churn delta plus two fresh
# hosts whose names hash to both shards in practice.
{
    echo "delta 1"
    echo "+h smoke-added-0.example"
    echo "+h smoke-added-1.example"
    tail -n +2 "$WORK/web.delta.1"
} >"$WORK/routed.delta"
probe "cross-shard delta" "http://$ADDR/admin/delta" -X POST --data-binary "@$WORK/routed.delta"
expect "fence advanced" '"generation":2'

probe "router status" "http://$ADDR/admin/status"
expect "role" '"role":"router"'
expect "generation" '"generation":2'
expect "delta counted" '"deltas":1'
# No torn view: every shard's fence floor reached epoch 2 and both
# replicas report it. A shard left behind would still show epoch 1.
expect "shard 0 floor" '"index":0,"min_epoch":2'
expect "shard 1 floor" '"index":1,"min_epoch":2'

# Post-delta reads must come from fenced generations.
probe "post-delta lookup" "http://$ADDR/v1/host/smoke-added-0.example"
expect "post-delta epoch" '"epoch":2'
probe "post-delta readyz" "http://$ADDR/readyz"
expect "served generation" '"generation":2'

# SIGHUP is not fatal to the router: it logs it and keeps routing.
kill -HUP "$ROUTER_PID"
i=0
until grep -q 'SIGHUP ignored' "$WORK/router.log"; do
    i=$((i + 1))
    if [ "$i" -gt 50 ] || ! kill -0 "$ROUTER_PID" 2>/dev/null; then
        echo "shard-smoke: router did not survive SIGHUP" >&2
        logs
        exit 1
    fi
    sleep 0.1
done
probe "post-SIGHUP lookup" "http://$ADDR/v1/host/$H0"
expect "routed host after SIGHUP" "\"host\":\"$H0\""

# Drain: the router must exit cleanly on SIGTERM.
kill "$ROUTER_PID"
wait "$ROUTER_PID" 2>/dev/null || true
echo "shard-smoke: OK"
