#!/bin/sh
# serve_smoke.sh — end-to-end smoke test for cmd/spamserver.
#
# Pins the flag surface first: `spamserver -h` must list exactly the
# kept flags, every removed flag must be rejected by the flag package,
# and a flag the chosen role does not read (or a WAL tuning flag
# without -wal-dir) must fail boot with an error naming it. Then it
# generates a small synthetic web graph, starts spamserver on an
# ephemeral port, probes /healthz, /readyz, one /v1/host lookup, and
# /v1/top, forces a synchronous refresh, checks /metrics still carries
# the solve-iteration gauge, and shuts the server down. Last, it boots
# on a 200k-host graph and sends SIGHUP mid-boot: the server must still
# bind, and the held SIGHUP must run one refresh after boot. Exits
# non-zero on any failed probe. Run via `make serve-smoke`.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    [ -n "$SERVER_PID" ] && wait "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "serve-smoke: building binaries"
$GO build -o "$WORK/genweb" ./cmd/genweb
$GO build -o "$WORK/spamserver" ./cmd/spamserver

echo "serve-smoke: generating 10k-host example graph"
"$WORK/genweb" -hosts 10000 -out "$WORK/web" >/dev/null

# The flag surface is pinned: adding or removing a flag means editing
# this list.
KEPT="addr addr-file compact-every core debug-addr flight-dir graph names probe-interval role sample-interval shards v wal-dir wal-group-commit"
got=$("$WORK/spamserver" -h 2>&1 | sed -n 's/^  -\([a-z-]*\).*/\1/p' | sort | tr '\n' ' ' | sed 's/ $//')
if [ "$got" != "$KEPT" ]; then
    echo "serve-smoke: spamserver -h lists: $got" >&2
    echo "serve-smoke: want exactly:        $KEPT" >&2
    exit 1
fi
echo "serve-smoke: -h lists exactly the 15 kept flags"

# Removed flags: the solver layout and precision, the Monte-Carlo delta
# builder, and the knobs nothing ever set to a non-default value (the
# paper's operating point, refresh timers, the delta-file watcher,
# request limits, telemetry switches, drift and hedge tuning). An
# operator still passing one gets the flag package's error and a
# non-zero exit, not a silently different server.
for removed in -solver-layout=flat -solver-precision=float64 \
    -anytime-every=3 -anytime-walks=100 \
    -tau=0.5 -rho=1 -gamma=0.5 -damping=0.5 \
    -refresh=1m -refresh-timeout=1m -delta-watch=x.delta -delta-poll=1s \
    -ingest-queue=4 -max-inflight=8 -timeout=1s -max-batch=10 \
    -metrics=false -tracing=false \
    -drift-window=4 -drift-z=2 -hedge-after=1ms; do
    if "$WORK/spamserver" "$removed" -addr 127.0.0.1:0 \
        -graph "$WORK/web.graph" -names "$WORK/web.names" -core "$WORK/web.core" \
        2>"$WORK/removed.log"; then
        echo "serve-smoke: spamserver accepted removed flag $removed" >&2
        exit 1
    fi
    if ! grep -q "flag provided but not defined: ${removed%%=*}" "$WORK/removed.log"; then
        echo "serve-smoke: removed flag $removed not rejected by the flag package:" >&2
        cat "$WORK/removed.log" >&2
        exit 1
    fi
done
echo "serve-smoke: removed flags are rejected"

# A flag the chosen role does not read is an error naming it, one case
# per rule: serve-only under the router, router-only under serve, and
# a WAL tuning flag without -wal-dir.
reject() {
    # reject <flag> <args...> — boot must exit 1 naming <flag>.
    want=$1
    shift
    code=0
    "$WORK/spamserver" -addr 127.0.0.1:0 "$@" 2>"$WORK/reject.log" || code=$?
    if [ "$code" -ne 1 ] || ! grep -q -- "^$want " "$WORK/reject.log"; then
        echo "serve-smoke: $* exited $code, want 1 with an error naming $want:" >&2
        cat "$WORK/reject.log" >&2
        exit 1
    fi
}
reject -flight-dir -role=router -shards 127.0.0.1:1 -flight-dir "$WORK"
reject -probe-interval -probe-interval 1s \
    -graph "$WORK/web.graph" -names "$WORK/web.names" -core "$WORK/web.core"
reject -compact-every -compact-every 1s \
    -graph "$WORK/web.graph" -names "$WORK/web.names" -core "$WORK/web.core"
echo "serve-smoke: flags the role does not read are rejected"

"$WORK/spamserver" -addr 127.0.0.1:0 -addr-file "$WORK/addr" \
    -graph "$WORK/web.graph" -names "$WORK/web.names" -core "$WORK/web.core" \
    2>"$WORK/server.log" &
SERVER_PID=$!

wait_bound() {
    # wait_bound <addr-file> — the server must write it before exiting.
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 300 ] || ! kill -0 "$SERVER_PID" 2>/dev/null; then
            echo "serve-smoke: server never bound" >&2
            cat "$WORK/server.log" >&2
            exit 1
        fi
        sleep 0.1
    done
}
wait_bound "$WORK/addr"
ADDR=$(cat "$WORK/addr")
echo "serve-smoke: server up on $ADDR"

probe() {
    # probe <name> <url> [curl args...] — body must arrive with HTTP 200.
    name=$1
    url=$2
    shift 2
    if ! body=$(curl -sS --fail --max-time 10 "$@" "$url"); then
        echo "serve-smoke: $name probe failed ($url)" >&2
        cat "$WORK/server.log" >&2
        exit 1
    fi
    echo "serve-smoke: $name -> $body"
}

probe healthz "http://$ADDR/healthz"
probe readyz "http://$ADDR/readyz"
HOST=$(head -1 "$WORK/web.names")
probe "host lookup" "http://$ADDR/v1/host/$HOST"
probe top "http://$ADDR/v1/top?n=3"
probe refresh "http://$ADDR/admin/refresh?wait=1" -X POST
probe status "http://$ADDR/admin/status"
if ! curl -sS --fail --max-time 10 "http://$ADDR/metrics" | grep -q '^pagerank_solve_iterations '; then
    echo "serve-smoke: /metrics is missing pagerank_solve_iterations" >&2
    exit 1
fi
echo "serve-smoke: /metrics carries pagerank_solve_iterations"

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# SIGHUP during boot: it is trapped before the graph loads, held, and
# turned into one refresh once the server is up — never the default
# action, which would kill the process before it binds. The graph is
# large enough that boot is still running 0.2 s after launch.
echo "serve-smoke: generating 200k-host graph for the SIGHUP-during-boot check"
"$WORK/genweb" -hosts 200000 -out "$WORK/big" >/dev/null
"$WORK/spamserver" -addr 127.0.0.1:0 -addr-file "$WORK/big.addr" \
    -graph "$WORK/big.graph" -names "$WORK/big.names" -core "$WORK/big.core" \
    2>"$WORK/server.log" &
SERVER_PID=$!
sleep 0.2
kill -HUP "$SERVER_PID"
wait_bound "$WORK/big.addr"
ADDR=$(cat "$WORK/big.addr")
i=0
while :; do
    refreshes=$(curl -sS --fail --max-time 10 "http://$ADDR/admin/status" |
        sed -n 's/.*"refreshes":\([0-9]*\).*/\1/p')
    [ "${refreshes:-0}" -ge 2 ] && break
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "serve-smoke: SIGHUP during boot ran no refresh after boot (refreshes=${refreshes:-?})" >&2
        cat "$WORK/server.log" >&2
        exit 1
    fi
    sleep 0.1
done
echo "serve-smoke: SIGHUP during boot survived and ran one refresh after boot"

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "serve-smoke: OK"
