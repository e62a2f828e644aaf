#!/bin/sh
# serve_smoke.sh — end-to-end smoke test for cmd/spamserver.
#
# Generates a small synthetic web graph, starts spamserver on an
# ephemeral port, probes /healthz, /readyz, one /v1/host lookup, and
# /v1/top, forces a synchronous refresh, checks /metrics still carries
# the solve-iteration gauge, and shuts the server down. It first
# asserts the removed -solver-layout / -solver-precision and
# -anytime-every / -anytime-walks flags are rejected loudly. Exits
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

# The blocked layout, the float32 phase and the Monte-Carlo delta
# builder are gone, and so are their flags: an operator still passing
# one gets the flag package's error and a non-zero exit, not a silently
# different solver.
for removed in -solver-layout=flat -solver-precision=float64 \
    -anytime-every=3 -anytime-walks=100; do
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
echo "serve-smoke: removed solver and delta-builder flags are rejected"

"$WORK/spamserver" -addr 127.0.0.1:0 -addr-file "$WORK/addr" \
    -graph "$WORK/web.graph" -names "$WORK/web.names" -core "$WORK/web.core" \
    2>"$WORK/server.log" &
SERVER_PID=$!

i=0
while [ ! -s "$WORK/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "serve-smoke: server never bound" >&2
        cat "$WORK/server.log" >&2
        exit 1
    fi
    sleep 0.1
done
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
echo "serve-smoke: OK"
