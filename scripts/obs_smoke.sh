#!/bin/sh
# obs_smoke.sh — end-to-end smoke test for the telemetry surface of
# cmd/spamserver.
#
# Boots spamserver with tracing, the metric recorder, and the drift
# watchdog enabled on an ephemeral port, then:
#   1. scrapes /metrics and validates it with promcheck (the strict
#      Prometheus text-format parser);
#   2. checks that a hot-path request carries X-Trace-Id/Traceparent;
#   3. forces a synchronous refresh and asserts /admin/timeseries grew
#      a new serve.snapshot_epoch point;
#   4. checks that /admin/flightrecorder holds that refresh's solve (a
#      pagerank.solve span in its span tree) and reads /readyz?verbose.
# Exits non-zero on any failed probe. Run via `make obs-smoke`.
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

echo "obs-smoke: building binaries"
$GO build -o "$WORK/genweb" ./cmd/genweb
$GO build -o "$WORK/spamserver" ./cmd/spamserver
$GO build -o "$WORK/promcheck" ./cmd/promcheck

echo "obs-smoke: generating 10k-host example graph"
"$WORK/genweb" -hosts 10000 -out "$WORK/web" >/dev/null

"$WORK/spamserver" -addr 127.0.0.1:0 -addr-file "$WORK/addr" \
    -graph "$WORK/web.graph" -names "$WORK/web.names" -core "$WORK/web.core" \
    -sample-interval 1s -flight-dir "$WORK/flight" \
    2>"$WORK/server.log" &
SERVER_PID=$!

i=0
while [ ! -s "$WORK/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "obs-smoke: server never bound" >&2
        cat "$WORK/server.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$WORK/addr")
echo "obs-smoke: server up on $ADDR"

fail() {
    echo "obs-smoke: $1" >&2
    cat "$WORK/server.log" >&2
    exit 1
}

# 1. /metrics must scrape and survive the strict parser.
curl -sS --fail --max-time 10 "http://$ADDR/metrics" >"$WORK/metrics.prom" \
    || fail "/metrics scrape failed"
"$WORK/promcheck" "$WORK/metrics.prom" || fail "/metrics is not valid Prometheus text format"
grep -q '^serve_requests_total' "$WORK/metrics.prom" \
    || fail "/metrics misses serve_requests_total"

# 2. Hot-path responses must carry trace headers.
HOST=$(head -1 "$WORK/web.names")
curl -sS --fail --max-time 10 -D "$WORK/headers" \
    "http://$ADDR/v1/host/$HOST" >/dev/null || fail "host lookup failed"
grep -qi '^x-trace-id: [0-9a-f]\{32\}' "$WORK/headers" \
    || fail "lookup response misses X-Trace-Id"
grep -qi '^traceparent: 00-' "$WORK/headers" \
    || fail "lookup response misses Traceparent"

# 3. A refresh must add a serve.snapshot_epoch point to the recorder.
before=$(curl -sS --fail --max-time 10 \
    "http://$ADDR/admin/timeseries?metric=serve.snapshot_epoch" \
    | grep -o '"time":' | wc -l) || fail "timeseries query failed"
curl -sS --fail --max-time 60 -X POST \
    "http://$ADDR/admin/refresh?wait=1" >/dev/null || fail "refresh failed"
after=$(curl -sS --fail --max-time 10 \
    "http://$ADDR/admin/timeseries?metric=serve.snapshot_epoch" \
    | grep -o '"time":' | wc -l) || fail "timeseries re-query failed"
if [ "$after" -le "$before" ]; then
    fail "refresh did not grow the serve.snapshot_epoch series ($before -> $after)"
fi
echo "obs-smoke: timeseries grew $before -> $after points across refresh"

# 4. The refresh's flight tree holds its solve, and verbose readiness
#    responds.
curl -sS --fail --max-time 10 "http://$ADDR/admin/flightrecorder" >"$WORK/flight.json" \
    || fail "flight recorder query failed"
grep -Eq '"name": ?"pagerank\.solve"' "$WORK/flight.json" \
    || fail "/admin/flightrecorder holds no pagerank.solve span after refresh?wait=1"
echo "obs-smoke: the refresh's flight tree holds pagerank.solve"
curl -sS --fail --max-time 10 "http://$ADDR/readyz?verbose" | grep -q '"drift"' \
    || fail "/readyz?verbose misses the drift section"

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "obs-smoke: OK"
