#!/bin/sh
# ingest_smoke.sh — end-to-end crash-recovery smoke test for the
# durable ingest pipeline.
#
# Generates a graph plus a churn-stream delta feed, then runs the same
# feed through two servers: a control that never crashes, and a durable
# server (-wal-dir) that is SIGKILLed mid-stream after acknowledging a
# prefix of the feed: four batches the compactor has folded into a
# snapshot, then two more that exist only in the WAL. The killed server
# is restarted on the same WAL directory, must replay exactly those two,
# come back already serving the recovered epoch, and after the rest of
# the feed match the control: epoch and labels exactly, scores to 1e-9
# (recovery folds its WAL suffix into one solve, so it equals the
# never-crashed server to the solver tolerance, not bit for bit) — the
# acknowledged-batches-survive-kill-9 property, end to end. Once the
# feed drains, both servers' ingest queues must read 0 on /admin/status
# and /metrics. Last, a host created by one more acknowledged batch must
# survive a refresh, the compaction after it and another SIGKILL. Run
# via `make ingest-smoke`.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
CONTROL_PID=""
CRASH_PID=""
cleanup() {
    for pid in "$CONTROL_PID" "$CRASH_PID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
        [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

STREAM=8      # deltas in the feed
COMPACTED=4   # acknowledged batches the snapshot covers at the SIGKILL
CRASH_AFTER=6 # acknowledged batches before the SIGKILL

echo "ingest-smoke: building binaries"
$GO build -o "$WORK/genweb" ./cmd/genweb
$GO build -o "$WORK/spamserver" ./cmd/spamserver

echo "ingest-smoke: generating 10k-host graph with a $STREAM-batch churn stream"
"$WORK/genweb" -hosts 10000 -churn-stream $STREAM -out "$WORK/web" >/dev/null
for i in $(seq 1 $STREAM); do
    f=$(printf '%s.stream.%05d.delta' "$WORK/web" "$i")
    if [ ! -s "$f" ]; then
        echo "ingest-smoke: missing stream delta $f" >&2
        exit 1
    fi
done

# boot <addr-file> <log> [extra flags...] — start a server, leaving its
# PID in BOOT_PID. Not via $(boot …): a server started inside a command
# substitution is no child of this shell, so `wait` cannot reap it and
# the cleanup's rm -rf races the dying server's last compaction.
boot() {
    af=$1
    log=$2
    shift 2
    "$WORK/spamserver" -addr 127.0.0.1:0 -addr-file "$af" \
        -graph "$WORK/web.graph" -names "$WORK/web.names" -core "$WORK/web.core" \
        "$@" >/dev/null 2>"$log" &
    BOOT_PID=$!
}

# wait_addr <addr-file> <pid> <name> — block until the server binds.
wait_addr() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 300 ] || ! kill -0 "$2" 2>/dev/null; then
            echo "ingest-smoke: $3 never bound" >&2
            sed -n '1,40p' "$WORK"/*.log >&2
            exit 1
        fi
        sleep 0.1
    done
    cat "$1"
}

# post_delta <addr> <i> — apply stream delta i synchronously.
post_delta() {
    f=$(printf '%s.stream.%05d.delta' "$WORK/web" "$2")
    if ! curl -sS --fail --max-time 120 -X POST --data-binary "@$f" \
        "http://$1/admin/delta?wait=1" >/dev/null; then
        echo "ingest-smoke: delta $2 against $1 failed" >&2
        exit 1
    fi
}

# epoch_of <addr> — the served snapshot epoch.
epoch_of() {
    curl -sS --fail --max-time 30 "http://$1/admin/status" |
        sed 's/.*"epoch":\([0-9]*\).*/\1/'
}

# --- Control: never crashes, applies the whole feed. -----------------
boot "$WORK/control.addr" "$WORK/control.log"
CONTROL_PID=$BOOT_PID
CONTROL=$(wait_addr "$WORK/control.addr" "$CONTROL_PID" control)
echo "ingest-smoke: control on $CONTROL"
for i in $(seq 1 $STREAM); do
    post_delta "$CONTROL" "$i"
done

# --- Durable server: ack a prefix, SIGKILL, restart, finish. ---------
boot "$WORK/crash.addr" "$WORK/crash1.log" \
    -wal-dir "$WORK/wal" -compact-every 2s -wal-group-commit 1ms
CRASH_PID=$BOOT_PID
CRASH=$(wait_addr "$WORK/crash.addr" "$CRASH_PID" "durable server")
echo "ingest-smoke: durable server on $CRASH (wal: $WORK/wal)"
for i in $(seq 1 $COMPACTED); do
    post_delta "$CRASH" "$i"
done
# Wait for the 2s compactor to fold those batches into a snapshot, then
# acknowledge two more and kill at once: the next compaction tick is
# ~2s away, so the restart must load the snapshot AND replay a suffix.
SNAP=$(printf 'snap-%020d-' "$COMPACTED")
i=0
until ls "$WORK/wal/$SNAP"*.snap >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "ingest-smoke: no snapshot covering seq $COMPACTED after 10s" >&2
        ls -l "$WORK/wal" >&2
        exit 1
    fi
    sleep 0.1
done
for i in $(seq $((COMPACTED + 1)) $CRASH_AFTER); do
    post_delta "$CRASH" "$i"
done
echo "ingest-smoke: SIGKILL after $CRASH_AFTER acknowledged batches"
kill -9 "$CRASH_PID"
wait "$CRASH_PID" 2>/dev/null || true
CRASH_PID=""
if [ ! -d "$WORK/wal" ]; then
    echo "ingest-smoke: WAL directory missing after kill" >&2
    exit 1
fi

rm -f "$WORK/crash.addr"
boot "$WORK/crash.addr" "$WORK/crash2.log" \
    -wal-dir "$WORK/wal" -compact-every 2s -wal-group-commit 1ms
CRASH_PID=$BOOT_PID
CRASH=$(wait_addr "$WORK/crash.addr" "$CRASH_PID" "restarted server")
EPOCH=$(epoch_of "$CRASH")
WANT=$((CRASH_AFTER + 1))
if [ "$EPOCH" != "$WANT" ]; then
    echo "ingest-smoke: restarted server serves epoch $EPOCH, want recovered epoch $WANT" >&2
    sed -n '1,40p' "$WORK/crash2.log" >&2
    exit 1
fi
# The recovering boot publishes through the refresher like a cold one,
# so its telemetry must already describe the recovered epoch: the
# snapshot gauge on /metrics, and at least one drift-watchdog epoch.
METRIC_EPOCH=$(curl -sS --fail --max-time 30 "http://$CRASH/metrics" |
    sed -n 's/^serve_snapshot_epoch \([0-9]*\)$/\1/p')
DRIFT_EPOCHS=$(curl -sS --fail --max-time 30 "http://$CRASH/readyz?verbose" |
    sed -n 's/.*"drift":{"epochs":\([0-9]*\).*/\1/p')
if [ "$METRIC_EPOCH" != "$WANT" ] || [ "${DRIFT_EPOCHS:-0}" -lt 1 ]; then
    echo "ingest-smoke: restarted server's telemetry misses the recovered epoch $WANT:" \
        "serve_snapshot_epoch='$METRIC_EPOCH', drift epochs='$DRIFT_EPOCHS'" >&2
    exit 1
fi
echo "ingest-smoke: /metrics and /readyz?verbose report the recovered epoch $WANT"
REPLAYED=$((CRASH_AFTER - COMPACTED))
if ! grep -q "recovered $REPLAYED WAL batches" "$WORK/crash2.log"; then
    echo "ingest-smoke: restart did not replay the $REPLAYED-batch WAL suffix:" >&2
    sed -n '1,40p' "$WORK/crash2.log" >&2
    exit 1
fi
echo "ingest-smoke: restart replayed $REPLAYED WAL batches onto the snapshot (epoch $EPOCH)"

for i in $(seq $((CRASH_AFTER + 1)) $STREAM); do
    post_delta "$CRASH" "$i"
done
EPOCH=$(epoch_of "$CRASH")
CONTROL_EPOCH=$(epoch_of "$CONTROL")
if [ "$EPOCH" != "$CONTROL_EPOCH" ]; then
    echo "ingest-smoke: final epoch $EPOCH != control $CONTROL_EPOCH" >&2
    exit 1
fi

# Every batch of the feed has been applied, so both servers' ingest
# queues must read empty on both surfaces: a leaked pending count (a
# batch admitted and never settled) shows here.
for ADDR in "$CRASH" "$CONTROL"; do
    DEPTH=$(curl -sS --fail --max-time 30 "http://$ADDR/admin/status" |
        sed -n 's/.*"ingest_queue_depth":\([0-9]*\).*/\1/p')
    GAUGE=$(curl -sS --fail --max-time 30 "http://$ADDR/metrics" |
        sed -n 's/^serve_ingest_queue_depth \([^ ]*\)$/\1/p')
    if [ "$DEPTH" != 0 ] || [ "$GAUGE" != 0 ]; then
        echo "ingest-smoke: $ADDR has not drained its ingest queue:" \
            "ingest_queue_depth='$DEPTH', serve_ingest_queue_depth='$GAUGE'" >&2
        exit 1
    fi
done
echo "ingest-smoke: both ingest queues read 0 on /admin/status and /metrics"

# same_record <recovered-json> <control-json> — host, node, label,
# evaluated and epoch must be equal, the four scores within 1e-9.
same_record() {
    printf '%s\n%s\n' "$1" "$2" | awk '
        function field(s, k,    r) {
            if (!match(s, "\"" k "\":[^,}]*")) return "MISSING"
            r = substr(s, RSTART, RLENGTH)
            sub(/^[^:]*:/, "", r)
            return r
        }
        NR == 1 { a = $0 }
        NR == 2 { b = $0 }
        END {
            n = split("host node label evaluated epoch", exact, " ")
            for (i = 1; i <= n; i++)
                if (field(a, exact[i]) == "MISSING" || field(a, exact[i]) != field(b, exact[i])) {
                    print "  " exact[i] ": " field(a, exact[i]) " vs " field(b, exact[i]); bad = 1
                }
            n = split("pagerank core_pagerank abs_mass rel_mass", score, " ")
            for (i = 1; i <= n; i++) {
                d = field(a, score[i]) - field(b, score[i])
                if (field(a, score[i]) == "MISSING" || d > 1e-9 || d < -1e-9) {
                    print "  " score[i] ": " field(a, score[i]) " vs " field(b, score[i]); bad = 1
                }
            }
            exit bad
        }' >&2
}

# Crash+recover must be invisible in the served records: spot-check a
# spread of hosts against the control, field by field.
for HOST in $(sed -n '1p;1000p;5000p;9999p' "$WORK/web.names"); do
    A=$(curl -sS --fail --max-time 30 "http://$CRASH/v1/host/$HOST")
    B=$(curl -sS --fail --max-time 30 "http://$CONTROL/v1/host/$HOST")
    if ! same_record "$A" "$B"; then
        echo "ingest-smoke: $HOST diverged after recovery:" >&2
        echo "  recovered: $A" >&2
        echo "  control:   $B" >&2
        exit 1
    fi
done
echo "ingest-smoke: recovered scores match the never-crashed control"

# A refresh re-solves the served generation, so a host an acknowledged
# batch created must survive it, the compaction that persists the
# refreshed epoch, and a kill -9 after that.
NEW=refresh-smoke.example
printf 'delta 1\n+h %s\n+e %s %s\n+e %s %s\n' "$NEW" \
    "$(sed -n '1p' "$WORK/web.names")" "$NEW" "$NEW" "$(sed -n '1000p' "$WORK/web.names")" \
    >"$WORK/refresh.delta"
curl -sS --fail --max-time 120 -X POST --data-binary "@$WORK/refresh.delta" \
    "http://$CRASH/admin/delta?wait=1" >/dev/null
curl -sS --fail --max-time 120 -X POST "http://$CRASH/admin/refresh?wait=1" >/dev/null
EPOCH=$(epoch_of "$CRASH")
# host_status <addr> — the HTTP status of a lookup of $NEW.
host_status() {
    curl -sS -o /dev/null -w '%{http_code}' --max-time 30 "http://$1/v1/host/$NEW"
}
STATUS=$(host_status "$CRASH")
if [ "$STATUS" != 200 ]; then
    echo "ingest-smoke: refresh to epoch $EPOCH dropped $NEW, created by an acknowledged batch (status $STATUS)" >&2
    exit 1
fi
i=0
until ls "$WORK/wal/snap-"*"-$EPOCH.snap" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "ingest-smoke: no snapshot of the refreshed epoch $EPOCH after 10s" >&2
        ls -l "$WORK/wal" >&2
        exit 1
    fi
    sleep 0.1
done
kill -9 "$CRASH_PID"
wait "$CRASH_PID" 2>/dev/null || true
rm -f "$WORK/crash.addr"
boot "$WORK/crash.addr" "$WORK/crash3.log" \
    -wal-dir "$WORK/wal" -compact-every 2s -wal-group-commit 1ms
CRASH_PID=$BOOT_PID
CRASH=$(wait_addr "$WORK/crash.addr" "$CRASH_PID" "server restarted after the refresh")
STATUS=$(host_status "$CRASH")
RESTART_EPOCH=$(epoch_of "$CRASH")
if [ "$STATUS" != 200 ] || [ "$RESTART_EPOCH" != "$EPOCH" ]; then
    echo "ingest-smoke: after refresh, compaction and kill -9 the restart serves" \
        "epoch $RESTART_EPOCH (want $EPOCH) and answers $STATUS for $NEW (want 200)" >&2
    exit 1
fi
echo "ingest-smoke: $NEW survived a refresh, its compaction and kill -9 (epoch $EPOCH)"

kill "$CRASH_PID" 2>/dev/null || true
wait "$CRASH_PID" 2>/dev/null || true
CRASH_PID=""
kill "$CONTROL_PID" 2>/dev/null || true
wait "$CONTROL_PID" 2>/dev/null || true
CONTROL_PID=""
echo "ingest-smoke: OK"
