#!/bin/sh
# bench_pairs.sh — alternated parent/change pairs of one bench workload.
#
# Usage: sh scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED0 N
#
# PARENT_DIR and CHANGE_DIR are two checkouts of the module (make the
# parent one with `git clone` or `git archive`). The script builds each
# tree's `bench` once, runs one discarded warm-up per side at seed
# SEED0-1, then N pairs at seeds SEED0 .. SEED0+N-1, the parent first in
# odd pairs and the change first in even ones. Each run is
#
#     bench --workload WORKLOAD --seed S --seconds $BENCH_SECONDS --trace 0
#
# started in its own tree (BENCH_SECONDS defaults to 10, the length
# BENCHMARK.json declares), and only its last stdout line, the result
# line, is read. For every end-to-end metric the script prints each
# pair, then the medians and quartiles of both sides, the pairs the
# change won (by the direction BENCHMARK.json gives the metric), the
# relative gap between the medians and the parent's IQR. It writes
# nothing in either tree beyond what `bench` itself writes to bench/out.
set -eu

if [ $# -ne 5 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD SEED0 N" >&2
    exit 2
fi
GO=${GO:-go}
SECS=${BENCH_SECONDS:-10}
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
WORKLOAD=$3
SEED0=$4
N=$5
case "$SEED0$N" in *[!0-9]*) echo "bench_pairs: SEED0 and N must be integers" >&2; exit 2 ;; esac
if [ "$N" -lt 1 ] || [ "$SEED0" -lt 1 ]; then
    echo "bench_pairs: need SEED0 ≥ 1 and N ≥ 1" >&2
    exit 2
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

dir_of() { if [ "$1" = parent ]; then echo "$PARENT"; else echo "$CHANGE"; fi; }

for side in parent change; do
    echo "bench_pairs: building $side bench ($(dir_of $side))" >&2
    (cd "$(dir_of $side)" && $GO build -o "$WORK/bench-$side" ./bench)
done

# run SIDE SEED appends "SIDE SEED RESULT_LINE" to $WORK/results; a run
# that prints no result line is reported and leaves a gap in its pair.
run() {
    log="$WORK/$1-$2.log"
    status=0
    (cd "$(dir_of "$1")" && "$WORK/bench-$1" --workload "$WORKLOAD" --seed "$2" --seconds "$SECS" --trace 0) \
        >"$WORK/out" 2>"$log" || status=$?
    line=$(tail -n 1 "$WORK/out")
    case "$line" in
    '{'*) echo "$1 $2 $line" >>"$WORK/results" ;;
    *) echo "bench_pairs: $1 seed $2 printed no result line (exit $status); its log ends:" >&2
       tail -n 5 "$log" >&2
       return 0 ;;
    esac
    if [ "$status" -ne 0 ]; then
        echo "bench_pairs: $1 seed $2 exited $status (a failed check); its result is kept" >&2
    fi
    echo "bench_pairs: $1 seed $2 done" >&2
}

: >"$WORK/results"
warm=$((SEED0 - 1))
run parent "$warm"
run change "$warm"
: >"$WORK/results" # the warm-ups are discarded
i=0
while [ "$i" -lt "$N" ]; do
    seed=$((SEED0 + i))
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$seed"; run change "$seed"
    else
        run change "$seed"; run parent "$seed"
    fi
    i=$((i + 1))
done

# Directions come from the change tree's BENCHMARK.json: "name" lines
# followed by their "better" line.
awk -F'"' '/"name":/ {name = $4} /"better":/ {print name, $4}' "$CHANGE/BENCHMARK.json" >"$WORK/better"

# One "metric side seed value" row per metric of every result line,
# plus each run's correct/attempted/failed.
awk '{
    side = $1; seed = $2
    line = $0; sub(/^[^{]*/, "", line)
    s = line
    while (match(s, /"[a-z0-9_.]+":\{"value":[-+0-9.eE]+/)) {
        m = substr(s, RSTART + 1, RLENGTH - 1)
        s = substr(s, RSTART + RLENGTH)
        name = m; sub(/".*/, "", name)
        val = m; sub(/.*"value":/, "", val)
        print name, side, seed, val
    }
    att = line; sub(/.*"attempted":/, "", att); sub(/[^0-9].*/, "", att)
    fl = line; sub(/.*"failed":/, "", fl); sub(/[^0-9].*/, "", fl)
    ok = (line ~ /"correct":true/) ? 1 : 0
    print "#ops", side, seed, att, fl, ok
}' "$WORK/results" >"$WORK/rows"

echo "bench_pairs: $WORKLOAD, seeds $SEED0..$((SEED0 + N - 1)), warm-up seed $warm discarded, ${SECS}s runs"
awk '$1 == "#ops" { att[$2] += $4; fail[$2] += $5; bad[$2] += 1 - $6 }
END {
    for (s in att) printf "%s: %d operations attempted, %d failed (%.4f%%), %d runs with a failed check\n",
        s, att[s], fail[s], att[s] ? 100 * fail[s] / att[s] : 0, bad[s]
}' "$WORK/rows" | sort

awk -v n="$N" -v seed0="$SEED0" '
function sortv(a, k,    i, j, t) {
    for (i = 2; i <= k; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
}
# q is the p-quantile of the sorted a[1..k], linearly interpolated.
function q(a, k, p,    h, lo) {
    h = (k - 1) * p + 1; lo = int(h)
    if (lo >= k) return a[k]
    return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
FILENAME ~ /better$/ { better[$1] = $2; next }
$1 == "#ops" { next }
{ v[$1, $2, $3] = $4; if (!($1 in seen)) { seen[$1] = 1; names[++nm] = $1 } }
END {
    for (i = 1; i <= nm; i++) {
        m = names[i]; dir = (m in better) ? better[m] : "lower"
        kp = kc = won = pairs = 0
        line = ""
        for (s = seed0; s < seed0 + n; s++) {
            hp = ((m, "parent", s) in v); hc = ((m, "change", s) in v)
            if (hp) P[++kp] = v[m, "parent", s] + 0
            if (hc) C[++kc] = v[m, "change", s] + 0
            if (hp && hc) {
                pairs++
                d = v[m, "change", s] - v[m, "parent", s]
                if ((dir == "lower" && d < 0) || (dir == "higher" && d > 0)) won++
            }
            line = line sprintf(" %s/%s", hp ? v[m, "parent", s] : "-", hc ? v[m, "change", s] : "-")
        }
        if (kp == 0 || kc == 0) continue
        sortv(P, kp); sortv(C, kc)
        pm = q(P, kp, .5); cm = q(C, kc, .5); piqr = q(P, kp, .75) - q(P, kp, .25)
        gap = cm - pm; if (gap < 0) gap = -gap
        printf "\n%s (%s is better)\n  pairs parent/change:%s\n", m, dir, line
        printf "  parent median %.6g [Q1 %.6g, Q3 %.6g]   change median %.6g [Q1 %.6g, Q3 %.6g]\n",
            pm, q(P, kp, .25), q(P, kp, .75), cm, q(C, kc, .25), q(C, kc, .75)
        printf "  change %+.1f%%, won %d/%d pairs; |gap| %.4g vs parent IQR %.4g (%.1f%% of its median): %s\n",
            pm ? 100 * (cm - pm) / pm : 0, won, pairs, gap, piqr, pm ? 100 * piqr / pm : 0,
            (gap > piqr) ? "gap exceeds IQR" : "gap inside IQR"
    }
}' "$WORK/better" "$WORK/rows"
