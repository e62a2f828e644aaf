#!/bin/sh
# pagerank_smoke.sh — end-to-end smoke test for cmd/pagerank.
#
# Generates a 5k-host synthetic web graph twice, once in the binary
# format and once with -text, and checks that pagerank prints the same
# top-10 for both (webgen refuses much smaller worlds: their good core
# is too small to split). Then it runs a core-based solve with -core,
# forces non-convergence with -epsilon 1e-300 (the command must print
# converged=false and still exit 0), checks that -damping NaN and
# -epsilon NaN exit non-zero and that spammass -tau/-rho NaN and
# experiments -rho NaN exit 1, checks that the removed -solver
# and -walks flags and the removed telemetry sinks (-report, -trace,
# -metrics-out, -debug-addr) are rejected by the flag package of
# pagerank, spammass and experiments, and that spammass -v still
# streams solver residuals. Exits non-zero on any failed check. Run
# via `make pagerank-smoke`.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

echo "pagerank-smoke: building binaries"
$GO build -o "$WORK/genweb" ./cmd/genweb
$GO build -o "$WORK/pagerank" ./cmd/pagerank

echo "pagerank-smoke: generating 5k-host example graph (binary and text)"
"$WORK/genweb" -hosts 5000 -out "$WORK/bin" >/dev/null
"$WORK/genweb" -hosts 5000 -text -out "$WORK/text" >/dev/null

"$WORK/pagerank" -graph "$WORK/bin.graph" -top 10 >"$WORK/bin.top" 2>"$WORK/bin.log"
"$WORK/pagerank" -graph "$WORK/text.graph" -top 10 >"$WORK/text.top" 2>"$WORK/text.log"
if [ "$(wc -l <"$WORK/bin.top")" -ne 11 ]; then
    echo "pagerank-smoke: want a header and 10 rows, got:" >&2
    cat "$WORK/bin.top" >&2
    exit 1
fi
if ! cmp -s "$WORK/bin.top" "$WORK/text.top"; then
    echo "pagerank-smoke: binary and text graphs print different top-10s:" >&2
    diff "$WORK/bin.top" "$WORK/text.top" >&2 || true
    exit 1
fi
if ! grep -q 'converged=true' "$WORK/bin.log"; then
    echo "pagerank-smoke: uniform solve did not converge:" >&2
    cat "$WORK/bin.log" >&2
    exit 1
fi
echo "pagerank-smoke: binary and text graphs print the same top-10"

"$WORK/pagerank" -graph "$WORK/bin.graph" -core "$WORK/bin.core" -top 10 >"$WORK/core.top" 2>"$WORK/core.log"
if ! grep -q 'converged=true' "$WORK/core.log" || [ "$(wc -l <"$WORK/core.top")" -ne 11 ]; then
    echo "pagerank-smoke: -core solve failed:" >&2
    cat "$WORK/core.log" "$WORK/core.top" >&2
    exit 1
fi
echo "pagerank-smoke: -core solve converged"

# At c = 0.85 the uniform solve on this world reaches an exact
# floating-point fixpoint (a step of 0 < 1e-300) in under 200 sweeps;
# c = 0.99 keeps the step positive through all 1000.
if ! "$WORK/pagerank" -graph "$WORK/bin.graph" -epsilon 1e-300 -damping 0.99 -top 3 >/dev/null 2>"$WORK/trunc.log"; then
    echo "pagerank-smoke: -epsilon 1e-300 exited non-zero:" >&2
    cat "$WORK/trunc.log" >&2
    exit 1
fi
if ! grep -q 'converged=false' "$WORK/trunc.log"; then
    echo "pagerank-smoke: -epsilon 1e-300 did not report converged=false:" >&2
    cat "$WORK/trunc.log" >&2
    exit 1
fi
echo "pagerank-smoke: -epsilon 1e-300 reports converged=false and exits 0"

# NaN compares false to everything, so a range check written with <=
# and >= would let it through to print NaN scores or spin to MaxIter.
for bad in "-damping NaN" "-epsilon NaN"; do
    # $bad is unquoted on purpose: it splits into a flag and its value.
    if "$WORK/pagerank" -graph "$WORK/bin.graph" $bad -top 3 >/dev/null 2>"$WORK/nan.log"; then
        echo "pagerank-smoke: $bad exited 0:" >&2
        cat "$WORK/nan.log" >&2
        exit 1
    fi
done
echo "pagerank-smoke: -damping NaN and -epsilon NaN exit non-zero"

# Removed flags: only Jacobi is left, so there is no solver to choose
# and no Monte-Carlo walk count to set; and no batch command writes a
# run report, a span trace or a metrics file, or serves a debug
# endpoint any more. Each binary must reject each of its removed flags
# through the flag package.
SINKS="-report=r.json -trace=t.json -metrics-out=m.prom -debug-addr=127.0.0.1:0"
# reject <binary> <flag>...
reject() {
    bin=$1
    shift
    for removed in "$@"; do
        if "$WORK/$bin" "$removed" -graph "$WORK/bin.graph" -core "$WORK/bin.core" >/dev/null 2>"$WORK/removed.log"; then
            echo "pagerank-smoke: $bin accepted removed flag $removed" >&2
            exit 1
        fi
        if ! grep -q "flag provided but not defined: ${removed%%=*}" "$WORK/removed.log"; then
            echo "pagerank-smoke: removed flag $removed not rejected by $bin's flag package:" >&2
            cat "$WORK/removed.log" >&2
            exit 1
        fi
    done
}
$GO build -o "$WORK/spammass" ./cmd/spammass
$GO build -o "$WORK/experiments" ./cmd/experiments
# $SINKS is unquoted on purpose: it splits into one flag per word.
reject pagerank -solver=jacobi -walks=5 $SINKS
reject spammass $SINKS
reject experiments $SINKS
echo "pagerank-smoke: removed flags are rejected by pagerank, spammass and experiments"

# Algorithm 2 compares against tau and rho, and NaN compares false to
# everything: a NaN -rho would filter out no node and a NaN -tau would
# keep none.
# spammass and experiments must exit 1 and name the bad value.
for check in "spammass -tau" "spammass -rho" "experiments -rho"; do
    bin=${check% *}
    bad=${check#* }
    args="-run fig1"
    if [ "$bin" = spammass ]; then
        args="-graph $WORK/bin.graph -core $WORK/bin.core"
    fi
    status=0
    # $args is unquoted on purpose: it splits into flags and values.
    "$WORK/$bin" $args "$bad" NaN >/dev/null 2>"$WORK/nan.log" || status=$?
    if [ "$status" -ne 1 ] || ! grep -q -- "$bad NaN" "$WORK/nan.log"; then
        echo "pagerank-smoke: $bin $bad NaN exited $status without naming the value:" >&2
        cat "$WORK/nan.log" >&2
        exit 1
    fi
done
echo "pagerank-smoke: spammass -tau/-rho NaN and experiments -rho NaN exit 1"

# -v is the one telemetry flag the batch commands keep.
if ! "$WORK/spammass" -graph "$WORK/bin.graph" -core "$WORK/bin.core" -top 3 -v >/dev/null 2>"$WORK/verbose.log" ||
    ! grep -q 'residual=' "$WORK/verbose.log"; then
    echo "pagerank-smoke: spammass -v printed no solver residuals:" >&2
    cat "$WORK/verbose.log" >&2
    exit 1
fi
echo "pagerank-smoke: spammass -v streams solver residuals to stderr"
echo "pagerank-smoke: OK"
