GO ?= go

.PHONY: build test bench microbench race vet fmt-check lint lint-json vectorcheck fuzz-smoke serve-smoke pagerank-smoke delta-smoke obs-smoke shard-smoke ingest-smoke verify clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench runs the repository benchmark (bench/, the command
# BENCHMARK.json declares): end-to-end workloads against real spamserver
# processes plus the per-layer figures. It is the only harness whose
# numbers are compared parent against change.
bench:
	$(GO) run ./bench

# microbench runs every in-package benchmark body once, so a benchmark
# that b.Fatals fails the gate; `go test` alone only compiles them.
microbench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Race-check everything: the solver engine and mass layer are the hot
# concurrent paths, but obs registries/spans and experiment batching
# are shared across goroutines too.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would rewrite any Go file under cmd,
# internal, bench or scripts. Analyzer fixtures under testdata/ are
# exempt: some are deliberately not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l cmd internal bench scripts | grep -v '/testdata/' || true); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint runs spamlint, the repo's own static-analysis suite
# (internal/analysis): sliceexport, floatcmp, metricname, plus spanend
# and lockbal on the shared CFG layer. Suppress intentional findings
# with `// lint:ignore <analyzer> <reason>`.
lint:
	$(GO) run ./cmd/spamlint ./...

# lint-json writes the machine-readable report (every finding,
# including suppressed ones with their lint:ignore reasons) to
# LINT_OUT; CI uploads it as a per-commit artifact. Exit status matches
# `make lint`.
LINT_OUT ?= spamlint.json
lint-json:
	$(GO) run ./cmd/spamlint -json -o $(LINT_OUT) ./...

# vectorcheck builds the engine with the debug guard that scans every
# solve result for NaN/±Inf/negative scores, and runs the pagerank and
# mass tests and the serve tests (TestServedAccuracy among them) under
# it.
vectorcheck:
	$(GO) test -tags vectorcheck ./internal/pagerank/ ./internal/mass/ ./internal/serve/

# fuzz-smoke gives each fuzz target a short budget; regressions in the
# decoders, host collapsing, mass derivation, or the /v1 JSON encoder
# and batch decoder surface fast.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadBinary -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz=FuzzReadText -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz=FuzzHostOf -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz=FuzzGapList -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz=FuzzCollapseToHosts -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz=FuzzDerive -fuzztime=$(FUZZTIME) ./internal/mass/
	$(GO) test -run='^$$' -fuzz=FuzzDeltaApply -fuzztime=$(FUZZTIME) ./internal/delta/
	$(GO) test -run='^$$' -fuzz=FuzzDeltaFold -fuzztime=$(FUZZTIME) ./internal/delta/
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) ./internal/ingest/
	$(GO) test -run='^$$' -fuzz=FuzzHostRecordJSON -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -run='^$$' -fuzz=FuzzBatchRequest -fuzztime=$(FUZZTIME) ./internal/serve/

# serve-smoke pins spamserver's flag surface (exactly the kept flags,
# removed ones rejected, flags the role does not read refused), boots it
# on an ephemeral port against a generated example graph, curls the
# health and query endpoints, forces a refresh, and shuts it down; then
# it sends SIGHUP into a 200k-host boot, which must bind and refresh.
serve-smoke:
	sh scripts/serve_smoke.sh

# pagerank-smoke drives cmd/pagerank end to end on a generated graph:
# binary and text copies print the same top-10, -core solves, a forced
# non-convergence prints converged=false and exits 0, the removed
# -solver and -walks flags are rejected, and pagerank, spammass and
# experiments all reject the removed -report, -trace, -metrics-out and
# -debug-addr sinks while spammass -v still streams residuals.
pagerank-smoke:
	sh scripts/pagerank_smoke.sh

# delta-smoke exercises the incremental refresh path end to end:
# generate a graph plus one churn delta, boot spamserver, POST the
# delta, and assert the snapshot generation advanced.
delta-smoke:
	sh scripts/delta_smoke.sh

# shard-smoke boots the 2-shard topology end to end: genweb -shards 2
# pre-partitions a graph, one spamserver per shard plus a -role=router
# front, routed lookups/batches/rankings, a cross-shard delta that
# must advance the generation fence with no torn view, and a SIGHUP the
# router must survive.
shard-smoke:
	sh scripts/shard_smoke.sh

# ingest-smoke is the end-to-end crash-recovery proof: a durable
# server (-wal-dir) is SIGKILLed mid-churn-stream, restarted on the
# same WAL, and must serve the recovered epoch and — after the rest of
# the stream — scores identical to a never-crashed control.
ingest-smoke:
	sh scripts/ingest_smoke.sh

# obs-smoke exercises the telemetry surface end to end: boot
# spamserver with tracing, the metric recorder, and the drift watchdog
# enabled, validate /metrics with the strict Prometheus parser
# (cmd/promcheck), check trace headers on a lookup, and assert a forced
# refresh grows the /admin/timeseries history and leaves its solve
# (pagerank.solve) in the /admin/flightrecorder span tree.
obs-smoke:
	sh scripts/obs_smoke.sh

# verify is the tier-1 gate: vet, gofmt, spamlint, full build, full
# test suite, the race detector over every package, the pagerank,
# mass and serve tests under the vectorcheck debug tag, and one
# run of every in-package benchmark.
verify: vet fmt-check lint build test race vectorcheck microbench
	@echo "verify: OK"

clean:
	$(GO) clean ./...
