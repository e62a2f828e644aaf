// Command spamserver serves spam-mass queries over HTTP. It loads a
// host graph, name file, and good core, runs the mass estimator
// (Algorithm 2 inputs), and answers lookups against an immutable
// snapshot that a background refresher atomically replaces — readers
// never block and never see a half-built generation.
//
// Usage:
//
//	spamserver -addr :8080 -graph web.graph -names web.names -core web.core
//	           [-tau 0.98] [-rho 10] [-gamma 0.85] [-damping 0.85]
//	           [-refresh 15m] [-refresh-timeout 5m]
//	           [-delta-watch path.delta] [-delta-poll 2s]
//	           [-wal-dir path] [-compact-every 1m] [-wal-group-commit 0]
//	           [-ingest-queue 16]
//	           [-max-inflight 256] [-timeout 5s] [-max-batch 1000]
//	           [-addr-file path] [-debug-addr :6060] [-v]
//	           [-metrics=true] [-tracing=true] [-sample-interval 15s]
//	           [-flight-dir path] [-drift-window 12] [-drift-z 4]
//
// Endpoints: GET /v1/host/{name}, POST /v1/batch, GET /v1/top,
// GET /healthz, GET /readyz, POST /admin/refresh, POST /admin/delta,
// GET /admin/status, GET /metrics, GET /admin/timeseries,
// GET /admin/flightrecorder.
//
// With -role=router the process serves the same /v1 API without any
// local snapshot: it fronts a set of shard nodes (each a plain
// spamserver over one partition of the host space, see genweb
// -shards), routing point lookups to the owning shard, fanning
// batches out and reassembling them aligned, and merging per-shard
// rankings. A cross-shard POST /admin/delta is split by owner,
// applied to every replica of each touched shard, and published
// behind a generation fence — the router never serves a generation a
// touched shard has not reached.
//
//	spamserver -role=router -addr :8080 \
//	           -shards 'http://s0a:8081,http://s0b:8082;http://s1a:8083' \
//	           [-hedge-after 100ms] [-probe-interval 1s]
//
// Shards are separated by semicolons, replicas of one shard by
// commas; shard order must match the partitioner (graph.ShardOf with
// n = number of shards).
//
// Telemetry is on by default: /metrics serves the registry in
// Prometheus text format (disable with -metrics=false), every request
// carries a trace ID echoed in X-Trace-Id/Traceparent response
// headers, a ring-buffer sampler keeps a day of metric history behind
// /admin/timeseries, slow and failed requests land in the flight
// recorder behind /admin/flightrecorder (with -flight-dir, failed
// refreshes also dump their span tree to disk), and a drift watchdog
// fingerprints every published epoch, alerting on serve.drift_* and
// /readyz?verbose when the detector's operating point jumps.
//
// Refreshes reload all three input files from disk, so replacing them
// in place and sending SIGHUP (or POST /admin/refresh) picks up a new
// crawl without a restart. A refresh that fails — unreadable inputs,
// solver non-convergence, NaN/Inf in the result — leaves the previous
// snapshot serving. SIGINT/SIGTERM drain in-flight requests before
// exit. -addr-file writes the bound address (useful with -addr :0).
//
// Between full refreshes the graph can evolve incrementally: POST a
// mutation batch in the delta text format to /admin/delta (?wait=1 to
// apply synchronously), or point -delta-watch at a delta file that a
// churn source rewrites — the server polls its mtime every -delta-poll
// and applies the new batch. Each applied batch advances the epoch by
// one; the estimation warm-starts from the previous snapshot's
// vectors, so small-churn batches converge in a fraction of a cold
// rebuild's iterations.
//
// With -wal-dir the ingest path becomes durable: every accepted delta
// batch is fsynced to a segmented write-ahead log before the server
// acknowledges it, a compactor folds the applied prefix into a
// persisted snapshot every -compact-every, and on boot the server
// recovers — last snapshot plus WAL replay — instead of rebuilding
// cold, so kill -9 at any point loses nothing acknowledged. A full
// ingest queue (-ingest-queue) answers 429 + Retry-After.
// -wal-group-commit batches fsyncs across concurrent submitters.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spammass/internal/cliobs"
	"spammass/internal/delta"
	"spammass/internal/graph"
	"spammass/internal/ingest"
	"spammass/internal/mass"
	"spammass/internal/obs"
	"spammass/internal/pagerank"
	"spammass/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address (use :0 with -addr-file for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file after startup")
	graphPath := flag.String("graph", "", "graph file (binary or text format)")
	namesPath := flag.String("names", "", "host-name file: one name per line")
	corePath := flag.String("core", "", "good-core file: one node ID per line")
	tau := flag.Float64("tau", 0.98, "relative mass threshold τ")
	rho := flag.Float64("rho", 10, "scaled PageRank threshold ρ")
	gamma := flag.Float64("gamma", 0.85, "core jump scaling ‖w‖ = γ")
	damping := flag.Float64("damping", 0.85, "damping factor c")
	refresh := flag.Duration("refresh", 0, "re-estimate from the input files this often (0 = only on SIGHUP / POST /admin/refresh)")
	refreshTimeout := flag.Duration("refresh-timeout", 0, "abort a refresh attempt after this long (0 = unbounded)")
	deltaWatch := flag.String("delta-watch", "", "watch this delta file and apply each new batch incrementally")
	deltaPoll := flag.Duration("delta-poll", 2*time.Second, "poll interval for -delta-watch")
	walDir := flag.String("wal-dir", "", "durability directory: fsync every delta batch to a WAL here before acknowledging, and recover from it on boot")
	compactEvery := flag.Duration("compact-every", time.Minute, "fold the applied WAL prefix into a persisted snapshot this often (needs -wal-dir)")
	groupCommit := flag.Duration("wal-group-commit", 0, "batch WAL fsyncs across submitters arriving within this window (0 = fsync per append)")
	ingestQueue := flag.Int("ingest-queue", 0, "ingest queue capacity before /admin/delta answers 429 (0 = default)")
	maxInflight := flag.Int("max-inflight", serve.DefaultMaxInFlight, "concurrent /v1/* requests before shedding with 429")
	reqTimeout := flag.Duration("timeout", serve.DefaultTimeout, "per-request deadline")
	maxBatch := flag.Int("max-batch", serve.DefaultMaxBatch, "host limit per POST /v1/batch")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof/ on this address")
	verbose := flag.Bool("v", false, "log refreshes and solver progress to stderr")
	metrics := flag.Bool("metrics", true, "serve Prometheus text exposition at GET /metrics")
	tracing := flag.Bool("tracing", true, "per-request trace IDs, flight recorder, and admin span trees")
	sampleInterval := flag.Duration("sample-interval", 15*time.Second, "metric history sampling interval for /admin/timeseries (0 disables history)")
	flightDir := flag.String("flight-dir", "", "write failed-refresh span trees to this directory")
	driftWindow := flag.Int("drift-window", 12, "trailing epochs the drift watchdog compares against")
	driftZ := flag.Float64("drift-z", 4, "bounded z-score above which an epoch fingerprint counts as drifted")
	role := flag.String("role", "serve", "serve (one local snapshot) or router (front a shard topology)")
	shardsSpec := flag.String("shards", "", "router topology: shards separated by ';', replica URLs within a shard by ','")
	hedgeAfter := flag.Duration("hedge-after", 100*time.Millisecond, "router: race a second replica when a shard reply is this late (0 disables)")
	probeInterval := flag.Duration("probe-interval", time.Second, "router: shard health probe period")
	flag.Parse()
	switch *role {
	case "serve":
		if *graphPath == "" || *namesPath == "" || *corePath == "" {
			die("missing -graph, -names, or -core")
		}
	case "router":
		if *shardsSpec == "" {
			die("-role=router needs -shards")
		}
	default:
		die("unknown -role %q (want serve or router)", *role)
	}

	// A server keeps metrics on at all times — they are the interface
	// operators scrape — with logging and the debug endpoint opt-in.
	reg := obs.NewRegistry()
	octx := obs.NewContext(reg, nil)
	if *verbose {
		octx = octx.WithLogf(obs.StderrLogf(os.Stderr))
	}
	if *debugAddr != "" {
		dbg, err := obs.StartDebug(*debugAddr, reg)
		if err != nil {
			die("debug endpoint: %v", err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug endpoint: http://%s/debug/vars http://%s/debug/pprof/\n", dbg.Addr(), dbg.Addr())
	}

	if *role == "router" {
		if *walDir != "" {
			die("-wal-dir applies to -role=serve; shards own their WALs, the router holds no state")
		}
		runRouter(routerOptions{
			addr:          *addr,
			addrFile:      *addrFile,
			shardsSpec:    *shardsSpec,
			hedgeAfter:    *hedgeAfter,
			probeInterval: *probeInterval,
			maxInflight:   *maxInflight,
			reqTimeout:    *reqTimeout,
			maxBatch:      *maxBatch,
			metrics:       *metrics,
			tracing:       *tracing,
			octx:          octx,
		})
		return
	}

	dcfg := mass.DetectConfig{RelMassThreshold: *tau, ScaledPageRankThreshold: *rho}
	// Solve telemetry: the latest solve's iteration count as a gauge,
	// so convergence regressions show up on a dashboard next to
	// pagerank.iterations_total.
	solveIters := octx.Gauge("pagerank.solve_iterations")
	solver := pagerank.Config{Damping: *damping, Epsilon: 1e-10, MaxIter: 1000, Obs: octx,
		OnStats: func(st *pagerank.SolveStats) { solveIters.Set(float64(st.Iterations)) }}
	build := func(ctx context.Context, prev *serve.Snapshot, epoch int64) (*serve.Snapshot, error) {
		g, _, err := graph.LoadFile(*graphPath, octx)
		if err != nil {
			return nil, fmt.Errorf("load graph: %w", err)
		}
		names, err := cliobs.LoadLines(*namesPath)
		if err != nil {
			return nil, fmt.Errorf("load names: %w", err)
		}
		h, err := graph.NewHostGraph(g, names)
		if err != nil {
			return nil, fmt.Errorf("host graph: %w", err)
		}
		core, err := cliobs.LoadNodeIDs(*corePath, g.NumNodes())
		if err != nil {
			return nil, fmt.Errorf("load core: %w", err)
		}
		est, err := mass.EstimateFromCore(g, core, mass.Options{Solver: solver, Gamma: *gamma})
		if err != nil {
			return nil, fmt.Errorf("estimate: %w", err)
		}
		return serve.NewSnapshot(h, est, serve.SnapshotConfig{
			Detect:   dcfg,
			Gamma:    *gamma,
			CoreSize: len(core),
			// Carrying the core lets /admin/delta apply batches on top
			// of this snapshot with the core remapped, not reloaded.
			Core: core,
		}, epoch)
	}

	var recorder *obs.Recorder
	if *sampleInterval > 0 {
		recorder = obs.NewRecorder(reg, obs.RecorderConfig{Interval: *sampleInterval})
	}
	var flight *obs.FlightRecorder
	if *tracing {
		flight = obs.NewFlightRecorder(obs.FlightConfig{})
	}
	watchdog := serve.NewWatchdog(serve.WatchdogConfig{
		Window: *driftWindow, ZThreshold: *driftZ, Obs: octx,
	})

	var pl *ingest.Pipeline
	rcfg := serve.RefresherConfig{
		Interval:   *refresh,
		Timeout:    *refreshTimeout,
		ApplyDelta: serve.NewDeltaBuilder(serve.DeltaBuilderConfig{Solver: solver, Obs: octx}),
		DeltaQueue: *ingestQueue,
		Obs:        octx,
		Recorder:   recorder,
		Watchdog:   watchdog,
		Flight:     flight,
		FlightDir:  *flightDir,
	}
	if *walDir != "" {
		var err error
		pl, err = ingest.Open(ingest.Config{
			Dir:          *walDir,
			GroupCommit:  *groupCommit,
			CompactEvery: *compactEvery,
			Obs:          octx,
		})
		if err != nil {
			die("opening WAL: %v", err)
		}
		rcfg.Journal = pl
	}

	store := serve.NewStore()
	ref := serve.NewRefresher(store, build, rcfg)
	// Fail fast if the boot cannot produce even one snapshot; after
	// that, refresh failures only log and the old snapshot keeps serving.
	startCtx, startCancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	if pl != nil {
		// Durable boot: last persisted snapshot (or the initial build
		// when none exists) plus the WAL suffix folded onto it and
		// solved once, exactly. kill -9 at any byte offset recovers every
		// acknowledged batch.
		base, baseSeq, err := pl.Latest(dcfg, 0)
		if err != nil {
			startCancel()
			die("loading snapshot: %v", err)
		}
		if base == nil {
			if base, err = build(startCtx, nil, 1); err != nil {
				startCancel()
				die("initial snapshot: %v", err)
			}
			baseSeq = 0
		}
		recovered, replayed, err := pl.Recover(startCtx, base, baseSeq, solver)
		if err != nil {
			startCancel()
			die("WAL recovery: %v", err)
		}
		if err := store.Publish(recovered); err != nil {
			startCancel()
			die("publishing recovered snapshot: %v", err)
		}
		if replayed > 0 {
			fmt.Fprintf(os.Stderr, "spamserver: recovered %d WAL batches, serving epoch %d\n", replayed, recovered.Epoch())
		}
	} else if err := ref.Refresh(startCtx); err != nil {
		startCancel()
		die("initial snapshot: %v", err)
	}
	startCancel()

	srv := serve.NewServer(store, ref, serve.Config{
		MaxInFlight:    *maxInflight,
		Timeout:        *reqTimeout,
		MaxBatch:       *maxBatch,
		Obs:            octx,
		Tracing:        *tracing,
		Flight:         flight,
		Recorder:       recorder,
		Watchdog:       watchdog,
		DisableMetrics: !*metrics,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		die("listen: %v", err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			die("write addr file: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "spamserver: serving %d hosts (epoch %d) on http://%s\n",
		store.Load().NumHosts(), store.Epoch(), ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	runCtx, stopRefresher := context.WithCancel(context.Background())
	refresherDone := make(chan struct{})
	go func() {
		defer close(refresherDone)
		ref.Run(runCtx)
	}()
	if recorder != nil {
		go recorder.Run(runCtx)
	}
	compactorDone := make(chan struct{})
	if pl != nil {
		go func() {
			defer close(compactorDone)
			pl.RunCompactor(runCtx)
		}()
	} else {
		close(compactorDone)
	}
	if *deltaWatch != "" {
		go watchDelta(runCtx, *deltaWatch, *deltaPoll, ref, octx)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	shutdownErr := make(chan error, 1)
	go func() {
		for sig := range sigs {
			if sig == syscall.SIGHUP {
				octx.Logf("spamserver: SIGHUP, scheduling refresh")
				ref.Trigger()
				continue
			}
			fmt.Fprintf(os.Stderr, "spamserver: %s, draining\n", sig)
			stopRefresher()
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			shutdownErr <- hs.Shutdown(ctx)
			cancel()
			return
		}
	}()

	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		die("serve: %v", err)
	}
	if err := <-shutdownErr; err != nil {
		die("shutdown: %v", err)
	}
	stopRefresher()
	<-refresherDone
	<-compactorDone
	if pl != nil {
		if err := pl.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "spamserver: closing WAL: %v\n", err)
		}
	}
}

// watchDelta polls path and enqueues its batch whenever the file
// changes. A file already present at boot is treated as consumed —
// the initial snapshot was just built from the full inputs, so an old
// delta must not be replayed on top of it. Read or submit failures
// log and leave the marker untouched, so the next poll retries.
func watchDelta(ctx context.Context, path string, every time.Duration, ref *serve.Refresher, octx *obs.Context) {
	if every <= 0 {
		every = 2 * time.Second
	}
	type mark struct {
		mtime time.Time
		size  int64
	}
	var last mark
	if fi, err := os.Stat(path); err == nil {
		last = mark{fi.ModTime(), fi.Size()}
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		fi, err := os.Stat(path)
		if err != nil {
			continue // not written yet, or mid-rename
		}
		cur := mark{fi.ModTime(), fi.Size()}
		if cur == last {
			continue
		}
		b, err := delta.ReadFile(path)
		if err != nil {
			octx.Logf("spamserver: delta watch: %v", err)
			continue
		}
		if err := ref.SubmitDelta(b); err != nil {
			octx.Logf("spamserver: delta watch: %v", err)
			continue
		}
		octx.Logf("spamserver: delta watch: submitted %d ops from %s", b.NumOps(), path)
		last = cur
	}
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
