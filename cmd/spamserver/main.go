// Command spamserver serves spam-mass queries over HTTP. It loads a
// host graph, name file, and good core, runs the mass estimator
// (Algorithm 2 inputs), and answers lookups against an immutable
// snapshot that a background refresher atomically replaces — readers
// never block and never see a half-built generation.
//
// Usage:
//
//	spamserver -addr :8080 -graph web.graph -names web.names -core web.core
//	           [-wal-dir path] [-compact-every 1m] [-wal-group-commit 0]
//	           [-addr-file path] [-debug-addr :6060] [-v]
//	           [-sample-interval 15s] [-flight-dir path]
//
// The detector runs at the paper's operating point (c = γ = 0.85,
// ρ = 10, τ = 0.98; serve.DefaultGenerator builds every generation,
// from a full refresh, a delta build or WAL recovery, pushing p and p′
// to ε = 1e-11 with Gauss-Southwell), the request path at serve's
// defaults (256 in flight, 5 s deadline, 1000-host batches).
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
//	           [-probe-interval 1s]
//
// Shards are separated by semicolons, replicas of one shard by
// commas; shard order must match the partitioner (graph.ShardOf with
// n = number of shards). A flag the chosen role does not read is an
// error, as are -compact-every and -wal-group-commit without -wal-dir.
//
// Telemetry is always on: /metrics serves the registry in Prometheus
// text format, every request carries a trace ID echoed in
// X-Trace-Id/Traceparent response headers, a ring-buffer sampler
// keeps a day of metric history behind /admin/timeseries, slow and
// failed requests land in the flight recorder behind
// /admin/flightrecorder (with -flight-dir, failed refreshes also dump
// their span tree to disk), and a drift watchdog fingerprints every
// published epoch, alerting on serve.drift_* and /readyz?verbose when
// the detector's operating point jumps.
//
// Refreshes reload all three input files from disk, so replacing them
// in place and sending SIGHUP (or POST /admin/refresh) picks up a new
// crawl without a restart; schedule reloads with cron and either. A
// SIGHUP during boot is held and runs one refresh once the server is
// up. A refresh that fails — unreadable inputs, solver
// non-convergence, NaN/Inf in the result — leaves the previous
// snapshot serving. SIGINT/SIGTERM cancel a boot in progress and
// drain in-flight requests before exit. -addr-file writes the bound
// address (useful with -addr :0).
//
// Between full refreshes the graph can evolve incrementally: POST a
// mutation batch in the delta text format to /admin/delta (?wait=1 to
// wait for its apply, behind every batch queued before it). Batches
// apply in arrival order, each advancing the epoch by one;
// the same push solve warm-starts from the previous snapshot's
// vectors, so a small-churn batch pushes fewer edges than a cold
// rebuild. A full ingest queue (serve.DefaultDeltaQueue batches)
// answers 429 + Retry-After.
//
// With -wal-dir the ingest path becomes durable: every accepted delta
// batch is fsynced to a segmented write-ahead log before the server
// acknowledges it, a compactor folds the applied prefix into a
// persisted snapshot every -compact-every, and on boot the server
// recovers — last snapshot plus WAL replay — instead of rebuilding
// cold, so kill -9 at any point loses nothing acknowledged.
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
	"slices"
	"sync"
	"syscall"
	"time"

	"spammass/internal/cliobs"
	"spammass/internal/graph"
	"spammass/internal/ingest"
	"spammass/internal/mass"
	"spammass/internal/obs"
	"spammass/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address (use :0 with -addr-file for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file after startup")
	graphPath := flag.String("graph", "", "graph file (binary or text format)")
	namesPath := flag.String("names", "", "host-name file: one name per line")
	corePath := flag.String("core", "", "good-core file: one node ID per line")
	walDir := flag.String("wal-dir", "", "durability directory: fsync every delta batch to a WAL here before acknowledging, and recover from it on boot")
	compactEvery := flag.Duration("compact-every", time.Minute, "fold the applied WAL prefix into a persisted snapshot this often (needs -wal-dir)")
	groupCommit := flag.Duration("wal-group-commit", 0, "batch WAL fsyncs across submitters arriving within this window (0 = fsync per append; needs -wal-dir)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof/ on this address")
	verbose := flag.Bool("v", false, "log refreshes and solver progress to stderr")
	sampleInterval := flag.Duration("sample-interval", 15*time.Second, "metric history sampling interval for /admin/timeseries (0 disables history)")
	flightDir := flag.String("flight-dir", "", "write failed-refresh span trees to this directory")
	role := flag.String("role", "serve", "serve (one local snapshot) or router (front a shard topology)")
	shardsSpec := flag.String("shards", "", "router topology: shards separated by ';', replica URLs within a shard by ','")
	probeInterval := flag.Duration("probe-interval", time.Second, "router: shard health probe period")
	flag.Parse()
	// Trap signals before anything slow runs, so a SIGHUP during boot
	// cannot meet the default action and kill the process.
	stop, hup := trapSignals()
	// A flag the chosen role does not read is an error, not ignored.
	switch *role {
	case "serve":
		rejectSet("applies to -role=router", "shards", "probe-interval")
		if *walDir == "" {
			rejectSet("needs -wal-dir", "compact-every", "wal-group-commit")
		}
		if *graphPath == "" || *namesPath == "" || *corePath == "" {
			die("missing -graph, -names, or -core")
		}
	case "router":
		rejectSet("applies to -role=serve; the router holds no snapshot, shards own their inputs and WALs",
			"graph", "names", "core", "wal-dir", "compact-every", "wal-group-commit", "sample-interval", "flight-dir")
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
		runRouter(stop, hup, *addr, *addrFile, *shardsSpec, *probeInterval, octx)
		return
	}

	gen := serve.DefaultGenerator()
	load := func(ctx context.Context, epoch int64) (*serve.Snapshot, error) {
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
		return gen.Cold(ctx, h, core, epoch)
	}
	// build is every full refresh, the boot included, so both boots
	// publish through the refresher and its telemetry. A durable
	// server's boot (prev == nil with a WAL) is its recovery: the last
	// persisted snapshot (or the initial build when none exists) plus
	// the WAL suffix folded onto it and solved once, exactly. kill -9
	// at any byte offset recovers every acknowledged batch.
	var pl *ingest.Pipeline
	build := func(ctx context.Context, prev *serve.Snapshot, epoch int64) (*serve.Snapshot, error) {
		if prev != nil || pl == nil {
			return load(ctx, epoch)
		}
		base, baseSeq, err := pl.Latest(mass.DefaultDetectConfig(), 0)
		if err != nil {
			return nil, fmt.Errorf("loading snapshot: %w", err)
		}
		if base == nil {
			if base, err = load(ctx, epoch); err != nil {
				return nil, err
			}
		}
		recovered, replayed, err := pl.Recover(ctx, base, baseSeq, gen)
		if err != nil {
			return nil, fmt.Errorf("WAL recovery: %w", err)
		}
		if replayed > 0 {
			fmt.Fprintf(os.Stderr, "spamserver: recovered %d WAL batches, serving epoch %d\n", replayed, recovered.Epoch())
		}
		return recovered, nil
	}

	var recorder *obs.Recorder
	if *sampleInterval > 0 {
		recorder = obs.NewRecorder(reg, obs.RecorderConfig{Interval: *sampleInterval})
	}
	flight := obs.NewFlightRecorder(obs.FlightConfig{})
	watchdog := serve.NewWatchdog(serve.WatchdogConfig{Obs: octx})

	rcfg := serve.RefresherConfig{
		ApplyDelta: gen.Delta,
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
	// A SIGHUP that lands during boot leaves a pending trigger, which
	// the Run loop picks up as one refresh right after boot.
	go func() {
		for range hup {
			octx.Logf("spamserver: SIGHUP, scheduling refresh")
			ref.Trigger()
		}
	}()
	// Fail fast if the boot cannot produce even one snapshot; after
	// that, refresh failures only log and the old snapshot keeps serving.
	if err := ref.Refresh(stop); err != nil {
		die("initial snapshot: %v", err)
	}
	if stop.Err() != nil {
		die("interrupted during boot")
	}

	srv := serve.NewServer(store, ref, serve.Config{
		Obs:      octx,
		Tracing:  true,
		Flight:   flight,
		Recorder: recorder,
		Watchdog: watchdog,
	})
	// The refresher, the recorder and the compactor all stop with the
	// first SIGINT/SIGTERM, alongside the HTTP drain.
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		ref.Run(stop)
	}()
	if recorder != nil {
		go recorder.Run(stop)
	}
	if pl != nil {
		bg.Add(1)
		go func() {
			defer bg.Done()
			pl.RunCompactor(stop)
		}()
	}

	serveHTTP(stop, *addr, *addrFile, srv.Handler(),
		fmt.Sprintf("serving %d hosts (epoch %d)", store.Load().NumHosts(), store.Epoch()))
	bg.Wait()
	if pl != nil {
		if err := pl.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "spamserver: closing WAL: %v\n", err)
		}
	}
}

// rejectSet exits with an error naming the first flag in names that
// was set on the command line.
func rejectSet(why string, names ...string) {
	flag.Visit(func(f *flag.Flag) {
		if slices.Contains(names, f.Name) {
			die("-%s %s", f.Name, why)
		}
	})
}

// trapSignals registers SIGHUP, SIGINT and SIGTERM for both roles. The
// returned context is canceled by the first SIGINT or SIGTERM; each
// SIGHUP leaves one pending value on hup (further ones coalesce) for
// the role to consume once it is ready, so a SIGHUP is never lost and
// never fatal.
func trapSignals() (stop context.Context, hup <-chan struct{}) {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	ctx, cancel := context.WithCancel(context.Background())
	hups := make(chan struct{}, 1)
	go func() {
		for sig := range sigs {
			if sig == syscall.SIGHUP {
				select {
				case hups <- struct{}{}:
				default:
				}
				continue
			}
			fmt.Fprintf(os.Stderr, "spamserver: %s, draining\n", sig)
			cancel()
			return
		}
	}()
	return ctx, hups
}

// serveHTTP is the tail both roles share: listen on addr, write the
// bound address to addrFile, print a banner describing what is
// served, and serve h until stop is canceled, then drain in-flight
// requests for up to 15 s.
func serveHTTP(stop context.Context, addr, addrFile string, h http.Handler, what string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		die("listen: %v", err)
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			die("write addr file: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "spamserver: %s on http://%s\n", what, ln.Addr())

	hs := &http.Server{Handler: h}
	shutdownErr := make(chan error, 1)
	go func() {
		<-stop.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		shutdownErr <- hs.Shutdown(ctx)
	}()
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		die("serve: %v", err)
	}
	if err := <-shutdownErr; err != nil {
		die("shutdown: %v", err)
	}
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
