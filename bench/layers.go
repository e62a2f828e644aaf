package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"spammass/internal/cliobs"
	"spammass/internal/delta"
	"spammass/internal/graph"
	"spammass/internal/ingest"
	"spammass/internal/mass"
	"spammass/internal/obs"
	"spammass/internal/pagerank"
	"spammass/internal/serve"
	"spammass/internal/shard"
)

// The layer pass: after a workload's end-to-end run the harness calls
// the layers' public functions itself, on the inputs the servers were
// given, one goroutine unless stated, with an in-memory span around
// every call. No program file carries a span or a switch of the
// benchmark's; everything here is ordinary use of the packages.

func ms(d time.Duration) float64      { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64      { return float64(d) / float64(time.Microsecond) }
func pct(part, whole float64) float64 { return 100 * part / whole }

// overheadPct is the share by which the traced run of a composite's
// parts was slower than the same calls with spans off; a faster traced
// run (noise) reads as 0.
func overheadPct(on, off time.Duration) float64 {
	if off <= 0 || on <= off {
		return 0
	}
	return pct(float64(on-off), float64(off))
}

// unattributedPct is how far the parts are from adding up to the
// composite call, as a share of the composite.
func unattributedPct(composite, parts time.Duration) float64 {
	if composite <= 0 {
		return 0
	}
	return pct(math.Abs(float64(composite-parts)), float64(composite))
}

// snapshotConfig is the serving configuration spamserver builds its
// snapshots with by default.
func snapshotConfig(core []graph.NodeID) serve.SnapshotConfig {
	return serve.SnapshotConfig{Detect: detectConfig(), Gamma: defaultGamma, Core: core}
}

// publishedStore returns a store serving snap.
func publishedStore(snap *serve.Snapshot) (*serve.Store, error) {
	store := serve.NewStore()
	if err := store.Publish(snap); err != nil {
		return nil, err
	}
	return store, nil
}

// refreshParts is the refresh trace: what one full refresh of
// spamserver does, call by call, from the files on disk to a servable
// snapshot. It returns the snapshot and the time of the whole chain.
func refreshParts(tr *tracer, files fileSet) (*serve.Snapshot, *pagerank.SolveStats, time.Duration, error) {
	var snap *serve.Snapshot
	var stats *pagerank.SolveStats
	var err error
	trace := tr.newTrace()
	start := time.Now()
	tr.do(trace, 0, "refresh", func(root int) {
		var g *graph.Graph
		var names []string
		var h *graph.HostGraph
		var core []graph.NodeID
		var eng *pagerank.Engine
		var rs []*pagerank.Result
		var est *mass.Estimates
		tr.do(trace, root, "graph.LoadFile", func(int) { g, _, err = graph.LoadFile(files.graph, nil) })
		if err != nil {
			return
		}
		tr.do(trace, root, "cliobs.LoadLines", func(int) { names, err = cliobs.LoadLines(files.names) })
		if err != nil {
			return
		}
		tr.do(trace, root, "graph.NewHostGraph", func(int) { h, err = graph.NewHostGraph(g, names) })
		if err != nil {
			return
		}
		tr.do(trace, root, "cliobs.LoadNodeIDs", func(int) { core, err = cliobs.LoadNodeIDs(files.core, g.NumNodes()) })
		if err != nil {
			return
		}
		tr.do(trace, root, "pagerank.NewEngine", func(int) { eng, err = pagerank.NewEngine(g, referenceSolver()) })
		if err != nil {
			return
		}
		defer eng.Close()
		n := g.NumNodes()
		tr.do(trace, root, "Engine.SolveMany", func(int) {
			rs, err = eng.SolveMany([]pagerank.Vector{pagerank.UniformJump(n), pagerank.ScaledCoreJump(n, core, defaultGamma)})
		})
		if err != nil {
			return
		}
		stats = rs[0].Stats
		tr.do(trace, root, "mass.Derive", func(int) { est = mass.Derive(rs[0].Scores, rs[1].Scores, eng.Config().Damping) })
		tr.do(trace, root, "serve.NewSnapshot", func(int) { snap, err = serve.NewSnapshot(h, est, snapshotConfig(core), 1) })
	})
	return snap, stats, time.Since(start), err
}

// layerPassRefresh is the traced run of solve-cold: the refresh trace
// beside the composite mass.EstimateFromCore, the fixed-sweep
// throughput at one worker and at GOMAXPROCS, and the machine's plain
// copy bandwidth to read them against.
func (r *run) layerPassRefresh(w *world) error {
	tr := r.tr
	_, stats, on, err := refreshParts(tr, w.files)
	if err != nil {
		return fmt.Errorf("refresh trace: %w", err)
	}
	trace := tr.traces // the trace refreshParts just opened
	load := tr.duration(trace, "graph.LoadFile")
	r.set("graph.load_ms", ms(load), 1)
	if fi, err := os.Stat(w.files.graph); err == nil && load > 0 {
		r.set("graph.load_mb_per_s", float64(fi.Size())/1e6/load.Seconds(), 1)
	}
	r.set("graph.hostgraph_ms", ms(tr.duration(trace, "graph.NewHostGraph")), 1)
	engineBuild := tr.duration(trace, "pagerank.NewEngine")
	solve := tr.duration(trace, "Engine.SolveMany")
	derive := tr.duration(trace, "mass.Derive")
	r.set("pagerank.engine_build_ms", ms(engineBuild), 1)
	r.set("pagerank.solve_cold_ms", ms(solve), 1)
	r.set("pagerank.solve_cold_iters", float64(stats.Iterations), 1)
	r.set("mass.derive_ms", ms(derive), 1)
	r.set("serve.snapshot_build_ms", ms(tr.duration(trace, "serve.NewSnapshot")), 1)

	// The same chain with spans off, and the composite the three solver
	// parts must add up to.
	_, _, off, err := refreshParts(nil, w.files)
	if err != nil {
		return err
	}
	var est *mass.Estimates
	ctrace := tr.newTrace()
	tr.do(ctrace, 0, "mass.EstimateFromCore", func(int) {
		est, err = mass.EstimateFromCore(w.hosts.Graph, w.core, mass.Options{Solver: referenceSolver(), Gamma: defaultGamma})
	})
	if err != nil {
		return err
	}
	composite := tr.duration(ctrace, "mass.EstimateFromCore")
	r.set("mass.estimate_cold_ms", ms(composite), 1)
	r.set("bench.unattributed_pct", unattributedPct(composite, engineBuild+solve+derive), 0)
	r.set("bench.trace_overhead_pct", overheadPct(on, off), 0)
	tr.do(ctrace, 0, "mass.Detect", func(int) { mass.Detect(est, detectConfig()) })
	r.set("mass.detect_ms", ms(tr.duration(ctrace, "mass.Detect")), 1)

	// Twenty fixed sweeps: an unreachable ε with AllowTruncated pins the
	// count, so edges/s compares sweep speed and not convergence luck.
	g := w.hosts.Graph
	sweep := func(workers int) (*pagerank.SolveStats, error) {
		cfg := pagerank.Config{Damping: 0.85, Epsilon: 1e-300, MaxIter: 20, AllowTruncated: true, Workers: workers}
		eng, err := pagerank.NewEngine(g, cfg)
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		res, err := eng.Solve(pagerank.UniformJump(g.NumNodes()))
		if err != nil {
			return nil, err
		}
		return res.Stats, nil
	}
	w1, err := sweep(1)
	if err != nil {
		return err
	}
	wN, err := sweep(runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	r.set("pagerank.sweep_edges_per_s_w1", float64(w1.EdgesSwept)/w1.WallTime.Seconds(), 20)
	r.set("pagerank.sweep_edges_per_s_wN", float64(wN.EdgesSwept)/wN.WallTime.Seconds(), 20)
	// Computed, not measured: the bytes a flat pull sweep of one vector
	// must move — per edge the 4-byte source ID and the 8-byte score it
	// gathers, per node the 8-byte offset, inverse out-degree, jump
	// weight, and the score read and written.
	n, m := float64(g.NumNodes()), float64(g.NumEdges())
	bytesPerSweep := m*(4+8) + n*(8*5)
	r.set("pagerank.sweep_gb_per_s_computed", bytesPerSweep*20/1e9/wN.WallTime.Seconds(), 0)
	r.set("machine.copy_gb_per_s", copyBandwidth(), 3)
	return nil
}

// copyBandwidth times plain copy() between two 256 MiB buffers — far
// beyond the 2 MiB L2 of this box, though not its 260 MiB shared L3 —
// and returns read-plus-written GB/s, best of three.
func copyBandwidth() float64 {
	const size = 256 << 20
	src, dst := make([]byte, size), make([]byte, size)
	for i := 0; i < size; i += 4096 {
		src[i], dst[i] = 1, 1 // fault the pages in before timing
	}
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		start := time.Now()
		copy(dst, src)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return 2 * size / 1e9 / best.Seconds()
}

// deltaParts is the delta trace for one batch: what the server does
// between reading the POST body and publishing the next epoch. It
// returns the published snapshot.
func deltaParts(tr *tracer, pl *ingest.Pipeline, store *serve.Store, prev *serve.Snapshot, body []byte, iters *int) (*serve.Snapshot, error) {
	var next *serve.Snapshot
	var err error
	trace := tr.newTrace()
	tr.do(trace, 0, "delta", func(root int) {
		var b *delta.Batch
		var seq uint64
		var res *delta.Result
		var warm *mass.WarmStart
		var eng *pagerank.Engine
		var rs []*pagerank.Result
		var est *mass.Estimates
		tr.do(trace, root, "delta.ReadText", func(int) { b, err = delta.ReadText(bytes.NewReader(body)) })
		if err != nil {
			return
		}
		tr.do(trace, root, "Pipeline.Append", func(int) { seq, err = pl.Append(b) })
		if err != nil {
			return
		}
		tr.do(trace, root, "Pipeline.WaitDurable", func(int) { err = pl.WaitDurable(seq) })
		if err != nil {
			return
		}
		tr.do(trace, root, "delta.Apply", func(int) { res, err = delta.Apply(prev.HostGraph(), b) })
		if err != nil {
			return
		}
		core := res.RemapNodes(prev.Core())
		cfg := prev.Config()
		n := res.Hosts.Graph.NumNodes()
		tr.do(trace, root, "mass.RemapWarmStart", func(int) {
			warm, err = mass.RemapWarmStart(prev.Estimates(), res.Remap, n, core, cfg.Gamma)
		})
		if err != nil {
			return
		}
		tr.do(trace, root, "pagerank.NewEngine", func(int) { eng, err = pagerank.NewEngine(res.Hosts.Graph, referenceSolver()) })
		if err != nil {
			return
		}
		defer eng.Close()
		// The warm solve as mass.Estimator.EstimateFromCoreWarm runs it:
		// push-repair each remapped vector, then the batched solve, which
		// stays the convergence authority.
		jumps := []pagerank.Vector{pagerank.UniformJump(n), pagerank.ScaledCoreJump(n, core, cfg.Gamma)}
		tr.do(trace, root, "warm solve", func(int) {
			for j, x := range []pagerank.Vector{warm.P, warm.PCore} {
				if _, err = eng.Refine(x, jumps[j], eng.Config().Epsilon/2); err != nil {
					return
				}
			}
			scfg := eng.Config()
			scfg.WarmStarts = []pagerank.Vector{warm.P, warm.PCore}
			rs, err = eng.SolveManyConfig(jumps, scfg)
		})
		if err != nil {
			return
		}
		*iters = rs[0].Stats.Iterations
		tr.do(trace, root, "mass.Derive", func(int) { est = mass.Derive(rs[0].Scores, rs[1].Scores, eng.Config().Damping) })
		cfg.Core, cfg.CoreSize = core, len(core)
		tr.do(trace, root, "serve.NewSnapshot", func(int) { next, err = serve.NewSnapshot(res.Hosts, est, cfg, prev.Epoch()+1) })
		if err != nil {
			return
		}
		tr.do(trace, root, "Store.Publish", func(int) { err = store.Publish(next) })
		if err == nil {
			pl.MarkApplied(seq, next)
		}
	})
	return next, err
}

// layerPassDelta is the traced run of ingest-fresh: the delta trace on
// the first batches of the stream beside the composite delta builder,
// then the WAL and snapshot-file costs recovery is made of.
func (r *run) layerPassDelta(w *world, ds *deltaStream) error {
	tr := r.tr
	const reps = 5
	if len(ds.bodies) < reps {
		return fmt.Errorf("delta stream of %d batches is too short for the layer pass", len(ds.bodies))
	}
	est, err := referenceEstimates(w)
	if err != nil {
		return err
	}
	base, err := serve.NewSnapshot(w.hosts, est, snapshotConfig(w.core), 1)
	if err != nil {
		return err
	}
	dir, err := r.h.dir("layer-wal")
	if err != nil {
		return err
	}

	// chain applies the first reps batches one after another through
	// the parts, on the given WAL and a store of its own.
	chain := func(tr *tracer, pl *ingest.Pipeline) (last *serve.Snapshot, total time.Duration, iters []float64, err error) {
		store, err := publishedStore(base)
		if err != nil {
			return nil, 0, nil, err
		}
		last = base
		start := time.Now()
		for i := 0; i < reps; i++ {
			var it int
			if last, err = deltaParts(tr, pl, store, last, ds.bodies[i], &it); err != nil {
				return nil, 0, nil, err
			}
			iters = append(iters, float64(it))
		}
		return last, time.Since(start), iters, nil
	}
	pl, err := ingest.Open(ingest.Config{Dir: filepath.Join(dir, "traced")})
	if err != nil {
		return err
	}
	defer pl.Close()
	first := tr.traces + 1 // the chain opens one trace per batch
	last, on, iters, err := chain(tr, pl)
	if err != nil {
		return fmt.Errorf("delta trace: %w", err)
	}
	plOff, err := ingest.Open(ingest.Config{Dir: filepath.Join(dir, "untraced")})
	if err != nil {
		return err
	}
	_, off, _, err := chain(nil, plOff)
	plOff.Close()
	if err != nil {
		return err
	}

	// Medians over the repetitions, per part.
	part := func(name string) time.Duration {
		var ds []float64
		for t := first; t < first+reps; t++ {
			ds = append(ds, float64(tr.duration(t, name)))
		}
		return time.Duration(median(ds))
	}
	sum := func(name string) time.Duration {
		var d time.Duration
		for t := first; t < first+reps; t++ {
			d += tr.duration(t, name)
		}
		return d
	}
	r.set("delta.parse_us", us(part("delta.ReadText")), reps)
	r.set("ingest.append_us", us(part("Pipeline.Append")), reps)
	r.set("ingest.fsync_us", us(part("Pipeline.WaitDurable")), reps)
	r.set("delta.apply_ms", ms(part("delta.Apply")), reps)
	r.set("mass.remap_warm_ms", ms(part("mass.RemapWarmStart")), reps)
	r.set("pagerank.engine_build_ms", ms(part("pagerank.NewEngine")), reps)
	r.set("pagerank.solve_warm_ms", ms(part("warm solve")), reps)
	r.set("mass.derive_ms", ms(part("mass.Derive")), reps)
	r.set("serve.snapshot_build_ms", ms(part("serve.NewSnapshot")), reps)
	r.set("serve.publish_us", us(part("Store.Publish")), reps)
	r.set("pagerank.solve_warm_iters", median(iters), reps)

	// The composite: the server's own delta builder over the same
	// batches from the same base. Its parts are everything in the trace
	// between the WAL and the publish.
	build := serve.NewDeltaBuilder(serve.DeltaBuilderConfig{Solver: referenceSolver()})
	ctrace := tr.newTrace()
	prev := base
	var composites []float64
	var compositeSum time.Duration
	for i := 0; i < reps; i++ {
		b, err := delta.ReadText(bytes.NewReader(ds.bodies[i]))
		if err != nil {
			return err
		}
		start := time.Now()
		tr.do(ctrace, 0, "serve.NewDeltaBuilder func", func(int) {
			prev, err = build(context.Background(), prev, prev.Epoch()+1, b)
		})
		if err != nil {
			return fmt.Errorf("composite delta build: %w", err)
		}
		d := time.Since(start)
		composites = append(composites, float64(d))
		compositeSum += d
	}
	r.set("serve.delta_build_ms", ms(time.Duration(median(composites))), reps)
	var parts time.Duration
	for _, name := range []string{"delta.Apply", "mass.RemapWarmStart", "pagerank.NewEngine", "warm solve", "mass.Derive", "serve.NewSnapshot"} {
		parts += sum(name)
	}
	r.set("bench.unattributed_pct", unattributedPct(compositeSum, parts), 0)
	r.set("bench.trace_overhead_pct", overheadPct(on, off), 0)

	tr.do(ctrace, 0, "delta.SplitByShard", func(int) { _, err = delta.SplitByShard(ds.batches[0], 2) })
	if err != nil {
		return err
	}
	r.set("delta.split_us", us(tr.duration(ctrace, "delta.SplitByShard")), 1)

	// What recovery is made of: compaction (snapshot write + WAL
	// truncation), and loading the snapshot back.
	tr.do(ctrace, 0, "Pipeline.Compact", func(int) { err = pl.Compact() })
	if err != nil {
		return err
	}
	r.set("ingest.compact_ms", ms(tr.duration(ctrace, "Pipeline.Compact")), 1)
	sdir := filepath.Join(dir, "snapfile")
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		return err
	}
	var path string
	tr.do(ctrace, 0, "ingest.WriteSnapshotFile", func(int) {
		path, err = ingest.WriteSnapshotFile(sdir, ingest.SnapshotStateOf(last, uint64(reps)))
	})
	if err != nil {
		return err
	}
	r.set("ingest.snapshot_write_ms", ms(tr.duration(ctrace, "ingest.WriteSnapshotFile")), 1)
	if fi, err := os.Stat(path); err == nil {
		r.set("ingest.snapshot_bytes", float64(fi.Size()), 0)
	}
	tr.do(ctrace, 0, "Pipeline.Latest", func(int) { _, _, err = pl.Latest(detectConfig(), 0) })
	if err != nil {
		return err
	}
	r.set("ingest.snapshot_load_ms", ms(tr.duration(ctrace, "Pipeline.Latest")), 1)

	// Eight concurrent submitters, fsync per append against a 2 ms
	// group-commit window — the re-measurement ROADMAP item 1 asks for.
	for _, mode := range []struct {
		metric string
		window time.Duration
	}{{"ingest.append_c8_per_s", 0}, {"ingest.append_c8_groupcommit_per_s", 2 * time.Millisecond}} {
		rate, err := appendThroughput(filepath.Join(dir, mode.metric), mode.window, ds.batches[0], r.opts.tiny)
		if err != nil {
			return err
		}
		r.set(mode.metric, rate, 0)
	}
	return nil
}

// appendThroughput is durable appends per second from eight goroutines
// over a fixed time.
func appendThroughput(dir string, window time.Duration, b *delta.Batch, tiny bool) (float64, error) {
	pl, err := ingest.Open(ingest.Config{Dir: dir, GroupCommit: window})
	if err != nil {
		return 0, err
	}
	defer pl.Close()
	dur := time.Second
	if tiny {
		dur = 200 * time.Millisecond
	}
	var done atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				if _, err := pl.WAL().Append(b); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return 0, err
	}
	return float64(done.Load()) / time.Since(start).Seconds(), nil
}

// memWriter is an in-memory http.ResponseWriter that keeps nothing:
// httptest.ResponseRecorder clones the header map on every WriteHeader,
// a cost no production request pays.
type memWriter struct {
	h      http.Header
	status int
}

func (w *memWriter) Header() http.Header         { return w.h }
func (w *memWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *memWriter) WriteHeader(code int)        { w.status = code }

// productionHandler builds the serve HTTP layer the way cmd/spamserver
// does by default: registry-backed metrics, request tracing with the
// flight recorder, history sampler and drift watchdog attached.
func productionHandler(store *serve.Store, ref *serve.Refresher, backend serve.Backend, routes map[string]http.HandlerFunc) (http.Handler, *obs.Registry) {
	reg := obs.NewRegistry()
	octx := obs.NewContext(reg, nil)
	return serve.NewServer(store, ref, serve.Config{
		Obs:      octx,
		Tracing:  true,
		Flight:   obs.NewFlightRecorder(obs.FlightConfig{}),
		Recorder: obs.NewRecorder(reg, obs.RecorderConfig{}),
		Watchdog: serve.NewWatchdog(serve.WatchdogConfig{Obs: octx}),
		Backend:  backend,
		Routes:   routes,
	}).Handler(), reg
}

// lookupCalls is how many calls each level of the lookup trace makes.
const lookupCalls = 20000

// perCall runs f n times inside one span and returns the mean time of
// a call and the mean heap allocations of a call.
func perCall(tr *tracer, trace, parent int, name string, n int, f func(i int) error) (id int, mean time.Duration, allocs float64, err error) {
	// One collection of the graphs this process holds costs as much as
	// ten thousand lookups; keep the collector out of the loop.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	tr.do(trace, parent, name, func(span int) {
		id = span
		for i := 0; i < n && err == nil; i++ {
			err = f(i)
		}
	})
	total := time.Since(start)
	runtime.ReadMemStats(&after)
	return id, total / time.Duration(n), float64(after.Mallocs-before.Mallocs) / float64(n), err
}

// layerPassRouted is the router's share of the lookup trace, on an
// in-process copy of the two-shard topology: the routed loopback, the
// router's own lookup, batch and ranking calls, one cross-shard delta
// through the generation fence, and the quality figures of the split.
// It returns the span of Router.Lookup, which contains the direct
// levels, and the mean routed loopback call.
func (r *run) layerPassRouted(trace, n int, name func(int) string, w *world, sw *shardedWorld, single *mass.Estimates) (routerID int, routedMean time.Duration, err error) {
	tr := r.tr
	router, routerHandler, stop, err := r.inProcessRouter(sw)
	if err != nil {
		return 0, 0, err
	}
	defer stop()
	front := httptest.NewServer(routerHandler)
	defer front.Close()
	c := newClient(front.Listener.Addr().String())
	defer c.close()
	var routedID int
	if routedID, routedMean, _, err = perCall(tr, trace, 0, "routed loopback", n, func(i int) error {
		return expectOK(c.do(getReq("/v1/host/" + name(i))))
	}); err != nil {
		return 0, 0, fmt.Errorf("routed loopback: %w", err)
	}
	r.set("shard.routed_loopback_us", us(routedMean), n)
	ctx := context.Background()
	var mean time.Duration
	var allocs float64
	if routerID, mean, allocs, err = perCall(tr, trace, routedID, "Router.Lookup", n, func(i int) error {
		_, ok, err := router.Lookup(ctx, name(i))
		if err == nil && !ok {
			err = fmt.Errorf("router missed %s", name(i))
		}
		return err
	}); err != nil {
		return 0, 0, err
	}
	r.set("shard.router_lookup_us", us(mean), n)
	r.set("shard.router_lookup_allocs", allocs, n)
	batch := make([]string, batchSize)
	if _, mean, _, err = perCall(tr, trace, routedID, "Router.Batch", n/10, func(i int) error {
		for j := range batch {
			batch[j] = name(i*batchSize + j)
		}
		_, err := router.Batch(ctx, batch)
		return err
	}); err != nil {
		return 0, 0, err
	}
	r.set("shard.router_batch64_us", us(mean), n/10)
	if _, mean, _, err = perCall(tr, trace, routedID, "Router.Top", n/10, func(int) error {
		_, err := router.Top(ctx, serve.MetricRelMass, 100)
		return err
	}); err != nil {
		return 0, 0, err
	}
	r.set("shard.router_top100_us", us(mean), n/10)

	// One cross-shard batch through the generation fence, three
	// times over consecutive batches.
	ds, err := genDeltaStream(w.hosts, r.opts.seed, 3)
	if err != nil {
		return 0, 0, err
	}
	var fences []float64
	for _, b := range ds.batches {
		start := time.Now()
		tr.do(trace, routedID, "Router.ApplyDelta", func(int) { _, err = router.ApplyDelta(ctx, b) })
		if err != nil {
			return 0, 0, fmt.Errorf("Router.ApplyDelta: %w", err)
		}
		fences = append(fences, ms(time.Since(start)))
	}
	r.set("shard.delta_fence_ms", median(fences), len(fences))
	tr.do(trace, routedID, "delta.SplitByShard", func(int) { _, err = delta.SplitByShard(ds.batches[0], 2) })
	if err != nil {
		return 0, 0, err
	}
	r.set("delta.split_us", us(tr.duration(trace, "delta.SplitByShard")), 1)

	start := time.Now()
	tr.do(trace, 0, "graph.PartitionHosts", func(int) { _, err = graph.PartitionHosts(w.hosts, 2) })
	if err != nil {
		return 0, 0, err
	}
	r.set("graph.partition_ms", ms(time.Since(start)), 1)
	r.set("shard.cross_shard_edge_frac", float64(sw.part.CrossEdges)/float64(w.hosts.Graph.NumEdges()), 0)
	l1, err := r.routedVsSingle(w, sw, single)
	if err != nil {
		return 0, 0, err
	}
	r.set("shard.routed_vs_single_rel_l1", l1, 0)
	return routerID, routedMean, nil
}

// layerPassLookup is the traced run of the lookup workloads: the same
// point lookup at each level of the stack — snapshot read, handler with
// an in-memory writer, handler behind a loopback socket — and, for
// lookup-routed, the router's own lookup and the routed loopback on
// top. The levels contain one another in the program but are exercised
// one after another here, so a level's self time is the difference of
// the per-call means (shard.router_hop_us is that subtraction for the
// router); the spans' parent links record the containment.
func (r *run) layerPassLookup(w *world, sw *shardedWorld) error {
	tr := r.tr
	n := lookupCalls
	if r.opts.tiny {
		n = 500
	}
	est, err := r.estimatesFor(w)
	if err != nil {
		return err
	}
	snap, err := serve.NewSnapshot(w.hosts, est, snapshotConfig(w.core), 1)
	if err != nil {
		return err
	}
	store, err := publishedStore(snap)
	if err != nil {
		return err
	}
	names := w.hosts.Names
	name := func(i int) string { return names[(i*7919)%len(names)] }
	handler, reg := productionHandler(store, nil, nil, nil)
	direct := httptest.NewServer(handler)
	defer direct.Close()

	trace := tr.newTrace()
	var routerID int
	var routedMean time.Duration
	if sw != nil {
		if routerID, routedMean, err = r.layerPassRouted(trace, n, name, w, sw, est); err != nil {
			return err
		}
	}

	c := newClient(direct.Listener.Addr().String())
	defer c.close()
	loopID, loopMean, _, err := perCall(tr, trace, routerID, "in-process loopback", n, func(i int) error {
		return expectOK(c.do(getReq("/v1/host/" + name(i))))
	})
	if err != nil {
		return fmt.Errorf("in-process loopback: %w", err)
	}
	r.set("serve.loopback_lookup_us", us(loopMean), n)
	if sw != nil {
		r.set("shard.router_hop_us", us(routedMean-loopMean), n)
	}

	mw := &memWriter{h: make(http.Header)}
	serveOne := func(req *http.Request) error {
		mw.status = 0
		handler.ServeHTTP(mw, req)
		if mw.status != http.StatusOK {
			return fmt.Errorf("%s answered %d", req.URL.Path, mw.status)
		}
		return nil
	}
	handlerID, mean, allocs, err := perCall(tr, trace, loopID, "handler", n, func(i int) error {
		return serveOne(httptest.NewRequest(http.MethodGet, "/v1/host/"+name(i), nil))
	})
	if err != nil {
		return err
	}
	r.set("serve.handler_lookup_ns", float64(mean), n)
	r.set("serve.handler_lookup_allocs", allocs, n)
	if _, mean, _, err = perCall(tr, trace, handlerID, "Snapshot.Lookup", n, func(i int) error {
		if _, ok := snap.Lookup(name(i)); !ok {
			return fmt.Errorf("snapshot missed %s", name(i))
		}
		return nil
	}); err != nil {
		return err
	}
	r.set("serve.snapshot_lookup_ns", float64(mean), n)

	var body []byte
	if _, mean, _, err = perCall(tr, trace, loopID, "handler batch64", n/10, func(i int) error {
		body = body[:0]
		body = append(body, `{"hosts":[`...)
		for j := 0; j < batchSize; j++ {
			if j > 0 {
				body = append(body, ',')
			}
			body = append(body, '"')
			body = append(body, name(i*batchSize+j)...)
			body = append(body, '"')
		}
		body = append(body, `]}`...)
		return serveOne(httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
	}); err != nil {
		return err
	}
	r.set("serve.handler_batch64_us", us(mean), n/10)
	if _, mean, _, err = perCall(tr, trace, loopID, "handler top100", n/10, func(int) error {
		return serveOne(httptest.NewRequest(http.MethodGet, "/v1/top?metric=relmass&n=100", nil))
	}); err != nil {
		return err
	}
	r.set("serve.handler_top100_us", us(mean), n/10)

	// Telemetry cost, paired: the production handler against a bare one
	// (no registry, no tracing), alternating batches of 128 lookups so
	// machine drift hits both sides alike.
	bare := serve.NewServer(store, nil, serve.Config{}).Handler()
	var tBare, tFull time.Duration
	drive := func(h http.Handler, from, count int) (time.Duration, error) {
		start := time.Now()
		for i := from; i < from+count; i++ {
			mw.status = 0
			h.ServeHTTP(mw, httptest.NewRequest(http.MethodGet, "/v1/host/"+name(i), nil))
			if mw.status != http.StatusOK {
				return 0, fmt.Errorf("lookup answered %d", mw.status)
			}
		}
		return time.Since(start), nil
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // as in perCall
	for i, pair := 0, 0; i < n; i, pair = i+128, pair+1 {
		// Bare first on even pairs, production first on odd ones: whoever
		// runs second inherits the other's garbage, and that must not
		// always be the same side.
		sides := [2]http.Handler{bare, handler}
		totals := [2]*time.Duration{&tBare, &tFull}
		for k := 0; k < 2; k++ {
			side := (k + pair) % 2
			d, err := drive(sides[side], i, 128)
			if err != nil {
				return err
			}
			*totals[side] += d
		}
	}
	r.set("obs.telemetry_overhead_pct", pct(float64(tFull-tBare), float64(tBare)), n)
	if _, mean, _, err = perCall(tr, trace, 0, "Registry.WritePrometheus", 200, func(int) error {
		return reg.WritePrometheus(io.Discard)
	}); err != nil {
		return err
	}
	r.set("obs.metrics_render_us", us(mean), 200)
	return nil
}

func expectOK(status int, _ []byte, err error) error {
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	return err
}

// inProcessRouter boots the two-shard topology inside the harness: one
// delta-enabled serve handler per part behind a loopback listener, and
// a router over them with its defaults. stop closes the listeners.
func (r *run) inProcessRouter(sw *shardedWorld) (router *shard.Router, handler http.Handler, stop func(), err error) {
	var closers []func()
	stop = func() {
		for _, c := range closers {
			c()
		}
	}
	defer func() {
		if err != nil {
			stop()
		}
	}()
	urls := make([][]string, len(sw.parts))
	for s, part := range sw.parts {
		est, err := r.estimatesFor(part)
		if err != nil {
			return nil, nil, nil, err
		}
		snap, err := serve.NewSnapshot(part.hosts, est, snapshotConfig(part.core), 1)
		if err != nil {
			return nil, nil, nil, err
		}
		store, err := publishedStore(snap)
		if err != nil {
			return nil, nil, nil, err
		}
		ref := serve.NewRefresher(store, nil, serve.RefresherConfig{
			ApplyDelta: serve.NewDeltaBuilder(serve.DeltaBuilderConfig{Solver: referenceSolver()}),
		})
		h, _ := productionHandler(store, ref, nil, nil)
		ts := httptest.NewServer(h)
		closers = append(closers, ts.Close)
		urls[s] = []string{ts.URL}
	}
	if router, err = shard.NewRouter(shard.Config{Shards: urls}); err != nil {
		return nil, nil, nil, err
	}
	router.ProbeOnce(context.Background())
	if router.Generation() == 0 {
		return nil, nil, nil, fmt.Errorf("in-process router fence did not form")
	}
	handler, _ = productionHandler(nil, nil, router, map[string]http.HandlerFunc{
		"POST /admin/delta": router.HandleDelta,
		"GET /admin/status": router.HandleStatus,
	})
	return router, handler, stop, nil
}

// routedVsSingle is the quality figure of the sharded tier: how far the
// relative mass a shard computes on its own subgraph (cross-shard edges
// dropped) is from the single-node m̃, as Σ|m̃_routed − m̃_single| over
// Σ|m̃_single|, over the hosts Algorithm 2 examines (scaled p ≥ ρ on the
// single node).
func (r *run) routedVsSingle(w *world, sw *shardedWorld, single *mass.Estimates) (float64, error) {
	var diff, base float64
	for x := 0; x < single.N(); x++ {
		if single.ScaledPageRank(graph.NodeID(x)) < defaultRho {
			continue
		}
		part := sw.parts[sw.part.Shard[x]]
		est, err := r.estimatesFor(part)
		if err != nil {
			return 0, err
		}
		diff += math.Abs(est.Rel[sw.part.Local[x]] - single.Rel[x])
		base += math.Abs(single.Rel[x])
	}
	if base == 0 {
		return 0, nil
	}
	return diff / base, nil
}
