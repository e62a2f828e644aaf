package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/obs"
	"spammass/internal/testutil"
)

// benchSnapshot builds a served snapshot over a 10k-host random graph
// with real estimates, matching the mass package's benchmark corpus.
func benchSnapshot(b *testing.B) (*graph.HostGraph, *Store) {
	b.Helper()
	const n = 10000
	rng := rand.New(rand.NewSource(1))
	g := testutil.RandomGraph(rng, n, 8)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("host%05d.example", i)
	}
	h, err := graph.NewHostGraph(g, names)
	if err != nil {
		b.Fatal(err)
	}
	core := make([]graph.NodeID, n/150)
	for i := range core {
		core[i] = graph.NodeID(i * 150)
	}
	est, err := mass.EstimateFromCore(g, core, mass.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	snap, err := NewSnapshot(h, est, SnapshotConfig{Detect: mass.DefaultDetectConfig(), Gamma: 0.85, CoreSize: len(core)}, 1)
	if err != nil {
		b.Fatal(err)
	}
	st := NewStore()
	if err := st.Publish(snap); err != nil {
		b.Fatal(err)
	}
	return h, st
}

// benchWriter is a minimal ResponseWriter for the serve benchmarks.
// httptest.ResponseRecorder clones the whole header map on every
// WriteHeader call — a recorder-only behavior that net/http does not
// share — which would bill the tracing headers for a clone cost no
// production request pays. This writer discards the body and just
// records the status, so the benchmark measures the serve stack.
type benchWriter struct {
	h      http.Header
	status int
}

func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *benchWriter) WriteHeader(code int)        { w.status = code }

// benchLoop drives parallel single-host lookups through handler and
// reports lookups/s.
func benchLoop(b *testing.B, h *graph.HostGraph, handler http.Handler) {
	b.Helper()
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := &benchWriter{h: make(http.Header)}
		for pb.Next() {
			name := h.Names[int(next.Add(1))%len(h.Names)]
			req := httptest.NewRequest(http.MethodGet, "/v1/host/"+name, nil)
			w.status = 0
			handler.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				b.Fatalf("lookup %s: status %d", name, w.status)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

// BenchmarkServeLookup is the acceptance benchmark: full-stack single
// host lookups (mux routing, admission control, snapshot load, JSON
// encoding) against the 10k example graph. The PR target is ≥100k
// lookups/sec.
func BenchmarkServeLookup(b *testing.B) {
	h, st := benchSnapshot(b)
	benchLoop(b, h, NewServer(st, nil, Config{MaxInFlight: 4096}).Handler())
}

// BenchmarkServeLookupMetrics is the PR 6 production configuration —
// registry-backed metrics, no tracing — and the "untraced path"
// baseline for the telemetry budget: spamserver has always run with a
// live metrics registry, so the cost of tracing + recorder + watchdog
// is measured on top of this, not on top of the bare nil-obs handler.
func BenchmarkServeLookupMetrics(b *testing.B) {
	h, st := benchSnapshot(b)
	reg := obs.NewRegistry()
	handler := NewServer(st, nil, Config{MaxInFlight: 4096, Obs: obs.NewContext(reg, nil)}).Handler()
	benchLoop(b, h, handler)
}

// BenchmarkServeLookupInstrumented is BenchmarkServeLookup with the
// full production telemetry stack enabled — registry-backed metrics,
// request tracing with flight-recorder admission, and the history
// sampler running — to prove the PR 7 budget: instrumented lookups
// within 3% of the plain path.
func BenchmarkServeLookupInstrumented(b *testing.B) {
	h, st := benchSnapshot(b)
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, obs.RecorderConfig{})
	fl := obs.NewFlightRecorder(obs.FlightConfig{})
	// Warm the slowest set so the steady-state path is the common one:
	// an atomic threshold load that disqualifies fast requests.
	for i := 0; i < 64; i++ {
		fl.Record(obs.FlightEntry{Kind: "request", DurationNS: int64(time.Second)})
	}
	handler := NewServer(st, nil, Config{
		MaxInFlight: 4096,
		Obs:         obs.NewContext(reg, nil),
		Tracing:     true,
		Flight:      fl,
		Recorder:    rec,
		Watchdog:    NewWatchdog(WatchdogConfig{}),
	}).Handler()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rec.Run(ctx)
	benchLoop(b, h, handler)
}

// BenchmarkServeTelemetryOverhead proves the PR 7 telemetry budget
// with a paired design: the same process alternates batches of
// lookups between the PR 6 baseline handler (registry metrics, no
// tracing) and the fully instrumented handler, so slow machine drift
// hits both sides equally and the reported overhead-pct is stable
// even when absolute ns/op is not. The budget is ≤3%.
func BenchmarkServeTelemetryOverhead(b *testing.B) {
	h, st := benchSnapshot(b)
	reg := obs.NewRegistry()
	base := NewServer(st, nil, Config{MaxInFlight: 4096, Obs: obs.NewContext(reg, nil)}).Handler()
	ireg := obs.NewRegistry()
	fl := obs.NewFlightRecorder(obs.FlightConfig{})
	for i := 0; i < 64; i++ {
		fl.Record(obs.FlightEntry{Kind: "request", DurationNS: int64(time.Second)})
	}
	inst := NewServer(st, nil, Config{
		MaxInFlight: 4096,
		Obs:         obs.NewContext(ireg, nil),
		Tracing:     true,
		Flight:      fl,
		Recorder:    obs.NewRecorder(ireg, obs.RecorderConfig{}),
		Watchdog:    NewWatchdog(WatchdogConfig{}),
	}).Handler()

	drive := func(handler http.Handler, w *benchWriter, n, seq int) time.Duration {
		start := time.Now()
		for j := 0; j < n; j++ {
			name := h.Names[(seq+j)%len(h.Names)]
			req := httptest.NewRequest(http.MethodGet, "/v1/host/"+name, nil)
			w.status = 0
			handler.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				b.Fatalf("lookup %s: status %d", name, w.status)
			}
		}
		return time.Since(start)
	}

	const batch = 128
	wBase := &benchWriter{h: make(http.Header)}
	wInst := &benchWriter{h: make(http.Header)}
	var tBase, tInst time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		n := batch
		if rem := b.N - i; rem < n {
			n = rem
		}
		tBase += drive(base, wBase, n, i)
		tInst += drive(inst, wInst, n, i)
	}
	b.StopTimer()
	b.ReportMetric(float64(tInst-tBase)/float64(b.N), "ns/op-overhead")
	b.ReportMetric(100*(tInst.Seconds()/tBase.Seconds()-1), "overhead-pct")
}

// BenchmarkSnapshotLookup isolates the data-path cost (index hit +
// record copy) without the HTTP layer, to show where serving time goes.
func BenchmarkSnapshotLookup(b *testing.B) {
	h, st := benchSnapshot(b)
	snap := st.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := snap.Lookup(h.Names[i%len(h.Names)]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkNewSnapshot times one snapshot build — what every boot,
// refresh, delta and recovery ends in — on the webgen fixture.
func BenchmarkNewSnapshot(b *testing.B) {
	b.Run("100k", func(b *testing.B) {
		w := webFixture(b)
		cfg := w.config()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewSnapshot(w.hosts, w.est, cfg, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
