package shard

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"spammass/internal/graph"
	"spammass/internal/serve"
	"spammass/internal/testutil"
)

// benchTopology boots a 2-shard partition of the same 10k random
// graph the serve benchmarks use, fronted by a router, so
// BenchmarkRouterLookup reads directly against BenchmarkServeLookup:
// the delta between them is the routing hop (partitioner, fence
// check, upstream HTTP round trip).
func benchTopology(b *testing.B) (*graph.HostGraph, *Router) {
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
	p, err := graph.PartitionHosts(h, 2)
	if err != nil {
		b.Fatal(err)
	}
	urls := make([][]string, 2)
	for s := 0; s < 2; s++ {
		node := bootShard(b, p.Parts[s])
		urls[s] = []string{node.ts.URL}
	}
	r, err := NewRouter(Config{Shards: urls, MaxInFlightPerShard: 4096})
	if err != nil {
		b.Fatal(err)
	}
	r.ProbeOnce(context.Background())
	if r.Generation() == 0 {
		b.Fatal("fence did not form")
	}
	return h, r
}

// BenchmarkRouterLookup is full-stack routed point lookups: router
// mux, fence check, upstream shard HTTP round trip, JSON re-encoding.
func BenchmarkRouterLookup(b *testing.B) {
	h, r := benchTopology(b)
	handler := serve.NewServer(nil, nil, serve.Config{
		Backend:     r,
		MaxInFlight: 4096,
	}).Handler()
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

// BenchmarkRouterBatch is routed 64-host batches spanning both
// shards: one scatter-gather per operation, 64 records reassembled.
func BenchmarkRouterBatch(b *testing.B) {
	h, r := benchTopology(b)
	const batchSize = 64
	var next atomic.Int64
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		names := make([]string, batchSize)
		for pb.Next() {
			base := int(next.Add(batchSize))
			for i := range names {
				names[i] = h.Names[(base+i)%len(h.Names)]
			}
			resp, err := r.Batch(ctx, names)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Misses != 0 {
				b.Fatalf("batch missed %d known hosts", resp.Misses)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "hosts/s")
}

// benchWriter mirrors the serve package's benchmark ResponseWriter:
// httptest.ResponseRecorder clones headers on WriteHeader, a cost no
// production request pays.
type benchWriter struct {
	h      http.Header
	status int
}

func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *benchWriter) WriteHeader(code int)        { w.status = code }
