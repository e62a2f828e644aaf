package shard

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"spammass/internal/delta"
	"spammass/internal/graph"
	"spammass/internal/serve"
)

// TestRouterHammer is the cross-shard swap hammer of the generation
// fence, meant for -race: a writer drives cross-shard delta batches
// through the router while shard refreshers churn epochs and reader
// goroutines hammer Lookup/Batch/Top plus the router's HTTP front.
// The readers assert the fence contract on every response:
//
//   - the served generation never moves backwards,
//   - every record's epoch is at or above the fence floor of its
//     owning shard as read before the request (floors only rise),
//   - within one batch response, records of the same shard carry one
//     epoch — never a torn mix of snapshots,
//   - no request fails while shards keep serving (zero 5xx on the
//     HTTP front).
//
// After the writer finishes, every host it added must resolve and the
// fence floor must cover the final delta's epochs.
func TestRouterHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer is for full and -race runs")
	}
	h := harnessHostGraph(t, 80)
	r, _, nodes := bootTopology(t, h, 2, Config{})

	front := serve.NewServer(nil, nil, serve.Config{
		Backend: r,
		Routes: map[string]http.HandlerFunc{
			"POST /admin/delta": r.HandleDelta,
			"GET /admin/status": r.HandleStatus,
		},
	})
	frontMux := front.Handler()

	const deltas = 12
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var writerDone atomic.Bool
	var added sync.Map // host name → generation it was fenced under
	errs := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	var wg sync.WaitGroup

	// Writer: cross-shard delta batches through the fence, two hosts
	// and an intra-shard edge per round.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		for i := 0; i < deltas; i++ {
			a := fmt.Sprintf("swap%02da.example", i)
			b := fmt.Sprintf("swap%02db.example", i)
			batch := &delta.Batch{Ops: []delta.Op{
				delta.AddHostOp(a),
				delta.AddHostOp(b),
				delta.AddEdgeOp(a, b), // kept or dropped by ownership; both fine
			}}
			res, err := r.ApplyDelta(ctx, batch)
			if err != nil {
				report("writer: delta %d: %v", i, err)
				return
			}
			added.Store(a, res.Generation)
			added.Store(b, res.Generation)
		}
	}()

	// Churn: concurrent full refreshes on both shard nodes, racing the
	// delta path's snapshot publishes.
	for s, node := range nodes {
		wg.Add(1)
		go func(s int, node *shardNode) {
			defer wg.Done()
			for !writerDone.Load() {
				if err := node.ref.Refresh(ctx); err != nil && ctx.Err() == nil {
					report("shard %d refresh: %v", s, err)
					return
				}
			}
		}(s, node)
	}

	names := h.Names
	probeNames := []string{names[0], names[1], names[17], names[42], "missing.example"}

	// Readers against the Backend interface: fence floors and epoch
	// coherence.
	for reader := 0; reader < 3; reader++ {
		wg.Add(1)
		go func(reader int) {
			defer wg.Done()
			lastGen := int64(0)
			for round := 0; !writerDone.Load() || round == 0; round++ {
				g := r.gen.Load()
				resp, err := r.Batch(ctx, probeNames)
				if err != nil {
					report("reader %d: batch: %v", reader, err)
					return
				}
				if resp.Epoch < lastGen {
					report("reader %d: generation moved backwards %d -> %d", reader, lastGen, resp.Epoch)
					return
				}
				lastGen = resp.Epoch
				shardEpoch := map[int]int64{}
				for i, rec := range resp.Records {
					if rec == nil {
						continue
					}
					s := graph.ShardOf(probeNames[i], 2)
					if rec.Epoch < g.MinEpoch[s] {
						report("reader %d: record %s epoch %d below pre-read floor %d",
							reader, rec.Host, rec.Epoch, g.MinEpoch[s])
						return
					}
					if prev, ok := shardEpoch[s]; ok && prev != rec.Epoch {
						report("reader %d: torn batch: shard %d mixes epochs %d and %d",
							reader, s, prev, rec.Epoch)
						return
					}
					shardEpoch[s] = rec.Epoch
				}
				if _, err := r.Top(ctx, serve.MetricPageRank, 10); err != nil {
					report("reader %d: top: %v", reader, err)
					return
				}
			}
		}(reader)
	}

	// HTTP readers against the router front: zero 5xx while shards
	// stay up.
	for reader := 0; reader < 2; reader++ {
		wg.Add(1)
		go func(reader int) {
			defer wg.Done()
			paths := []string{
				"/v1/host/" + names[3],
				"/v1/top?metric=relmass&n=5",
				"/readyz",
				"/admin/status",
			}
			for round := 0; !writerDone.Load() || round == 0; round++ {
				for _, path := range paths {
					req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
					if err != nil {
						report("http reader %d: %v", reader, err)
						return
					}
					rw := newRecorder()
					frontMux.ServeHTTP(rw, req)
					if rw.status >= 500 {
						report("http reader %d: %s answered %d: %s", reader, path, rw.status, rw.body.String())
						return
					}
				}
			}
		}(reader)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Post-conditions: fence covers the final writes, every added host
	// resolves at or above its fence generation's floor.
	g := r.gen.Load()
	if g == nil || g.ID < 1+deltas {
		t.Fatalf("final generation %+v, want at least %d", g, 1+deltas)
	}
	added.Range(func(k, v any) bool {
		name := k.(string)
		rec, ok, err := r.Lookup(context.Background(), name)
		if err != nil || !ok {
			t.Fatalf("post-hammer Lookup(%s) = (%v, %v)", name, ok, err)
		}
		if rec.Epoch < g.MinEpoch[graph.ShardOf(name, 2)] {
			t.Fatalf("post-hammer record %s epoch %d below floor", name, rec.Epoch)
		}
		return true
	})
	for s, node := range nodes {
		if e := node.store.Epoch(); e < g.MinEpoch[s] {
			t.Fatalf("shard %d store epoch %d below its fence floor %d", s, e, g.MinEpoch[s])
		}
	}
}

// recorder is a minimal concurrent-safe ResponseWriter for in-process
// HTTP assertions (httptest.ResponseRecorder works too; this keeps the
// hammer allocation-light).
type recorder struct {
	status int
	header http.Header
	body   *jsonBuffer
}

type jsonBuffer struct{ b []byte }

func (j *jsonBuffer) Write(p []byte) (int, error) { j.b = append(j.b, p...); return len(p), nil }
func (j *jsonBuffer) String() string              { return string(j.b) }

func newRecorder() *recorder {
	return &recorder{status: http.StatusOK, header: make(http.Header), body: &jsonBuffer{}}
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.status = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }
