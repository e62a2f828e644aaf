package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"spammass/internal/delta"
	"spammass/internal/graph"
	"spammass/internal/obs"
	"spammass/internal/pagerank"
	"spammass/internal/serve"
)

// harnessHostGraph builds a graph big enough that every shard of a
// 2-3 way partition holds hosts: a ring over n named hosts plus skip
// edges for connectivity.
func harnessHostGraph(t testing.TB, n int) *graph.HostGraph {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("h%03d.example", i)
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+7)%n))
	}
	h, err := graph.NewHostGraph(b.Build(), names)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// shardGenerator builds every shard generation: the served shape with
// Jacobi at the default ε.
var shardGenerator = serve.Generator{Solver: pagerank.DefaultConfig()}

// shardBuilder is the BuildFunc of one shard node. The first build
// estimates over the shard-local subgraph; later builds re-estimate
// whatever host graph the previous snapshot holds, so a full refresh
// racing the delta path never resurrects pre-delta hosts.
func shardBuilder(h *graph.HostGraph, core []graph.NodeID) serve.BuildFunc {
	return func(ctx context.Context, prev *serve.Snapshot, epoch int64) (*serve.Snapshot, error) {
		hh, cc := h, core
		if prev != nil {
			hh, cc = prev.HostGraph(), prev.Core()
		}
		return shardGenerator.Cold(ctx, hh, cc, epoch)
	}
}

// shardNode is one booted shard: a full serve stack over a partition.
type shardNode struct {
	store *serve.Store
	ref   *serve.Refresher
	ts    *httptest.Server
	// batchBodies records every POST /v1/batch body the node saw, for
	// asserting what the router actually fans out.
	mu          sync.Mutex
	batchBodies []serve.BatchRequest
}

func (n *shardNode) seenBatches() []serve.BatchRequest {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]serve.BatchRequest(nil), n.batchBodies...)
}

// bootShard starts one shard node over its partition subgraph, with a
// delta-enabled refresher and one published snapshot.
func bootShard(t testing.TB, part *graph.HostGraph) *shardNode {
	t.Helper()
	if len(part.Names) == 0 {
		t.Fatal("empty shard partition; grow the harness graph")
	}
	core := []graph.NodeID{0}
	if len(part.Names) > 4 {
		core = append(core, graph.NodeID(len(part.Names)/2))
	}
	st := serve.NewStore()
	ref := serve.NewRefresher(st, shardBuilder(part, core), serve.RefresherConfig{
		ApplyDelta: shardGenerator.Delta,
	})
	if err := ref.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	node := &shardNode{store: st, ref: ref}
	inner := serve.NewServer(st, ref, serve.Config{}).Handler()
	node.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/batch" {
			body, _ := io.ReadAll(r.Body)
			r.Body.Close()
			var req serve.BatchRequest
			if json.Unmarshal(body, &req) == nil {
				node.mu.Lock()
				node.batchBodies = append(node.batchBodies, req)
				node.mu.Unlock()
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(node.ts.Close)
	return node
}

// bootTopology partitions a host graph over n shards, boots a node
// per shard, and returns a router with its fence formed.
func bootTopology(t testing.TB, h *graph.HostGraph, n int, cfg Config) (*Router, *graph.HostPartition, []*shardNode) {
	t.Helper()
	p, err := graph.PartitionHosts(h, n)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*shardNode, n)
	cfg.Shards = make([][]string, n)
	for s := 0; s < n; s++ {
		nodes[s] = bootShard(t, p.Parts[s])
		cfg.Shards[s] = []string{nodes[s].ts.URL}
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.ProbeOnce(context.Background())
	if r.Generation() == 0 {
		t.Fatal("fence did not form after probing ready shards")
	}
	return r, p, nodes
}

func TestRouterLookup(t *testing.T) {
	h := harnessHostGraph(t, 60)
	r, p, nodes := bootTopology(t, h, 2, Config{})
	ctx := context.Background()

	names := h.Names
	for _, name := range []string{names[0], names[1], names[31]} {
		rec, ok, err := r.Lookup(ctx, name)
		if err != nil || !ok {
			t.Fatalf("Lookup(%s) = (%v, %v)", name, ok, err)
		}
		if rec.Host != name {
			t.Fatalf("Lookup(%s) returned record for %s", name, rec.Host)
		}
		s := graph.ShardOf(name, 2)
		want, _ := nodes[s].store.Load().Lookup(name)
		if rec != want {
			t.Fatalf("routed record %+v != shard %d record %+v", rec, s, want)
		}
		id, _ := h.NodeByName(name)
		if p.Shard[id] != int32(s) {
			t.Fatalf("partition and router disagree on owner of %s", name)
		}
	}
	if _, ok, err := r.Lookup(ctx, "nosuch.example"); err != nil || ok {
		t.Fatalf("miss = (%v, %v), want (false, nil)", ok, err)
	}
}

func TestRouterNotReadyBeforeFence(t *testing.T) {
	h := harnessHostGraph(t, 40)
	p, err := graph.PartitionHosts(h, 2)
	if err != nil {
		t.Fatal(err)
	}
	n0, n1 := bootShard(t, p.Parts[0]), bootShard(t, p.Parts[1])
	r, err := NewRouter(Config{Shards: [][]string{{n0.ts.URL}, {n1.ts.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Lookup(context.Background(), "h000.example"); err != serve.ErrNoSnapshot {
		t.Fatalf("pre-fence Lookup err = %v, want ErrNoSnapshot", err)
	}
	if _, err := r.Batch(context.Background(), []string{"h000.example"}); err != serve.ErrNoSnapshot {
		t.Fatalf("pre-fence Batch err = %v, want ErrNoSnapshot", err)
	}
	if _, err := r.Top(context.Background(), serve.MetricPageRank, 3); err != serve.ErrNoSnapshot {
		t.Fatalf("pre-fence Top err = %v, want ErrNoSnapshot", err)
	}
	if g := r.Generation(); g != 0 {
		t.Fatalf("pre-fence Generation = %d", g)
	}
}

// TestRouterBatch is the cross-shard batch contract: alignment with
// the request, null per miss, duplicates answered from one upstream
// fetch, and per-shard fan-out carrying each unique name exactly once.
func TestRouterBatch(t *testing.T) {
	h := harnessHostGraph(t, 60)
	r, _, nodes := bootTopology(t, h, 2, Config{})
	ctx := context.Background()

	names := h.Names
	var byShard [2]string
	for _, n := range names {
		byShard[graph.ShardOf(n, 2)] = n
	}
	if byShard[0] == "" || byShard[1] == "" {
		t.Fatal("harness graph does not span both shards")
	}
	req := []string{
		byShard[0], byShard[1], byShard[0], // cross-shard with a duplicate
		"nosuch.example",
		byShard[1],
		"alsomissing.example", "nosuch.example", // duplicated miss
	}
	resp, err := r.Batch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Records) != len(req) {
		t.Fatalf("response has %d records for %d names", len(resp.Records), len(req))
	}
	if resp.Epoch != r.Generation() {
		t.Fatalf("batch epoch %d != fence generation %d", resp.Epoch, r.Generation())
	}
	if resp.Misses != 3 {
		t.Fatalf("Misses = %d, want 3 (each missing position counts)", resp.Misses)
	}
	for i, name := range req {
		rec := resp.Records[i]
		if name == "nosuch.example" || name == "alsomissing.example" {
			if rec != nil {
				t.Fatalf("Records[%d] for missing %s is %+v, want null", i, name, rec)
			}
			continue
		}
		if rec == nil || rec.Host != name {
			t.Fatalf("Records[%d] = %+v, want record for %s", i, rec, name)
		}
	}
	if resp.Records[0] != resp.Records[2] {
		t.Fatal("duplicate names must share one record from one upstream fetch")
	}

	// Upstream fan-out: each shard saw exactly one batch, holding only
	// its own unique names.
	for s, node := range nodes {
		batches := node.seenBatches()
		if len(batches) != 1 {
			t.Fatalf("shard %d saw %d batch requests, want 1", s, len(batches))
		}
		seen := make(map[string]bool)
		for _, name := range batches[0].Hosts {
			if seen[name] {
				t.Fatalf("shard %d batch carries duplicate %q", s, name)
			}
			seen[name] = true
			if graph.ShardOf(name, 2) != s {
				t.Fatalf("shard %d batch carries foreign name %q", s, name)
			}
		}
	}
}

// TestRouterTopMerge checks the scatter-gather ranking: repeatable
// order, epoch = fence generation, and exactly the serve-side merge of
// the per-shard rankings.
func TestRouterTopMerge(t *testing.T) {
	h := harnessHostGraph(t, 60)
	r, _, nodes := bootTopology(t, h, 2, Config{})
	ctx := context.Background()
	const n = 25

	for _, metric := range []string{serve.MetricRelMass, serve.MetricAbsMass, serve.MetricPageRank} {
		first, err := r.Top(ctx, metric, n)
		if err != nil {
			t.Fatalf("Top(%s): %v", metric, err)
		}
		if first.Epoch != r.Generation() || first.Metric != metric {
			t.Fatalf("Top(%s) header = %+v", metric, first)
		}
		second, err := r.Top(ctx, metric, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first.Records {
			if first.Records[i].Host != second.Records[i].Host {
				t.Fatalf("Top(%s) order not stable across calls at %d: %s vs %s",
					metric, i, first.Records[i].Host, second.Records[i].Host)
			}
		}
		lists := make([][]serve.HostRecord, len(nodes))
		for s, node := range nodes {
			recs, err := node.store.Load().Top(metric, n)
			if err != nil {
				t.Fatal(err)
			}
			lists[s] = recs
		}
		want, err := serve.MergeTop(metric, n, lists...)
		if err != nil {
			t.Fatal(err)
		}
		if len(first.Records) != len(want) {
			t.Fatalf("Top(%s) merged %d records, want %d", metric, len(first.Records), len(want))
		}
		for i := range want {
			if first.Records[i].Host != want[i].Host {
				t.Fatalf("Top(%s) diverges from MergeTop at %d: %s vs %s",
					metric, i, first.Records[i].Host, want[i].Host)
			}
		}
	}
}

// TestRouterDeltaFence drives a cross-shard delta through the router
// and checks the fence contract: generation advances once, floors
// rise to the published epochs, and the new hosts resolve afterwards.
func TestRouterDeltaFence(t *testing.T) {
	h := harnessHostGraph(t, 60)
	r, _, _ := bootTopology(t, h, 2, Config{})
	ctx := context.Background()
	genBefore := r.Generation()

	// Host names chosen to land on both shards.
	var added []string
	var perShard [2]int
	for i := 0; perShard[0] == 0 || perShard[1] == 0; i++ {
		name := fmt.Sprintf("new%02d.example", i)
		s := graph.ShardOf(name, 2)
		if perShard[s] == 0 {
			added = append(added, name)
			perShard[s]++
		}
	}
	b := &delta.Batch{}
	for _, name := range added {
		b.Ops = append(b.Ops, delta.AddHostOp(name))
	}
	res, err := r.ApplyDelta(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != genBefore+1 {
		t.Fatalf("delta generation %d, want %d", res.Generation, genBefore+1)
	}
	if len(res.Shards) != 2 {
		t.Fatalf("delta touched shards %v, want both", res.Shards)
	}
	g := r.gen.Load()
	for i, s := range res.Shards {
		if g.MinEpoch[s] != res.ShardEpochs[i] {
			t.Fatalf("fence floor for shard %d is %d, delta published %d", s, g.MinEpoch[s], res.ShardEpochs[i])
		}
		if res.ShardEpochs[i] < 2 {
			t.Fatalf("shard %d epoch %d did not advance", s, res.ShardEpochs[i])
		}
	}
	for _, name := range added {
		rec, ok, err := r.Lookup(ctx, name)
		if err != nil || !ok {
			t.Fatalf("post-delta Lookup(%s) = (%v, %v)", name, ok, err)
		}
		if rec.Epoch < g.MinEpoch[graph.ShardOf(name, 2)] {
			t.Fatalf("post-delta record epoch %d below floor", rec.Epoch)
		}
	}

	// A batch dropping only cross-shard edges touches nothing and must
	// leave the fence alone.
	crossA, crossB := added[0], added[1]
	if graph.ShardOf(crossA, 2) == graph.ShardOf(crossB, 2) {
		t.Fatal("added hosts should span shards")
	}
	res2, err := r.ApplyDelta(ctx, &delta.Batch{Ops: []delta.Op{delta.AddEdgeOp(crossA, crossB)}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.CrossEdges != 1 || len(res2.Shards) != 0 {
		t.Fatalf("cross-only delta result %+v", res2)
	}
	if r.Generation() != res.Generation {
		t.Fatalf("cross-only delta advanced the fence to %d", r.Generation())
	}
}

// fakeShard is a minimal hand-rolled shard endpoint for failure-mode
// tests (stale replicas, slow replicas).
func fakeShard(t *testing.T, epoch int64, handler http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "epoch": epoch})
	})
	mux.HandleFunc("/", handler)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func hostRecordJSON(host string, epoch int64) *serve.HostRecord {
	return &serve.HostRecord{Host: host, Label: "good", Epoch: epoch}
}

// TestRouterStaleReplicaRetry: a replica still serving below the fence
// floor gets one retry; the second answer at the floor is served.
func TestRouterStaleReplicaRetry(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	staleAlways := false
	ts := fakeShard(t, 3, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		stale := calls == 1 || staleAlways
		mu.Unlock()
		epoch := int64(3)
		if stale {
			epoch = 1 // below the floor the probe advertised
		}
		writeJSON(w, http.StatusOK, hostRecordJSON("x.example", epoch))
	})
	r, err := NewRouter(Config{
		Shards:     [][]string{{ts.URL}},
		HedgeAfter: -1,
		Obs:        obs.NewContext(obs.NewRegistry(), nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.ProbeOnce(context.Background())
	if r.Generation() != 1 {
		t.Fatal("fence did not form from fake shard")
	}
	rec, ok, err := r.Lookup(context.Background(), "x.example")
	if err != nil || !ok || rec.Epoch != 3 {
		t.Fatalf("Lookup = (%+v, %v, %v), want retried record at epoch 3", rec, ok, err)
	}
	if got := r.staleRetries.Value(); got != 1 {
		t.Fatalf("stale retries = %d, want 1", got)
	}

	// A replica that never catches up is an error, not a silent stale
	// answer.
	mu.Lock()
	staleAlways = true // every later answer stays at epoch 1
	mu.Unlock()
	if _, _, err := r.Lookup(context.Background(), "x.example"); err == nil {
		t.Fatal("persistently stale replica must fail the lookup")
	}
}

// TestRouterHedging: with one replica stalled, the hedge to the second
// replica answers well before the stall clears.
func TestRouterHedging(t *testing.T) {
	release := make(chan struct{})
	slow := fakeShard(t, 2, func(w http.ResponseWriter, r *http.Request) {
		<-release
		writeJSON(w, http.StatusOK, hostRecordJSON("x.example", 2))
	})
	defer close(release)
	fast := fakeShard(t, 2, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, hostRecordJSON("x.example", 2))
	})
	r, err := NewRouter(Config{
		Shards:     [][]string{{slow.URL, fast.URL}},
		HedgeAfter: 5 * time.Millisecond,
		Obs:        obs.NewContext(obs.NewRegistry(), nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.ProbeOnce(context.Background())

	// Run a few lookups: whichever replica round-robin picks first,
	// at least one request starts on the stalled replica and must be
	// rescued by its hedge.
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		rec, ok, err := r.Lookup(ctx, "x.example")
		cancel()
		if err != nil || !ok || rec.Epoch != 2 {
			t.Fatalf("hedged Lookup %d = (%+v, %v, %v)", i, rec, ok, err)
		}
	}
	if r.hedges.Value() == 0 {
		t.Fatal("no hedge fired despite a stalled replica")
	}
}

// TestRouterBehindServeHTTP mounts the Router behind the stock serve
// HTTP layer — the exact spamserver -role=router wiring — and checks
// the admin routes and a cross-shard read end to end.
func TestRouterBehindServeHTTP(t *testing.T) {
	h := harnessHostGraph(t, 60)
	r, _, _ := bootTopology(t, h, 2, Config{})
	front := serve.NewServer(nil, nil, serve.Config{
		Backend: r,
		Routes: map[string]http.HandlerFunc{
			"POST /admin/delta": r.HandleDelta,
			"GET /admin/status": r.HandleStatus,
		},
	})
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router /readyz status %d", resp.StatusCode)
	}

	var buf bytes.Buffer
	buf.WriteString("delta 1\n+h routed00.example\n+h routed01.example\n")
	dresp, err := http.Post(ts.URL+"/admin/delta", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var dres DeltaResult
	if err := json.NewDecoder(dresp.Body).Decode(&dres); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || dres.Generation != 2 {
		t.Fatalf("router delta status %d result %+v", dresp.StatusCode, dres)
	}

	var st RouterStatus
	sresp, err := http.Get(ts.URL + "/admin/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Role != "router" || st.Generation != 2 || len(st.Shards) != 2 {
		t.Fatalf("router status %+v", st)
	}

	var rec serve.HostRecord
	hresp, err := http.Get(ts.URL + "/v1/host/routed00.example")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || rec.Host != "routed00.example" {
		t.Fatalf("routed lookup status %d record %+v", hresp.StatusCode, rec)
	}
}
