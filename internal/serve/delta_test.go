package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spammass/internal/delta"
	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/obs"
	"spammass/internal/pagerank"
)

// testGenerator builds the test generations: the served shape with
// Jacobi at the default ε, which the 5-host graph solves exactly enough.
var testGenerator = Generator{Solver: pagerank.DefaultConfig()}

// coreBuilder is the full refresh of the production shape: a cold
// generation that carries its core, which is what the delta path needs
// to remap the core onto the next generation.
func coreBuilder(h *graph.HostGraph, core []graph.NodeID, gen Generator) BuildFunc {
	return func(ctx context.Context, prev *Snapshot, epoch int64) (*Snapshot, error) {
		return gen.Cold(ctx, h, core, epoch)
	}
}

// newDeltaRefresher wires the production delta path over the 5-host
// test graph and publishes the first generation.
func newDeltaRefresher(t *testing.T) (*graph.HostGraph, *Store, *Refresher) {
	t.Helper()
	h := testHostGraph(t)
	st := NewStore()
	ref := NewRefresher(st, coreBuilder(h, []graph.NodeID{0, 1}, testGenerator),
		RefresherConfig{ApplyDelta: testGenerator.Delta})
	if err := ref.Refresh(context.Background()); err != nil {
		t.Fatalf("initial refresh: %v", err)
	}
	return h, st, ref
}

// startRun runs ref's loop until the test ends. It returns once the
// loop has registered, so the loop applies a SubmitDeltaWait batch
// that follows, not its caller.
func startRun(t *testing.T, ref *Refresher) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		ref.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	waitRunning(ref)
}

// waitRunning returns once a Run loop of ref has registered.
func waitRunning(ref *Refresher) {
	for ref.running.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
}

func deltaText(t *testing.T, b *delta.Batch) string {
	t.Helper()
	var buf bytes.Buffer
	if err := delta.WriteText(&buf, b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return buf.String()
}

func waitEpoch(t *testing.T, st *Store, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for st.Epoch() < want {
		if time.Now().After(deadline) {
			t.Fatalf("store stuck at epoch %d, want %d", st.Epoch(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestApplyDeltaAdvancesEpoch applies one mutation batch through
// SubmitDeltaWait and the Run loop and holds the published snapshot to
// the cold-rebuild standard: the epoch advances by one, the new host is
// served, and the warm-started estimates match a from-scratch
// estimation of the mutated graph.
func TestApplyDeltaAdvancesEpoch(t *testing.T) {
	h, st, ref := newDeltaRefresher(t)
	startRun(t, ref)
	b := &delta.Batch{Ops: []delta.Op{
		delta.AddHostOp("f.example"),
		delta.AddEdgeOp("e.example", "f.example"),
		delta.RemoveEdgeOp("a.example", "e.example"),
	}}
	if err := ref.SubmitDeltaWait(context.Background(), b); err != nil {
		t.Fatalf("SubmitDeltaWait: %v", err)
	}
	snap := st.Load()
	if snap.Epoch() != 2 {
		t.Fatalf("epoch %d after delta, want 2", snap.Epoch())
	}
	if ref.DeltaCount() != 1 {
		t.Fatalf("DeltaCount %d, want 1", ref.DeltaCount())
	}
	rec, ok := snap.Lookup("f.example")
	if !ok {
		t.Fatal("created host not served")
	}
	if rec.Epoch != 2 {
		t.Fatalf("new host record epoch %d, want 2", rec.Epoch)
	}
	if got := snap.NumHosts(); got != 6 {
		t.Fatalf("snapshot has %d hosts, want 6", got)
	}
	if st := snap.Estimates().SolveStats; st == nil || !st.WarmStarted {
		t.Error("delta-built snapshot not marked warm-started")
	}
	if core := snap.Core(); len(core) != 2 {
		t.Fatalf("carried core has %d nodes, want 2", len(core))
	}

	// Parity with a cold rebuild of the same mutated graph.
	res, err := delta.Apply(h, b)
	if err != nil {
		t.Fatalf("scratch apply: %v", err)
	}
	cold, err := mass.EstimateFromCore(res.Hosts.Graph, res.RemapNodes([]graph.NodeID{0, 1}), mass.DefaultOptions())
	if err != nil {
		t.Fatalf("cold estimate: %v", err)
	}
	if d := snap.Estimates().P.Clone().Sub(cold.P).Norm1(); d > 1e-9 {
		t.Errorf("warm snapshot p vs cold rebuild: L1 = %.3e", d)
	}
}

// TestSnapshotResolvesAfterNextGeneration pins the ownership rule that
// lets a snapshot resolve names through its HostGraph's index instead
// of a private copy: a delta builds a new HostGraph and never touches
// the old one. A reader keeps looking hosts up in the held epoch-1
// snapshot while the delta that removes one host and adds another is
// applied and published (under -race a write to the old index would be
// a reported race), and afterwards epoch 1 still answers exactly what
// it answered before.
func TestSnapshotResolvesAfterNextGeneration(t *testing.T) {
	h, st, ref := newDeltaRefresher(t)
	startRun(t, ref)
	old := st.Load()
	before := make(map[string]HostRecord)
	for _, name := range h.Names {
		rec, ok := old.Lookup(name)
		if !ok {
			t.Fatalf("epoch 1 misses %s", name)
		}
		before[name] = rec
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := h.Names[i%len(h.Names)]
			if rec, ok := old.Lookup(name); !ok || rec != before[name] {
				t.Errorf("epoch 1 Lookup(%s) = %+v,%v during the delta", name, rec, ok)
				return
			}
		}
	}()
	err := ref.SubmitDeltaWait(context.Background(), &delta.Batch{Ops: []delta.Op{
		delta.RemoveHostOp("e.example"),
		delta.AddHostOp("f.example"),
		delta.AddEdgeOp("d.example", "f.example"),
	}})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("SubmitDeltaWait: %v", err)
	}
	cur := st.Load()
	if cur.Epoch() != 2 {
		t.Fatalf("epoch %d after delta, want 2", cur.Epoch())
	}
	if _, ok := cur.Lookup("e.example"); ok {
		t.Error("epoch 2 still serves the removed host")
	}
	if rec, ok := cur.Lookup("f.example"); !ok || rec.Epoch != 2 {
		t.Errorf("epoch 2 Lookup(f.example) = %+v,%v", rec, ok)
	}
	for name, want := range before {
		if rec, ok := old.Lookup(name); !ok || rec != want {
			t.Errorf("held epoch 1 Lookup(%s) = %+v,%v, want its original record %+v", name, rec, ok, want)
		}
	}
	if _, ok := old.Lookup("f.example"); ok {
		t.Error("held epoch 1 resolves a host added in epoch 2")
	}
}

// TestApplyDeltaConflictKeepsSnapshot feeds a conflicting batch and
// asserts graceful degradation: the error surfaces, the previous
// snapshot keeps serving, and nothing counts as applied.
func TestApplyDeltaConflictKeepsSnapshot(t *testing.T) {
	_, st, ref := newDeltaRefresher(t)
	startRun(t, ref)
	before := st.Load()
	b := &delta.Batch{Ops: []delta.Op{delta.RemoveHostOp("nosuch.example")}}
	err := ref.SubmitDeltaWait(context.Background(), b)
	if err == nil {
		t.Fatal("conflicting batch applied without error")
	}
	if !strings.Contains(err.Error(), "unknown host") {
		t.Errorf("conflict error %q does not name the cause", err)
	}
	if st.Load() != before {
		t.Error("conflicting delta replaced the snapshot")
	}
	if ref.DeltaCount() != 0 {
		t.Errorf("DeltaCount %d after failed apply, want 0", ref.DeltaCount())
	}
	if _, failed := ref.Counts(); failed != 1 {
		t.Errorf("failed count %d, want 1", failed)
	}
	if ref.LastError() == nil {
		t.Error("LastError empty after failed apply")
	}
}

// TestApplyDeltaPreconditions covers the refusal paths: an
// unconfigured delta pipeline, an empty batch, a missing base
// snapshot, and a base snapshot that carries no core.
func TestApplyDeltaPreconditions(t *testing.T) {
	h := testHostGraph(t)
	ctx := context.Background()
	b := &delta.Batch{Ops: []delta.Op{delta.AddHostOp("f.example")}}

	plain := NewRefresher(NewStore(), coreBuilder(h, []graph.NodeID{0, 1}, testGenerator), RefresherConfig{})
	startRun(t, plain)
	if err := plain.SubmitDeltaWait(ctx, b); err == nil {
		t.Error("SubmitDeltaWait accepted without a configured delta path")
	}
	if err := plain.SubmitDelta(b); err == nil {
		t.Error("SubmitDelta accepted without a configured delta path")
	}
	if plain.DeltaEnabled() {
		t.Error("DeltaEnabled true without ApplyDelta")
	}

	apply := testGenerator.Delta
	ref := NewRefresher(NewStore(), coreBuilder(h, []graph.NodeID{0, 1}, testGenerator),
		RefresherConfig{ApplyDelta: apply})
	startRun(t, ref)
	if !ref.DeltaEnabled() {
		t.Error("DeltaEnabled false with ApplyDelta configured")
	}
	if err := ref.SubmitDeltaWait(ctx, &delta.Batch{}); err == nil {
		t.Error("empty batch accepted")
	}
	if err := ref.SubmitDelta(nil); err == nil {
		t.Error("nil batch submitted")
	}
	if err := ref.SubmitDeltaWait(ctx, b); err == nil || !strings.Contains(err.Error(), "no snapshot") {
		t.Errorf("delta before first refresh: err = %v, want a no-snapshot error", err)
	}

	// A base snapshot without a carried core cannot seed the delta path.
	coreless := NewRefresher(NewStore(), estimatorBuilder(h, []graph.NodeID{0, 1}, pagerank.DefaultConfig()),
		RefresherConfig{ApplyDelta: apply})
	startRun(t, coreless)
	if err := coreless.Refresh(ctx); err != nil {
		t.Fatalf("coreless refresh: %v", err)
	}
	if err := coreless.SubmitDeltaWait(ctx, b); err == nil || !strings.Contains(err.Error(), "core") {
		t.Errorf("coreless delta apply: err = %v, want a missing-core error", err)
	}
}

// TestSubmitDeltaRunLoop drives the asynchronous path: a submitted
// batch is picked up by the Run loop and published without any
// synchronous call.
func TestSubmitDeltaRunLoop(t *testing.T) {
	_, st, ref := newDeltaRefresher(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ref.Run(ctx)
	}()

	b := &delta.Batch{Ops: []delta.Op{delta.AddEdgeOp("b.example", "e.example")}}
	if err := ref.SubmitDelta(b); err != nil {
		t.Fatalf("SubmitDelta: %v", err)
	}
	waitEpoch(t, st, 2)
	if ref.DeltaCount() != 1 {
		t.Errorf("DeltaCount %d after async apply, want 1", ref.DeltaCount())
	}
	cancel()
	<-done
}

// TestDeltaWaitKeepsQueueOrder pins that POST /admin/delta?wait=1 joins
// the ingest queue instead of overtaking it: on a refresher without a
// journal, a batch acknowledged with 202 before the Run loop starts is
// applied before a ?wait=1 batch posted after it.
func TestDeltaWaitKeepsQueueOrder(t *testing.T) {
	h := testHostGraph(t)
	st := NewStore()
	var mu sync.Mutex
	var order []string
	apply := func(ctx context.Context, prev *Snapshot, epoch int64, b *delta.Batch) (*Snapshot, error) {
		mu.Lock()
		order = append(order, b.Ops[0].Src)
		mu.Unlock()
		return testGenerator.Delta(ctx, prev, epoch, b)
	}
	ref := NewRefresher(st, coreBuilder(h, []graph.NodeID{0, 1}, testGenerator), RefresherConfig{ApplyDelta: apply})
	if err := ref.Refresh(context.Background()); err != nil {
		t.Fatalf("initial refresh: %v", err)
	}
	ts := httptest.NewServer(NewServer(st, ref, Config{}).Handler())
	defer ts.Close()
	post := func(path string, b *delta.Batch) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(deltaText(t, b)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("POST %s: decode: %v", path, err)
		}
		return resp.StatusCode, out
	}

	if code, body := post("/admin/delta", &delta.Batch{Ops: []delta.Op{delta.AddEdgeOp("b.example", "e.example")}}); code != http.StatusAccepted {
		t.Fatalf("async batch: status %d body %v, want 202", code, body)
	}
	code, body := post("/admin/delta?wait=1", &delta.Batch{Ops: []delta.Op{delta.AddEdgeOp("c.example", "e.example")}})
	if code != http.StatusOK {
		t.Fatalf("wait=1 batch: status %d body %v, want 200", code, body)
	}
	startRun(t, ref)
	waitEpoch(t, st, 3)
	mu.Lock()
	got := append([]string(nil), order...)
	mu.Unlock()
	if want := []string{"b.example", "c.example"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("apply order %v, want %v: the ?wait=1 batch overtook the one queued before it", got, want)
	}
	if body["epoch"].(float64) != 3 {
		t.Fatalf("wait=1 batch reported epoch %v, want 3 (applied after the queued batch)", body["epoch"])
	}
}

// TestRunStopSettlesWaiters stops the Run loop while one batch is
// applying and a SubmitDeltaWait batch waits behind it: the waiter gets
// the loop's cancellation instead of blocking forever, its batch is
// never applied, and the queue empties.
func TestRunStopSettlesWaiters(t *testing.T) {
	h := testHostGraph(t)
	st := NewStore()
	started := make(chan struct{}, 2)
	var applied atomic.Int64
	apply := func(ctx context.Context, prev *Snapshot, epoch int64, b *delta.Batch) (*Snapshot, error) {
		applied.Add(1)
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ref := NewRefresher(st, coreBuilder(h, []graph.NodeID{0, 1}, testGenerator), RefresherConfig{ApplyDelta: apply})
	if err := ref.Refresh(context.Background()); err != nil {
		t.Fatalf("initial refresh: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		ref.Run(ctx)
	}()
	if err := ref.SubmitDelta(&delta.Batch{Ops: []delta.Op{delta.AddEdgeOp("b.example", "e.example")}}); err != nil {
		t.Fatalf("SubmitDelta: %v", err)
	}
	<-started
	waitErr := make(chan error, 1)
	go func() {
		waitErr <- ref.SubmitDeltaWait(context.Background(), &delta.Batch{Ops: []delta.Op{delta.AddEdgeOp("c.example", "e.example")}})
	}()
	for d, _ := ref.QueueDepth(); d < 2; d, _ = ref.QueueDepth() {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-waitErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still blocked 10 s after the Run loop stopped")
	}
	<-stopped
	if got := applied.Load(); got != 1 {
		t.Errorf("%d applies ran, want 1: the stopping loop applied the waiting batch", got)
	}
	if d, _ := ref.QueueDepth(); d != 0 {
		t.Errorf("queue depth %d after the loop stopped, want 0", d)
	}
}

// TestDeltaEndpoint walks POST /admin/delta through its status codes:
// 501 unconfigured, 400 unparseable, 200 applied with ?wait=1, 409 on
// conflict with the snapshot untouched, 202 queued without ?wait, and
// the /admin/status fields that report the path.
func TestDeltaEndpoint(t *testing.T) {
	// No delta path at all → 501.
	h := testHostGraph(t)
	plainRef := NewRefresher(NewStore(), coreBuilder(h, []graph.NodeID{0, 1}, testGenerator), RefresherConfig{})
	plain := httptest.NewServer(NewServer(NewStore(), plainRef, Config{}).Handler())
	defer plain.Close()
	resp, err := http.Post(plain.URL+"/admin/delta", "text/plain", strings.NewReader("delta 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("unconfigured delta endpoint: status %d, want 501", resp.StatusCode)
	}

	_, st, ref := newDeltaRefresher(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ref.Run(ctx)
	ts := httptest.NewServer(NewServer(st, ref, Config{}).Handler())
	defer ts.Close()
	post := func(path, body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("POST %s: decode: %v", path, err)
		}
		return resp.StatusCode, out
	}

	if code, _ := post("/admin/delta", "not a delta\n"); code != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d, want 400", code)
	}

	add := deltaText(t, &delta.Batch{Ops: []delta.Op{delta.AddEdgeOp("b.example", "e.example")}})
	code, body := post("/admin/delta?wait=1", add)
	if code != http.StatusOK {
		t.Fatalf("wait=1 apply: status %d body %v, want 200", code, body)
	}
	if body["epoch"].(float64) != 2 {
		t.Fatalf("wait=1 apply reported epoch %v, want 2", body["epoch"])
	}

	// The same edge again conflicts; the serving snapshot must survive.
	if code, _ := post("/admin/delta?wait=1", add); code != http.StatusConflict {
		t.Fatalf("conflicting apply: status %d, want 409", code)
	}
	if st.Epoch() != 2 {
		t.Fatalf("epoch %d after conflict, want 2", st.Epoch())
	}

	remove := deltaText(t, &delta.Batch{Ops: []delta.Op{delta.RemoveEdgeOp("b.example", "e.example")}})
	code, body = post("/admin/delta", remove)
	if code != http.StatusAccepted {
		t.Fatalf("queued apply: status %d body %v, want 202", code, body)
	}
	waitEpoch(t, st, 3)

	var status StatusResponse
	if code := getJSON(t, ts.URL+"/admin/status", &status); code != http.StatusOK {
		t.Fatalf("status endpoint: %d", code)
	}
	if !status.DeltaEnabled {
		t.Error("status does not report the delta path enabled")
	}
	if status.DeltaBatches != 2 {
		t.Errorf("status reports %d delta batches, want 2", status.DeltaBatches)
	}
	if status.Epoch != 3 {
		t.Errorf("status epoch %d, want 3", status.Epoch)
	}
}

// TestDeltaBackpressure fills the ingest queue with no Run loop
// draining it: DefaultDeltaQueue submissions are accepted, the next is
// shed with 429 + Retry-After, and the status and metric surfaces
// report the full queue and the one rejection.
func TestDeltaBackpressure(t *testing.T) {
	h := testHostGraph(t)
	st := NewStore()
	reg := obs.NewRegistry()
	octx := obs.NewContext(reg, nil)
	ref := NewRefresher(st, coreBuilder(h, []graph.NodeID{0, 1}, testGenerator), RefresherConfig{
		ApplyDelta: testGenerator.Delta,
		Obs:        octx,
	})
	if err := ref.Refresh(context.Background()); err != nil {
		t.Fatalf("initial refresh: %v", err)
	}
	ts := httptest.NewServer(NewServer(st, ref, Config{Obs: octx}).Handler())
	defer ts.Close()
	body := deltaText(t, &delta.Batch{Ops: []delta.Op{delta.AddEdgeOp("b.example", "e.example")}})
	post := func() *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/admin/delta", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	for i := 0; i < DefaultDeltaQueue; i++ {
		if resp := post(); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d, want 202", i+1, resp.StatusCode)
		}
	}
	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submission past a full queue: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("429 Retry-After %q, want 1", ra)
	}

	var status StatusResponse
	if code := getJSON(t, ts.URL+"/admin/status", &status); code != http.StatusOK {
		t.Fatalf("status endpoint: %d", code)
	}
	if status.IngestQueueDepth != DefaultDeltaQueue || status.IngestQueueCap != DefaultDeltaQueue || status.IngestRejected != 1 {
		t.Fatalf("status queue depth %d, capacity %d, rejected %d; want %d, %d, 1",
			status.IngestQueueDepth, status.IngestQueueCap, status.IngestRejected, DefaultDeltaQueue, DefaultDeltaQueue)
	}
	if got := reg.Counter("serve.ingest_rejected_total").Value(); got != 1 {
		t.Fatalf("serve.ingest_rejected_total = %d, want 1", got)
	}
}

// TestConcurrentDeltaDuringLookups is the delta-path swap hammer, run
// under -race: one writer applies mutation batches through
// SubmitDeltaWait and the Run loop, another forces
// full rebuilds, and reader goroutines hammer the query and status
// endpoints throughout. Readers must never see a non-200 response or
// an epoch moving backwards; conflicts between the two writers (a
// delta against a graph the full rebuild just reset) are expected and
// must only fail the batch, never the serving path.
func TestConcurrentDeltaDuringLookups(t *testing.T) {
	const (
		targetEpoch = 30
		readers     = 6
	)
	_, st, ref := newDeltaRefresher(t)
	startRun(t, ref)
	ts := httptest.NewServer(NewServer(st, ref, Config{MaxInFlight: readers * 4}).Handler())
	defer ts.Close()

	done := make(chan struct{})
	errc := make(chan error, readers+2)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client := &http.Client{}
			paths := []string{"/v1/host/a.example", "/admin/status"}
			lastEpoch := int64(0)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				resp, err := client.Get(ts.URL + paths[i%len(paths)])
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", id, err)
					return
				}
				var body struct {
					Epoch int64 `json:"epoch"`
				}
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("reader %d: status %d during delta hammer", id, resp.StatusCode)
					return
				}
				if err != nil {
					errc <- fmt.Errorf("reader %d: decode: %v", id, err)
					return
				}
				if body.Epoch < lastEpoch {
					errc <- fmt.Errorf("reader %d: epoch went backwards %d -> %d", id, lastEpoch, body.Epoch)
					return
				}
				lastEpoch = body.Epoch
			}
		}(g)
	}

	// Writer 1: mutation batches, alternating add/remove of one edge.
	// Full rebuilds racing in from writer 2 reset the graph underneath
	// it, so some batches conflict — those must fail cleanly.
	var deltaOK atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := context.Background()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			op := delta.AddEdgeOp("b.example", "e.example")
			if i%2 == 1 {
				op = delta.RemoveEdgeOp("b.example", "e.example")
			}
			if err := ref.SubmitDeltaWait(ctx, &delta.Batch{Ops: []delta.Op{op}}); err == nil {
				deltaOK.Add(1)
			}
		}
	}()

	// Writer 2: full rebuilds from the base graph.
	var refreshOK atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := context.Background()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := ref.Refresh(ctx); err != nil {
				errc <- fmt.Errorf("full refresh: %v", err)
				return
			}
			refreshOK.Add(1)
		}
	}()

	// Run until both writers have demonstrably interleaved: rebuilds on
	// this tiny graph are fast enough to hit the target epoch before
	// the delta writer is even scheduled, so the epoch alone is not a
	// stopping condition.
	deadline := time.Now().Add(30 * time.Second)
	for st.Epoch() < targetEpoch || deltaOK.Load() < 5 || refreshOK.Load() < 5 {
		select {
		case err := <-errc:
			close(done)
			wg.Wait()
			t.Fatal(err)
		default:
		}
		if time.Now().After(deadline) {
			close(done)
			wg.Wait()
			t.Fatalf("hammer stalled at epoch %d, want %d", st.Epoch(), targetEpoch)
		}
		time.Sleep(time.Millisecond)
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if deltaOK.Load() == 0 {
		t.Error("no delta batch ever applied during the hammer")
	}
	if refreshOK.Load() == 0 {
		t.Error("no full refresh ever completed during the hammer")
	}
	t.Logf("hammer: %d deltas applied, %d full refreshes, final epoch %d",
		deltaOK.Load(), refreshOK.Load(), st.Epoch())
}
