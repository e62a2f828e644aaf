package serve

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/pagerank"
)

// testHostGraph builds a small host graph: a 5-host chain with one
// extra edge fanning into host 4 so scores differ across hosts.
func testHostGraph(t testing.TB) *graph.HostGraph {
	t.Helper()
	g := graph.FromEdges(5, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}})
	names := []string{"a.example", "b.example", "c.example", "d.example", "e.example"}
	h, err := graph.NewHostGraph(g, names)
	if err != nil {
		t.Fatalf("NewHostGraph: %v", err)
	}
	return h
}

// realEstimates runs the actual estimator over the test host graph.
func realEstimates(t testing.TB, h *graph.HostGraph, core []graph.NodeID) *mass.Estimates {
	t.Helper()
	est, err := mass.EstimateFromCore(h.Graph, core, mass.DefaultOptions())
	if err != nil {
		t.Fatalf("EstimateFromCore: %v", err)
	}
	return est
}

func TestNewSnapshotRecords(t *testing.T) {
	h := testHostGraph(t)
	est := realEstimates(t, h, []graph.NodeID{0, 1})
	dcfg := mass.DetectConfig{RelMassThreshold: 0.5, ScaledPageRankThreshold: 0.5}
	snap, err := NewSnapshot(h, est, SnapshotConfig{Detect: dcfg, Gamma: 0.85, CoreSize: 2}, 7)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	if snap.Epoch() != 7 || snap.NumHosts() != 5 {
		t.Fatalf("snapshot epoch=%d hosts=%d, want 7/5", snap.Epoch(), snap.NumHosts())
	}
	for x := 0; x < 5; x++ {
		id := graph.NodeID(x)
		rec, ok := snap.Lookup(h.Names[x])
		if !ok {
			t.Fatalf("Lookup(%q) missed", h.Names[x])
		}
		want := mass.RecordFor(est, id, dcfg, h.Names[x])
		if rec.Host != want.Host || rec.Node != want.Node || rec.PageRank != want.P ||
			rec.CorePageRank != want.PCore || rec.AbsMass != want.AbsMass ||
			rec.RelMass != want.RelMass || rec.Label != want.Label {
			t.Errorf("record for %s = %+v, want mass.RecordFor %+v", h.Names[x], rec, want)
		}
		if rec.Epoch != 7 {
			t.Errorf("record epoch %d, want 7", rec.Epoch)
		}
		if got := rec.Evaluated; got != (want.P >= dcfg.ScaledPageRankThreshold) {
			t.Errorf("record %s evaluated=%v with p=%v rho=%v", h.Names[x], got, want.P, dcfg.ScaledPageRankThreshold)
		}
		byNode, ok := snap.LookupNode(id)
		if !ok || byNode != rec {
			t.Errorf("LookupNode(%d) = %+v,%v, want the name-lookup record", x, byNode, ok)
		}
	}
	if _, ok := snap.Lookup("nosuch.example"); ok {
		t.Error("Lookup found a nonexistent host")
	}
	if _, ok := snap.LookupNode(99); ok {
		t.Error("LookupNode accepted an out-of-range node")
	}
}

func TestSnapshotTop(t *testing.T) {
	h := testHostGraph(t)
	est := realEstimates(t, h, []graph.NodeID{0, 1})
	snap, err := NewSnapshot(h, est, SnapshotConfig{
		Detect: mass.DetectConfig{RelMassThreshold: 0.5, ScaledPageRankThreshold: 0},
		MaxTop: 3,
	}, 1)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	for _, metric := range []string{MetricRelMass, MetricAbsMass, MetricPageRank} {
		recs, err := snap.Top(metric, 100)
		if err != nil {
			t.Fatalf("Top(%s): %v", metric, err)
		}
		if len(recs) != 3 {
			t.Fatalf("Top(%s) returned %d records, want MaxTop=3", metric, len(recs))
		}
		key := func(r HostRecord) float64 {
			switch metric {
			case MetricRelMass:
				return r.RelMass
			case MetricAbsMass:
				return r.AbsMass
			default:
				return r.PageRank
			}
		}
		for i := 1; i < len(recs); i++ {
			if key(recs[i]) > key(recs[i-1]) {
				t.Errorf("Top(%s) not descending at %d: %v then %v", metric, i, key(recs[i-1]), key(recs[i]))
			}
		}
	}
	if recs, _ := snap.Top(MetricPageRank, 1); len(recs) != 1 {
		t.Errorf("Top(pagerank, 1) returned %d records", len(recs))
	}
	if _, err := snap.Top("bogus", 5); err == nil || !strings.Contains(err.Error(), "unknown ranking metric") {
		t.Errorf("Top(bogus) error = %v, want unknown-metric", err)
	}
}

func TestSnapshotTopRelMassEvaluatedOnly(t *testing.T) {
	h := testHostGraph(t)
	est := realEstimates(t, h, []graph.NodeID{0, 1})
	// Pick ρ between the min and max scaled PageRank so the evaluated
	// set T is a strict, non-empty subset.
	minP, maxP := math.Inf(1), math.Inf(-1)
	for x := 0; x < est.N(); x++ {
		p := est.ScaledPageRank(graph.NodeID(x))
		minP, maxP = math.Min(minP, p), math.Max(maxP, p)
	}
	rho := (minP + maxP) / 2
	snap, err := NewSnapshot(h, est, SnapshotConfig{
		Detect: mass.DetectConfig{RelMassThreshold: 0.98, ScaledPageRankThreshold: rho},
	}, 1)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	recs, err := snap.Top(MetricRelMass, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || len(recs) == snap.NumHosts() {
		t.Fatalf("relmass ranking over %d of %d hosts; want strict non-empty subset (rho=%v)", len(recs), snap.NumHosts(), rho)
	}
	for _, r := range recs {
		if !r.Evaluated {
			t.Errorf("relmass ranking includes unevaluated host %s", r.Host)
		}
	}
}

// newSnapshotBytesBudget and newSnapshotMallocsBudget cap one
// NewSnapshot build at any n: the measured value + 5 %. A build stores
// nothing per host — the snapshot, its core clone and three MaxTop
// rankings of node IDs — so the budget has no per-host term.
const (
	newSnapshotBytesBudget   = 16968 // measured 16,160 at 100k
	newSnapshotMallocsBudget = 23    // measured 22
)

// TestNewSnapshotAllocBudget is the first line of the bytes-per-host
// budget. It builds snapshots of the 10k and the 100k world: both must
// fit the one fixed budget, and the 100k build may not allocate a bit
// per added host more than the 10k one. A record table, a copy of
// the name index or an n-entry sort permutation breaks it. The counters
// are process-wide, so the best of three builds is held to the budget.
func TestNewSnapshotAllocBudget(t *testing.T) {
	small, err := newWebWorld(10000)
	if err != nil {
		t.Fatal(err)
	}
	var alloc [2]uint64
	for i, w := range []*webWorld{small, webFixture(t)} {
		cfg := w.config()
		allocated, mallocs := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for range 3 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_, err := NewSnapshot(w.hosts, w.est, cfg, 1)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			allocated = min(allocated, m1.TotalAlloc-m0.TotalAlloc)
			mallocs = min(mallocs, m1.Mallocs-m0.Mallocs)
		}
		n := len(w.hosts.Names)
		t.Logf("NewSnapshot over %d hosts (core %d): %d bytes, %d mallocs", n, len(w.core), allocated, mallocs)
		if allocated > newSnapshotBytesBudget {
			t.Errorf("NewSnapshot allocated %d bytes over %d hosts, budget %d", allocated, n, newSnapshotBytesBudget)
		}
		if mallocs > newSnapshotMallocsBudget {
			t.Errorf("NewSnapshot made %d allocations over %d hosts, budget %d", mallocs, n, newSnapshotMallocsBudget)
		}
		alloc[i] = allocated
	}
	// One bit per added host is the least any per-host state costs.
	added := len(webFixture(t).hosts.Names) - len(small.hosts.Names)
	if grown := alloc[1] - min(alloc[1], alloc[0]); grown >= uint64(added/8) {
		t.Errorf("NewSnapshot allocated %d bytes more at 100k than at 10k, a bit or more per added host: it grows with n", grown)
	}
}

// TestNewSnapshotSameAtAnyGOMAXPROCS pins that the concurrent ranking
// selection builds the same snapshot as one goroutine does: every
// served record, read through LookupNode, and all three rankings,
// element for element, on the 100k fixture.
func TestNewSnapshotSameAtAnyGOMAXPROCS(t *testing.T) {
	w := webFixture(t)
	build := func(procs int) *Snapshot {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return w.snapshot(t, 1)
	}
	serial, parallel := build(1), build(4)
	for x := range serial.NumHosts() {
		a, _ := serial.LookupNode(graph.NodeID(x))
		if b, ok := parallel.LookupNode(graph.NodeID(x)); !ok || a != b {
			t.Fatalf("record %d differs between GOMAXPROCS 1 and 4: %+v vs %+v", x, a, b)
		}
	}
	for _, metric := range rankedMetrics {
		a, err := serial.Top(metric, DefaultMaxTop)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := parallel.Top(metric, DefaultMaxTop)
		if len(a) == 0 {
			t.Errorf("%s ranking is empty", metric)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s ranking differs between GOMAXPROCS 1 and 4", metric)
		}
	}
}

func TestNewSnapshotValidation(t *testing.T) {
	h := testHostGraph(t)
	good := realEstimates(t, h, []graph.NodeID{0, 1})
	cfg := SnapshotConfig{Detect: mass.DefaultDetectConfig()}

	if _, err := NewSnapshot(h, good, cfg, 0); err == nil {
		t.Error("epoch 0 accepted")
	}
	short := mass.Derive(make(pagerank.Vector, 3), make(pagerank.Vector, 3), 0.85)
	if _, err := NewSnapshot(h, short, cfg, 1); err == nil {
		t.Error("mismatched estimate length accepted")
	}
	poison := func(mutate func(e *mass.Estimates)) error {
		e := mass.Derive(good.P, good.PCore, good.Damping)
		mutate(e)
		_, err := NewSnapshot(h, e, cfg, 1)
		return err
	}
	if err := poison(func(e *mass.Estimates) { e.P[2] = math.NaN() }); err == nil {
		t.Error("NaN PageRank accepted")
	}
	if err := poison(func(e *mass.Estimates) { e.Rel[1] = math.Inf(1) }); err == nil {
		t.Error("+Inf relative mass accepted")
	}
	if err := poison(func(e *mass.Estimates) { e.P[0] = -0.25 }); err == nil {
		t.Error("negative PageRank accepted")
	}
}

func TestStorePublish(t *testing.T) {
	h := testHostGraph(t)
	est := realEstimates(t, h, []graph.NodeID{0, 1})
	cfg := SnapshotConfig{Detect: mass.DefaultDetectConfig()}
	mk := func(epoch int64) *Snapshot {
		snap, err := NewSnapshot(h, est, cfg, epoch)
		if err != nil {
			t.Fatalf("NewSnapshot(%d): %v", epoch, err)
		}
		return snap
	}
	st := NewStore()
	if st.Load() != nil || st.Epoch() != 0 {
		t.Fatal("fresh store is not empty")
	}
	if err := st.Publish(nil); err == nil {
		t.Error("nil publish accepted")
	}
	if err := st.Publish(mk(1)); err != nil {
		t.Fatalf("publish epoch 1: %v", err)
	}
	if err := st.Publish(mk(3)); err != nil {
		t.Fatalf("publish epoch 3: %v", err)
	}
	if err := st.Publish(mk(2)); err == nil {
		t.Error("stale publish (epoch 2 after 3) accepted")
	}
	if err := st.Publish(mk(3)); err == nil {
		t.Error("same-epoch republish accepted")
	}
	if st.Epoch() != 3 {
		t.Fatalf("store epoch %d after stale publishes, want 3", st.Epoch())
	}
}
