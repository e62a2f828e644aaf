package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/pagerank"
	"spammass/internal/testutil"
	"spammass/internal/webgen"
)

// webWorld is a webgen world with real estimates from its assembled
// good core. The shared 100k-host one is the fixture of the ranking
// oracle, the /v1 byte comparisons and the NewSnapshot allocation
// budget, which also builds a 10k-host one. In the 100k world about
// 28 % of its hosts are isolated and share one exact p and M̃, and
// every host the core does not reach ties at m̃ = 1, so all three
// rankings carry large exact-tie groups.
type webWorld struct {
	hosts *graph.HostGraph
	est   *mass.Estimates
	core  []graph.NodeID
}

func newWebWorld(hosts int) (*webWorld, error) {
	h, core, err := testutil.Web(webgen.DefaultConfig(hosts))
	if err != nil {
		return nil, err
	}
	est, err := mass.EstimateFromCore(h.Graph, core, mass.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &webWorld{hosts: h, est: est, core: core}, nil
}

var loadWebWorld = sync.OnceValues(func() (*webWorld, error) { return newWebWorld(100000) })

func webFixture(tb testing.TB) *webWorld {
	tb.Helper()
	w, err := loadWebWorld()
	if err != nil {
		tb.Fatalf("webgen fixture: %v", err)
	}
	return w
}

func (w *webWorld) config() SnapshotConfig {
	return SnapshotConfig{Detect: mass.DefaultDetectConfig(), Gamma: mass.DefaultOptions().Gamma, Core: w.core}
}

func (w *webWorld) snapshot(tb testing.TB, epoch int64) *Snapshot {
	tb.Helper()
	snap, err := NewSnapshot(w.hosts, w.est, w.config(), epoch)
	if err != nil {
		tb.Fatalf("NewSnapshot: %v", err)
	}
	return snap
}

// eagerRecords is the record table NewSnapshot used to materialise on
// every publish, built the way it built it: one HostRecord per host from
// mass.RecordFor, with the evaluated flag and the epoch. It is the
// oracle the records derived on demand are held to.
func eagerRecords(s *Snapshot) []HostRecord {
	dcfg := s.cfg.Detect
	recs := make([]HostRecord, len(s.hosts.Names))
	for x := range recs {
		rec := mass.RecordFor(s.est, graph.NodeID(x), dcfg, s.hosts.Names[x])
		recs[x] = HostRecord{
			Host:         rec.Host,
			Node:         rec.Node,
			PageRank:     rec.P,
			CorePageRank: rec.PCore,
			AbsMass:      rec.AbsMass,
			RelMass:      rec.RelMass,
			Label:        rec.Label,
			Evaluated:    rec.P >= dcfg.ScaledPageRankThreshold,
			Epoch:        s.epoch,
		}
	}
	return recs
}

// rankOracle is the ranking as NewSnapshot built it before the bounded
// selection: materialise every candidate record (eagerRecords), full-sort
// by key descending then host name ascending, keep the first MaxTop. It
// spells the order out instead of calling rankedBefore so the two can
// disagree.
func rankOracle(s *Snapshot, metric string) []HostRecord {
	key, _ := rankKey(metric)
	var all []HostRecord
	for _, rec := range eagerRecords(s) {
		if metric == MetricRelMass && !rec.Evaluated {
			continue
		}
		all = append(all, rec)
	}
	sort.Slice(all, func(i, j int) bool {
		if ki, kj := key(&all[i]), key(&all[j]); ki != kj {
			return ki > kj
		}
		return all[i].Host < all[j].Host
	})
	return all[:min(s.cfg.MaxTop, len(all))]
}

// assertTopMatchesOracle compares Snapshot.Top with the oracle element
// for element (every HostRecord field) on all three metrics, at the
// full precomputed length and at a few prefixes.
func assertTopMatchesOracle(t *testing.T, snap *Snapshot) {
	t.Helper()
	for _, metric := range []string{MetricRelMass, MetricAbsMass, MetricPageRank} {
		want := rankOracle(snap, metric)
		for _, n := range []int{len(want) + 5, len(want), len(want) / 2, 1, 0} {
			got, err := snap.Top(metric, n)
			if err != nil {
				t.Fatalf("Top(%s, %d): %v", metric, n, err)
			}
			if wantN := min(max(n, 0), len(want)); len(got) != wantN {
				t.Fatalf("Top(%s, %d) has %d records, oracle %d", metric, n, len(got), wantN)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Top(%s, %d)[%d] = %+v, oracle %+v", metric, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRankMatchesOracleWebgen(t *testing.T) {
	snap := webFixture(t).snapshot(t, 1)
	assertTopMatchesOracle(t, snap)
	// The fixture must keep exercising what it is here for: a PageRank
	// tie group larger than the ranking itself, and an examined set that
	// is a strict, non-empty subset.
	ties := map[float64]int{}
	evaluated := 0
	for x := range snap.NumHosts() {
		rec, _ := snap.LookupNode(graph.NodeID(x))
		ties[rec.PageRank]++
		if rec.Evaluated {
			evaluated++
		}
	}
	largest := 0
	for _, c := range ties {
		largest = max(largest, c)
	}
	if largest <= DefaultMaxTop || evaluated == 0 || evaluated == snap.NumHosts() {
		t.Fatalf("fixture lost its shape: largest exact-p tie %d (want > %d), %d of %d hosts examined",
			largest, DefaultMaxTop, evaluated, snap.NumHosts())
	}
}

// TestServedBytesMatchEagerOracle holds every answer the snapshot derives
// on demand to the eager record table it replaced, on the 100k world:
// each host's appendRecord bytes, by node and by name, and each
// metric's full /v1/top body.
func TestServedBytesMatchEagerOracle(t *testing.T) {
	snap := webFixture(t).snapshot(t, 5)
	var got, want []byte
	for x, rec := range eagerRecords(snap) {
		byNode, ok := snap.LookupNode(graph.NodeID(x))
		if !ok {
			t.Fatalf("LookupNode(%d) missed", x)
		}
		want = appendRecord(want[:0], &rec)
		if got = appendRecord(got[:0], &byNode); !bytes.Equal(got, want) {
			t.Fatalf("node %d:\n got %s\nwant %s", x, got, want)
		}
		if byName, _ := snap.Lookup(rec.Host); byName != byNode {
			t.Fatalf("Lookup(%q) = %+v, LookupNode %+v", rec.Host, byName, byNode)
		}
	}
	for _, metric := range rankedMetrics {
		recs, err := snap.Top(metric, snap.cfg.MaxTop)
		if err != nil {
			t.Fatal(err)
		}
		got = appendTop(got[:0], &TopResponse{Epoch: 5, Metric: metric, Records: recs})
		want = appendTop(want[:0], &TopResponse{Epoch: 5, Metric: metric, Records: rankOracle(snap, metric)})
		if !bytes.Equal(got, want) {
			t.Errorf("%s: /v1/top body (%d bytes) differs from the eager oracle's (%d bytes)", metric, len(got), len(want))
		}
	}
}

// vectorSnapshot builds a snapshot straight from raw p and p' vectors
// over an edgeless graph, so a test controls every ranking key.
func vectorSnapshot(t *testing.T, names []string, p, pCore pagerank.Vector, cfg SnapshotConfig) *Snapshot {
	t.Helper()
	h, err := graph.NewHostGraph(graph.FromEdges(len(names), nil), names)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewSnapshot(h, mass.Derive(p, pCore, 0.85), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestRankCutInsideTieGroup puts the MaxTop cut strictly inside a group
// of hosts with identical scores: two hosts rank above the group, the
// cut keeps three of its six members, and only the host name decides
// which three. Node order is scrambled against name order so an
// ID-order or arrival-order selection fails.
func TestRankCutInsideTieGroup(t *testing.T) {
	names := []string{"t4", "low2", "t1", "top2", "t6", "low1", "t3", "top1", "t5", "t2", "low3", "low4"}
	p := make(pagerank.Vector, len(names))
	pCore := make(pagerank.Vector, len(names))
	for x, name := range names {
		switch {
		case strings.HasPrefix(name, "top"):
			p[x], pCore[x] = 0.4, 0.1
		case strings.HasPrefix(name, "low"):
			p[x], pCore[x] = 0.1, 0.075
		default:
			p[x], pCore[x] = 0.2, 0.1
		}
	}
	cfg := SnapshotConfig{Detect: mass.DetectConfig{RelMassThreshold: 0.5}, MaxTop: 5}
	snap := vectorSnapshot(t, names, p, pCore, cfg)
	assertTopMatchesOracle(t, snap)
	want := []string{"top1", "top2", "t1", "t2", "t3"}
	for _, metric := range []string{MetricRelMass, MetricAbsMass, MetricPageRank} {
		if got := topHosts(t, snap, metric, 5); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s top-5 = %v, want %v", metric, got, want)
		}
	}
	for _, maxTop := range []int{1, 3, len(names), len(names) + 5} {
		cfg.MaxTop = maxTop
		snap := vectorSnapshot(t, names, p, pCore, cfg)
		assertTopMatchesOracle(t, snap)
		if got, want := len(topHosts(t, snap, MetricPageRank, 100)), min(maxTop, len(names)); got != want {
			t.Errorf("MaxTop=%d: ranking has %d records, want %d", maxTop, got, want)
		}
	}
}

// TestRankEmptyExaminedSet sets ρ above every scaled PageRank: no host
// is examined, so the relative-mass ranking is empty while the other
// two still rank everything.
func TestRankEmptyExaminedSet(t *testing.T) {
	names := []string{"c", "a", "d", "b"}
	p := pagerank.Vector{0.1, 0.4, 0.2, 0.3}
	pCore := pagerank.Vector{0.05, 0.1, 0.2, 0}
	cfg := SnapshotConfig{Detect: mass.DetectConfig{RelMassThreshold: 0.5, ScaledPageRankThreshold: 1e9}}
	snap := vectorSnapshot(t, names, p, pCore, cfg)
	assertTopMatchesOracle(t, snap)
	if got := topHosts(t, snap, MetricRelMass, 10); len(got) != 0 {
		t.Errorf("relmass ranking over an empty examined set = %v", got)
	}
	if got := topHosts(t, snap, MetricPageRank, 10); fmt.Sprint(got) != "[a b d c]" {
		t.Errorf("pagerank ranking = %v, want [a b d c]", got)
	}
	if got := topHosts(t, snap, MetricAbsMass, 10); fmt.Sprint(got) != "[a b c d]" {
		t.Errorf("absmass ranking = %v, want [a b c d]", got)
	}
}

// TestRankMatchesOracleRandomTies draws 50 seeded estimate vectors
// whose p and p' each take one of four values, so every ranking is
// almost all ties, with MaxTop anywhere from 1 to past n and ρ set so
// that about half the hosts are examined.
func TestRankMatchesOracleRandomTies(t *testing.T) {
	values := []float64{0.125, 0.25, 0.5, 1}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(300)
		names := make([]string, n)
		for i, j := range rng.Perm(n) {
			names[i] = fmt.Sprintf("h%03d.example", j)
		}
		p := make(pagerank.Vector, n)
		pCore := make(pagerank.Vector, n)
		for x := range p {
			p[x] = values[rng.Intn(4)] / float64(n)
			pCore[x] = values[rng.Intn(4)] / float64(n) / 2
		}
		cfg := SnapshotConfig{
			// Scaled, p is values[i]/(1−c): ρ falls between the second
			// and third value.
			Detect: mass.DetectConfig{RelMassThreshold: 0.5, ScaledPageRankThreshold: 0.375 / (1 - 0.85)},
			MaxTop: 1 + rng.Intn(n+5),
		}
		snap := vectorSnapshot(t, names, p, pCore, cfg)
		assertTopMatchesOracle(t, snap)
		if t.Failed() {
			t.Fatalf("seed %d (n=%d, MaxTop=%d)", seed, n, cfg.MaxTop)
		}
	}
}

// tieSnapshot builds a snapshot over hosts whose scores are all equal,
// with the node↔name assignment given by order. Equal scores force
// every ranking position to be decided by the tie-break alone.
func tieSnapshot(t *testing.T, order []string, epoch int64) *Snapshot {
	t.Helper()
	n := len(order)
	h, err := graph.NewHostGraph(graph.FromEdges(n, nil), order)
	if err != nil {
		t.Fatal(err)
	}
	p := make(pagerank.Vector, n)
	pCore := make(pagerank.Vector, n)
	// Scaled PageRank must clear ρ=10 so every host lands in the
	// evaluated set and shows up in the relmass ranking too.
	for x := range p {
		p[x] = 0.5
		pCore[x] = 0.25
	}
	est := mass.Derive(p, pCore, 0.85)
	snap, err := NewSnapshot(h, est, SnapshotConfig{Detect: mass.DefaultDetectConfig()}, epoch)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func topHosts(t *testing.T, snap *Snapshot, metric string, n int) []string {
	t.Helper()
	recs, err := snap.Top(metric, n)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Host
	}
	return out
}

// TestTopTieBreakStableAcrossRenumbering is the regression test for
// the ranking tie-break: two snapshots over the same hosts with
// identical scores but different node numbering (what a delta apply's
// renumbering or a shard-local ID space produces) must serve the same
// /v1/top order. The old node-ID tie-break failed exactly this.
func TestTopTieBreakStableAcrossRenumbering(t *testing.T) {
	names := []string{"d.example", "b.example", "e.example", "a.example", "c.example"}
	permuted := []string{"c.example", "a.example", "d.example", "e.example", "b.example"}
	for _, metric := range []string{MetricRelMass, MetricAbsMass, MetricPageRank} {
		got1 := topHosts(t, tieSnapshot(t, names, 1), metric, len(names))
		got2 := topHosts(t, tieSnapshot(t, permuted, 2), metric, len(names))
		if len(got1) != len(names) {
			t.Fatalf("%s: ranking has %d entries, want %d", metric, len(got1), len(names))
		}
		for i := range got1 {
			if got1[i] != got2[i] {
				t.Fatalf("%s: rankings diverge under renumbering:\n  %v\n  %v", metric, got1, got2)
			}
			// With all scores equal the order must be exactly ascending
			// host name.
			if i > 0 && got1[i-1] >= got1[i] {
				t.Fatalf("%s: tie-break is not ascending host name: %v", metric, got1)
			}
		}
	}
}

func TestMergeTop(t *testing.T) {
	mk := func(host string, rel float64, epoch int64) HostRecord {
		return HostRecord{Host: host, RelMass: rel, Epoch: epoch}
	}
	shard0 := []HostRecord{mk("b.example", 0.9, 3), mk("a.example", 0.5, 3)}
	shard1 := []HostRecord{mk("c.example", 0.9, 7), mk("d.example", 0.7, 7)}
	got, err := MergeTop(MetricRelMass, 3, shard0, shard1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"b.example", "c.example", "d.example"}
	if len(got) != len(want) {
		t.Fatalf("merged %d records, want %d", len(got), len(want))
	}
	for i, rec := range got {
		if rec.Host != want[i] {
			t.Fatalf("merge order %v, want %v", got, want)
		}
	}
	// Records keep their per-shard epochs through the merge.
	if got[0].Epoch != 3 || got[1].Epoch != 7 {
		t.Fatalf("merge rewrote epochs: %+v", got)
	}
	if _, err := MergeTop("nonsense", 3, shard0); err == nil {
		t.Fatal("unknown metric must fail")
	}
	if out, err := MergeTop(MetricRelMass, 100, shard0, nil, shard1); err != nil || len(out) != 4 {
		t.Fatalf("over-asking must clamp: %d records, err %v", len(out), err)
	}
}

func TestStoreBackend(t *testing.T) {
	st := NewStore()
	b := NewStoreBackend(st)
	ctx := context.Background()
	if _, _, err := b.Lookup(ctx, "a.example"); err != ErrNoSnapshot {
		t.Fatalf("empty-store Lookup err = %v, want ErrNoSnapshot", err)
	}
	if _, err := b.Batch(ctx, []string{"a.example"}); err != ErrNoSnapshot {
		t.Fatalf("empty-store Batch err = %v, want ErrNoSnapshot", err)
	}
	if _, err := b.Top(ctx, MetricRelMass, 5); err != ErrNoSnapshot {
		t.Fatalf("empty-store Top err = %v, want ErrNoSnapshot", err)
	}
	if b.Generation() != 0 {
		t.Fatalf("empty-store Generation = %d", b.Generation())
	}

	h := testHostGraph(t)
	est := realEstimates(t, h, []graph.NodeID{0, 1})
	snap, err := NewSnapshot(h, est, SnapshotConfig{Detect: mass.DefaultDetectConfig()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Publish(snap); err != nil {
		t.Fatal(err)
	}
	rec, ok, err := b.Lookup(ctx, "a.example")
	if err != nil || !ok || rec.Host != "a.example" || rec.Epoch != 4 {
		t.Fatalf("Lookup = (%+v, %v, %v)", rec, ok, err)
	}
	if _, ok, err := b.Lookup(ctx, "nosuch.example"); err != nil || ok {
		t.Fatalf("miss must be ok=false with nil error, got (%v, %v)", ok, err)
	}
	resp, err := b.Batch(ctx, []string{"b.example", "nosuch.example", "b.example"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != 4 || resp.Misses != 1 || resp.Records[1] != nil ||
		resp.Records[0] == nil || resp.Records[2] == nil || *resp.Records[0] != *resp.Records[2] {
		t.Fatalf("Batch = %+v", resp)
	}
	if b.Generation() != 4 {
		t.Fatalf("Generation = %d, want 4", b.Generation())
	}
}
