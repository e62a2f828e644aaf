package delta

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"spammass/internal/graph"
)

// hostGraph builds a HostGraph from name-level edges; isolated extras
// can be listed in alone.
func hostGraph(t *testing.T, edges [][2]string, alone ...string) *graph.HostGraph {
	t.Helper()
	idx := map[string]graph.NodeID{}
	var names []string
	intern := func(name string) graph.NodeID {
		if x, ok := idx[name]; ok {
			return x
		}
		x := graph.NodeID(len(names))
		idx[name] = x
		names = append(names, name)
		return x
	}
	for _, e := range edges {
		intern(e[0])
		intern(e[1])
	}
	for _, name := range alone {
		intern(name)
	}
	b := graph.NewBuilder(len(names))
	for _, e := range edges {
		b.AddEdge(idx[e[0]], idx[e[1]])
	}
	h, err := graph.NewHostGraph(b.Build(), names)
	if err != nil {
		t.Fatalf("NewHostGraph: %v", err)
	}
	return h
}

// nameEdges returns the name-level edge set "src>dst", sorted, plus
// the sorted name set — the renumbering-independent identity of a
// host graph.
func nameEdges(h *graph.HostGraph) (edges, names []string) {
	h.Graph.Edges(func(x, y graph.NodeID) bool {
		edges = append(edges, h.Names[x]+">"+h.Names[y])
		return true
	})
	names = append(names, h.Names...)
	sort.Strings(edges)
	sort.Strings(names)
	return edges, names
}

func sameWorld(t *testing.T, got, want *graph.HostGraph, what string) {
	t.Helper()
	ge, gn := nameEdges(got)
	we, wn := nameEdges(want)
	if !reflect.DeepEqual(gn, wn) {
		t.Fatalf("%s: host sets differ:\ngot  %v\nwant %v", what, gn, wn)
	}
	if !reflect.DeepEqual(ge, we) {
		t.Fatalf("%s: edge sets differ:\ngot  %v\nwant %v", what, ge, we)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		op   Op
	}{
		{"self edge", AddEdgeOp("a", "a")},
		{"empty src", AddHostOp("")},
		{"whitespace", AddHostOp("a b")},
		{"comment marker", AddHostOp("#a")},
		{"missing dst", Op{Kind: AddEdge, Src: "a"}},
		{"host op with dst", Op{Kind: RemoveHost, Src: "a", Dst: "b"}},
		{"unknown kind", Op{Kind: Kind(99), Src: "a"}},
	}
	for _, tc := range cases {
		b := &Batch{Ops: []Op{tc.op}}
		if err := b.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %v", tc.name, tc.op)
		}
	}
	ok := &Batch{Ops: []Op{AddHostOp("a"), RemoveHostOp("b"), AddEdgeOp("c", "d"), RemoveEdgeOp("d", "c")}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("Validate rejected valid batch: %v", err)
	}
}

func TestDedup(t *testing.T) {
	b := &Batch{Ops: []Op{
		AddEdgeOp("a", "b"), AddHostOp("h"), AddEdgeOp("a", "b"), AddHostOp("h"), RemoveEdgeOp("a", "b"),
	}}
	d := b.Dedup()
	want := []Op{AddEdgeOp("a", "b"), AddHostOp("h"), RemoveEdgeOp("a", "b")}
	if !reflect.DeepEqual(d.Ops, want) {
		t.Fatalf("Dedup = %v, want %v", d.Ops, want)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	b := &Batch{Ops: []Op{
		AddHostOp("new.example.com"),
		RemoveHostOp("dead.example.com"),
		AddEdgeOp("a.com", "b.com"),
		RemoveEdgeOp("b.com", "a.com"),
	}}
	var buf bytes.Buffer
	if err := WriteText(&buf, b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if !reflect.DeepEqual(got.Ops, b.Ops) {
		t.Fatalf("round trip:\ngot  %v\nwant %v", got.Ops, b.Ops)
	}
}

func TestCodecErrors(t *testing.T) {
	cases := []string{
		"",                        // empty
		"nonsense 1\n+h a\n",      // bad header
		"delta 2\n+h a\n",         // unsupported version
		"delta 1\n?x a\n",         // unknown op
		"delta 1\n+h\n",           // missing name
		"delta 1\n+e a\n",         // missing dst
		"delta 1\n+e a b extra\n", // trailing field
		"delta 1\n+e a a\n",       // self edge
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("ReadText accepted %q", in)
		}
	}
	// Comments and blank lines are fine.
	got, err := ReadText(strings.NewReader("# preamble\ndelta 1\n\n# note\n+h a\n"))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if len(got.Ops) != 1 || got.Ops[0] != AddHostOp("a") {
		t.Fatalf("ReadText = %v", got.Ops)
	}
}

func TestApplyBasic(t *testing.T) {
	h := hostGraph(t, [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}, {"a", "c"}}, "idle")
	b := &Batch{Ops: []Op{
		RemoveHostOp("c"),       // drops b>c, c>a, a>c
		AddHostOp("solo"),       // isolated newcomer
		AddEdgeOp("b", "fresh"), // auto-creates fresh
		AddEdgeOp("idle", "a"),
		RemoveEdgeOp("a", "b"),
	}}
	res, err := Apply(h, b)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	want := hostGraph(t, [][2]string{{"b", "fresh"}, {"idle", "a"}}, "a", "solo")
	sameWorld(t, res.Hosts, want, "applied graph")

	if got := res.Stats; got.HostsAdded != 2 || got.HostsRemoved != 1 || got.EdgesAdded != 2 || got.EdgesRemoved != 4 {
		t.Fatalf("Stats = %+v", got)
	}
	if got, want := res.Stats.AppliedEdges(), int64(6); got != want {
		t.Fatalf("AppliedEdges = %d, want %d", got, want)
	}
	// Monotone remap: a,b survive in order, c gone.
	a, _ := h.NodeByName("a")
	bID, _ := h.NodeByName("b")
	c, _ := h.NodeByName("c")
	if res.Remap[c] != -1 {
		t.Fatalf("removed host c remapped to %d", res.Remap[c])
	}
	if res.Remap[a] >= res.Remap[bID] {
		t.Fatalf("remap not monotone: a→%d, b→%d", res.Remap[a], res.Remap[bID])
	}
	na, _ := res.Hosts.NodeByName("a")
	if int64(na) != res.Remap[a] {
		t.Fatalf("remap[a] = %d, index says %d", res.Remap[a], na)
	}
	// New hosts occupy the tail IDs, in NewNodes.
	if len(res.NewNodes) != 2 {
		t.Fatalf("NewNodes = %v", res.NewNodes)
	}
	for _, x := range res.NewNodes {
		name := res.Hosts.Names[x]
		if name != "solo" && name != "fresh" {
			t.Fatalf("NewNodes contains %q", name)
		}
	}
	// RemapNodes drops removed entries and preserves order.
	mapped := res.RemapNodes([]graph.NodeID{a, c, bID})
	if len(mapped) != 2 || int64(mapped[0]) != res.Remap[a] || int64(mapped[1]) != res.Remap[bID] {
		t.Fatalf("RemapNodes = %v", mapped)
	}
}

func TestApplyConflicts(t *testing.T) {
	h := hostGraph(t, [][2]string{{"a", "b"}, {"b", "c"}})
	cases := []struct {
		name string
		ops  []Op
	}{
		{"add existing host", []Op{AddHostOp("a")}},
		{"remove unknown host", []Op{RemoveHostOp("ghost")}},
		{"remove and re-add host", []Op{RemoveHostOp("a"), AddHostOp("a")}},
		{"add existing edge", []Op{AddEdgeOp("a", "b")}},
		{"remove missing edge", []Op{RemoveEdgeOp("b", "a")}},
		{"remove edge with unknown host", []Op{RemoveEdgeOp("ghost", "a")}},
		{"add and remove same edge", []Op{AddEdgeOp("b", "a"), RemoveEdgeOp("b", "a")}},
		{"edge into removed host", []Op{RemoveHostOp("c"), AddEdgeOp("a", "c")}},
		{"explicit removal into removed host", []Op{RemoveHostOp("c"), RemoveEdgeOp("b", "c")}},
	}
	for _, tc := range cases {
		if _, err := Apply(h, &Batch{Ops: tc.ops}); err == nil {
			t.Errorf("%s: Apply accepted %v", tc.name, tc.ops)
		}
	}
}

func TestApplyEmptyBatchIsIdentity(t *testing.T) {
	h := hostGraph(t, [][2]string{{"a", "b"}, {"b", "c"}})
	res, err := Apply(h, &Batch{})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !res.Hosts.Graph.Equal(h.Graph) {
		t.Fatal("empty batch changed the graph")
	}
	if !reflect.DeepEqual(res.Hosts.Names, h.Names) {
		t.Fatal("empty batch changed the names")
	}
}

// randomWorld builds a random host graph for the parity tests.
func randomWorld(t *testing.T, rng *rand.Rand, n, m int) *graph.HostGraph {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("host%04d.test", i)
	}
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		x := graph.NodeID(rng.Intn(n))
		y := graph.NodeID(rng.Intn(n))
		if x != y {
			b.AddEdge(x, y)
		}
	}
	h, err := graph.NewHostGraph(b.Build(), names)
	if err != nil {
		t.Fatalf("NewHostGraph: %v", err)
	}
	return h
}

// randomBatch builds a conflict-free batch against h: some host
// removals, some fresh hosts, some edge removals among kept hosts,
// some additions of edges that do not exist.
func randomBatch(rng *rand.Rand, h *graph.HostGraph, gen int) *Batch {
	n := h.Graph.NumNodes()
	b := &Batch{}
	removed := make(map[graph.NodeID]bool)
	for x := 0; x < n; x++ {
		if rng.Float64() < 0.05 {
			removed[graph.NodeID(x)] = true
			b.Ops = append(b.Ops, RemoveHostOp(h.Names[x]))
		}
	}
	fresh := []string{}
	for i := 0; i < 1+rng.Intn(4); i++ {
		name := fmt.Sprintf("fresh%d-%d.test", gen, i)
		fresh = append(fresh, name)
		if rng.Float64() < 0.5 {
			b.Ops = append(b.Ops, AddHostOp(name))
		} else {
			// implicit creation through an AddEdge
			dst := graph.NodeID(rng.Intn(n))
			if !removed[dst] {
				b.Ops = append(b.Ops, AddEdgeOp(name, h.Names[dst]))
			} else {
				b.Ops = append(b.Ops, AddHostOp(name))
			}
		}
	}
	touched := make(map[[2]string]bool)
	h.Graph.Edges(func(x, y graph.NodeID) bool {
		if !removed[x] && !removed[y] && rng.Float64() < 0.1 {
			b.Ops = append(b.Ops, RemoveEdgeOp(h.Names[x], h.Names[y]))
			touched[[2]string{h.Names[x], h.Names[y]}] = true
		}
		return true
	})
	for i := 0; i < n/4; i++ {
		x := graph.NodeID(rng.Intn(n))
		y := graph.NodeID(rng.Intn(n))
		if x == y || removed[x] || removed[y] || h.Graph.HasEdge(x, y) {
			continue
		}
		key := [2]string{h.Names[x], h.Names[y]}
		if touched[key] {
			continue
		}
		touched[key] = true
		b.Ops = append(b.Ops, AddEdgeOp(h.Names[x], h.Names[y]))
	}
	// A few edges among the fresh hosts.
	if len(fresh) >= 2 {
		b.Ops = append(b.Ops, AddEdgeOp(fresh[0], fresh[1]))
	}
	return b
}

// rebuildFromScratch constructs the expected next generation the slow
// way: materialize the name-level edge set, mutate it, and rebuild
// with the Builder using exactly Apply's ID policy (survivors in old
// order, created hosts in first-appearance order).
func rebuildFromScratch(t *testing.T, h *graph.HostGraph, b *Batch) *graph.HostGraph {
	t.Helper()
	b = b.Dedup()
	removed := map[string]bool{}
	for _, op := range b.Ops {
		if op.Kind == RemoveHost {
			removed[op.Src] = true
		}
	}
	var names []string
	idx := map[string]graph.NodeID{}
	intern := func(name string) graph.NodeID {
		if x, ok := idx[name]; ok {
			return x
		}
		x := graph.NodeID(len(names))
		idx[name] = x
		names = append(names, name)
		return x
	}
	for _, name := range h.Names {
		if !removed[name] {
			intern(name)
		}
	}
	// Apply's created-host ID policy: explicit AddHost ops first (its
	// host pass), then implicit creations in edge-op order.
	for _, op := range b.Ops {
		if op.Kind == AddHost {
			intern(op.Src)
		}
	}
	for _, op := range b.Ops {
		if op.Kind == AddEdge {
			intern(op.Src)
			intern(op.Dst)
		}
	}
	edges := map[[2]string]bool{}
	h.Graph.Edges(func(x, y graph.NodeID) bool {
		if !removed[h.Names[x]] && !removed[h.Names[y]] {
			edges[[2]string{h.Names[x], h.Names[y]}] = true
		}
		return true
	})
	for _, op := range b.Ops {
		switch op.Kind {
		case AddEdge:
			edges[[2]string{op.Src, op.Dst}] = true
		case RemoveEdge:
			delete(edges, [2]string{op.Src, op.Dst})
		}
	}
	gb := graph.NewBuilder(len(names))
	for e := range edges {
		gb.AddEdge(idx[e[0]], idx[e[1]])
	}
	out, err := graph.NewHostGraph(gb.Build(), names)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	return out
}

// TestApplyParity is the tentpole guarantee: the merged graph is
// byte-identical — same CSR arrays, same names, same host index — to
// one rebuilt from scratch from the mutated edge list.
func TestApplyParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := randomWorld(t, rng, 300, 1800)
	for gen := 0; gen < 8; gen++ {
		b := randomBatch(rng, h, gen)
		res, err := Apply(h, b)
		if err != nil {
			t.Fatalf("gen %d: Apply: %v", gen, err)
		}
		if err := res.Hosts.Graph.Validate(); err != nil {
			t.Fatalf("gen %d: merged graph invalid: %v", gen, err)
		}
		want := rebuildFromScratch(t, h, b)
		if !reflect.DeepEqual(res.Hosts.Names, want.Names) {
			t.Fatalf("gen %d: names differ", gen)
		}
		if !res.Hosts.Graph.Equal(want.Graph) {
			t.Fatalf("gen %d: CSR arrays differ from scratch rebuild", gen)
		}
		// The merged index must agree with the scratch rebuild's (which
		// NewHostGraph derives from Names) on every name either graph
		// carries and on every name of the previous generation — a
		// removed host left behind in the merged index resolves only there.
		for _, names := range [][]string{res.Hosts.Names, want.Names, h.Names} {
			for _, name := range names {
				gx, gok := res.Hosts.NodeByName(name)
				wx, wok := want.NodeByName(name)
				if gx != wx || gok != wok {
					t.Fatalf("gen %d: merged index resolves %q to %d,%v, scratch rebuild to %d,%v", gen, name, gx, gok, wx, wok)
				}
			}
		}
		h = res.Hosts
	}
}

// TestApplyInverse checks that applying Result.Inverse restores the
// original graph at the name level (IDs of restored hosts move to the
// end of the ID space, by design).
func TestApplyInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := randomWorld(t, rng, 200, 1200)
	for gen := 0; gen < 6; gen++ {
		b := randomBatch(rng, h, gen)
		res, err := Apply(h, b)
		if err != nil {
			t.Fatalf("gen %d: Apply: %v", gen, err)
		}
		back, err := Apply(res.Hosts, res.Inverse)
		if err != nil {
			t.Fatalf("gen %d: Apply(inverse): %v", gen, err)
		}
		sameWorld(t, back.Hosts, h, fmt.Sprintf("gen %d inverse", gen))
		h = res.Hosts
	}
}

func TestDiffRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	old := randomWorld(t, rng, 150, 700)
	// Build an arbitrary second generation sharing ~90% of the names.
	next := func() *graph.HostGraph {
		res, err := Apply(old, randomBatch(rng, old, 99))
		if err != nil {
			t.Fatalf("churn: %v", err)
		}
		return res.Hosts
	}()
	b, err := Diff(old, next)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	res, err := Apply(old, b)
	if err != nil {
		t.Fatalf("Apply(diff): %v", err)
	}
	sameWorld(t, res.Hosts, next, "diff round trip")

	// Identical graphs diff to the empty batch.
	same, err := Diff(old, old)
	if err != nil {
		t.Fatalf("Diff(old, old): %v", err)
	}
	if same.NumOps() != 0 {
		t.Fatalf("self-diff has %d ops: %v", same.NumOps(), same.Ops)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{HostsAdded: 1, HostsRemoved: 2, EdgesAdded: 3, EdgesRemoved: 4}
	if got, want := s.String(), "+1h -2h +3e -4e"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestStatsAdd(t *testing.T) {
	s := Stats{HostsAdded: 1, EdgesRemoved: 2}
	s.Add(Stats{HostsAdded: 2, HostsRemoved: 3, EdgesAdded: 4, EdgesRemoved: 5})
	if want := (Stats{HostsAdded: 3, HostsRemoved: 3, EdgesAdded: 4, EdgesRemoved: 7}); s != want {
		t.Fatalf("Stats.Add = %+v, want %+v", s, want)
	}
}
