package delta

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"spammass/internal/graph"
)

// FuzzDeltaApply drives arbitrary delta text through the full
// pipeline: whatever parses must round-trip through the codec, and
// whatever applies cleanly must produce a graph satisfying the CSR
// invariants whose application is undone by the inverse batch. Run
// the seeds as normal tests, or explore with `go test -fuzz=FuzzDeltaApply`.
func FuzzDeltaApply(f *testing.F) {
	f.Add("delta 1\n+h new.test\n-h a.test\n+e b.test c.test\n-e a.test b.test\n")
	f.Add("delta 1\n# comment\n\n+e x.test y.test\n")
	f.Add("delta 1\n-h a.test\n-h b.test\n-h c.test\n")
	f.Add("delta 1\n+e n0.test n1.test\n+e n1.test n0.test\n+h lone.test\n")
	f.Add("delta 1\n+e a.test a.test\n")     // self edge: must not parse
	f.Add("delta 1\n+h a.test\n+h a.test\n") // dup add: parses, Apply rejects
	f.Add("nonsense\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		if len(data) > 1<<14 {
			return
		}
		b, err := ReadText(strings.NewReader(data))
		if err != nil {
			return
		}
		// Codec round trip: write→read must reproduce the ops exactly.
		var buf bytes.Buffer
		if err := WriteText(&buf, b); err != nil {
			t.Fatalf("WriteText on parsed batch: %v", err)
		}
		b2, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if len(b.Ops) != len(b2.Ops) || (len(b.Ops) > 0 && !reflect.DeepEqual(b.Ops, b2.Ops)) {
			t.Fatalf("codec round trip changed ops:\nin  %v\nout %v", b.Ops, b2.Ops)
		}

		// Apply against a small fixed world; conflicts are fine, a
		// malformed result is not.
		base := fuzzWorld(t)
		res, err := Apply(base, b)
		if err != nil {
			return
		}
		if err := res.Hosts.Graph.Validate(); err != nil {
			t.Fatalf("applied graph violates invariants: %v", err)
		}
		if len(res.Hosts.Names) != res.Hosts.Graph.NumNodes() {
			t.Fatalf("%d names for %d nodes", len(res.Hosts.Names), res.Hosts.Graph.NumNodes())
		}
		// Batch + inverse restores the original at the name level.
		back, err := Apply(res.Hosts, res.Inverse)
		if err != nil {
			t.Fatalf("inverse failed to apply: %v", err)
		}
		be, bn := fuzzNameEdges(back.Hosts)
		oe, on := fuzzNameEdges(base)
		if !reflect.DeepEqual(bn, on) || !reflect.DeepEqual(be, oe) {
			t.Fatalf("inverse did not restore the original:\nhosts %v vs %v\nedges %v vs %v", bn, on, be, oe)
		}
	})
}

func fuzzWorld(t *testing.T) *graph.HostGraph {
	t.Helper()
	names := []string{"a.test", "b.test", "c.test", "n0.test", "n1.test", "x.test"}
	b := graph.NewBuilder(len(names))
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {0, 3}} {
		b.AddEdge(e[0], e[1])
	}
	h, err := graph.NewHostGraph(b.Build(), names)
	if err != nil {
		t.Fatalf("fuzz world: %v", err)
	}
	return h
}

func fuzzNameEdges(h *graph.HostGraph) (edges, names []string) {
	h.Graph.Edges(func(x, y graph.NodeID) bool {
		edges = append(edges, h.Names[x]+">"+h.Names[y])
		return true
	})
	names = append(names, h.Names...)
	sort.Strings(edges)
	sort.Strings(names)
	return edges, names
}

// FuzzDeltaFold holds a Fold to sequential application. The input is
// split on "=" lines into up to six batches (each gets the text header
// prepended; ones that do not parse are dropped); they are staged on
// one Fold and applied once, and separately applied one at a time with
// failures skipped. Both must accept and reject the same batches with
// the same errors and per-batch Stats, and end on the same names, CSR
// and base→final remap.
func FuzzDeltaFold(f *testing.F) {
	f.Add("+h new.test\n+e a.test new.test\n=\n-h new.test\n=\n+h new.test\n+e new.test b.test\n")
	f.Add("-e a.test b.test\n=\n+e a.test b.test\n=\n-e a.test b.test\n=\n+e a.test b.test\n")
	f.Add("-h a.test\n=\n+h a.test\n+e a.test c.test\n=\n-h a.test\n")
	f.Add("+e y.test z.test\n=\n+h w.test\n=\n-h y.test\n-h n0.test\n=\n+e w.test z.test\n")
	f.Add("+h a.test\n=\n-h ghost.test\n=\n-h b.test\n+h b.test\n=\n-h c.test\n")
	f.Add("+e a.test n1.test\n-e a.test b.test\n=\n-h n1.test\n=\n-e b.test c.test\n+e c.test b.test\n")
	f.Fuzz(func(t *testing.T, data string) {
		if len(data) > 1<<14 {
			return
		}
		parts := strings.Split(data, "\n=\n")
		if len(parts) > 6 {
			parts = parts[:6]
		}
		var batches []*Batch
		for _, part := range parts {
			if b, err := ReadText(strings.NewReader("delta 1\n" + part)); err == nil {
				batches = append(batches, b)
			}
		}
		base := fuzzWorld(t)
		cur := base
		remap := make([]int64, base.Graph.NumNodes())
		for x := range remap {
			remap[x] = int64(x)
		}
		fold := NewFold(base)
		var sum Stats
		for i, b := range batches {
			st, ferr := fold.Stage(b)
			res, err := Apply(cur, b)
			if (err == nil) != (ferr == nil) || (err != nil && err.Error() != ferr.Error()) {
				t.Fatalf("batch %d: sequential error %v, fold error %v", i, err, ferr)
			}
			if err != nil {
				continue
			}
			if st != res.Stats {
				t.Fatalf("batch %d: fold stats %+v, sequential %+v", i, st, res.Stats)
			}
			sum.Add(st)
			for x, y := range remap {
				if y >= 0 {
					remap[x] = res.Remap[y]
				}
			}
			cur = res.Hosts
		}
		got, err := fold.Apply()
		if err != nil {
			t.Fatalf("fold Apply: %v", err)
		}
		if err := got.Hosts.Graph.Validate(); err != nil {
			t.Fatalf("folded graph violates invariants: %v", err)
		}
		if !reflect.DeepEqual(got.Hosts.Names, cur.Names) {
			t.Fatalf("fold names %v, sequential %v", got.Hosts.Names, cur.Names)
		}
		if !got.Hosts.Graph.Equal(cur.Graph) {
			t.Fatal("fold CSR differs from sequential application")
		}
		if !reflect.DeepEqual(got.Remap, remap) {
			t.Fatalf("fold remap %v, sequential %v", got.Remap, remap)
		}
		if got.Stats != sum {
			t.Fatalf("fold stats %+v, sequential sum %+v", got.Stats, sum)
		}
	})
}
