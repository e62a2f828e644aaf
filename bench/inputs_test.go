package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"spammass/internal/delta"
	"spammass/internal/graph"
)

const testHosts = 6000

// writeAll generates every input of one seed into dir: the world, its
// two-shard partition, and a delta stream.
func writeAll(t *testing.T, dir string, seed int64) {
	t.Helper()
	w, err := genWorld(testHosts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeWorld(filepath.Join(dir, "web"), w.hosts, w.core); err != nil {
		t.Fatal(err)
	}
	sw, err := partitionWorld(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	for s, part := range sw.parts {
		if _, err := writeWorld(filepath.Join(dir, "web.shard"+string(rune('0'+s))), part.hosts, part.core); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := genDeltaStream(w.hosts, seed, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.writeDeltaFiles(dir); err != nil {
		t.Fatal(err)
	}
}

func TestSameSeedGivesByteIdenticalInputs(t *testing.T) {
	a, b, c := t.TempDir(), t.TempDir(), t.TempDir()
	writeAll(t, a, 7)
	writeAll(t, b, 7)
	writeAll(t, c, 8)
	entries, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3*3+20 {
		t.Fatalf("expected 9 graph files and 20 delta files, found %d entries", len(entries))
	}
	differs := false
	for _, e := range entries {
		fa, err := os.ReadFile(filepath.Join(a, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fb, err := os.ReadFile(filepath.Join(b, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fa, fb) {
			t.Errorf("%s differs between two runs of seed 7", e.Name())
		}
		if fc, err := os.ReadFile(filepath.Join(c, e.Name())); err == nil && !bytes.Equal(fa, fc) {
			differs = true
		}
	}
	if !differs {
		t.Error("seed 8 produced the same files as seed 7: the seed does not reach the inputs")
	}
}

// nameEdges renders a host graph as its sorted name-level edge list,
// the representation that is stable across node renumbering.
func nameEdges(h *graph.HostGraph) []string {
	var out []string
	h.Graph.Edges(func(x, y graph.NodeID) bool {
		out = append(out, h.Names[x]+" "+h.Names[y])
		return true
	})
	sort.Strings(out)
	return out
}

func TestDeltaStreamApplies(t *testing.T) {
	w, err := genWorld(testHosts, 3)
	if err != nil {
		t.Fatal(err)
	}
	const count = 40
	ds, err := genDeltaStream(w.hosts, 3, count)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.batches) != count || len(ds.bodies) != count {
		t.Fatalf("stream has %d batches, %d bodies", len(ds.batches), len(ds.bodies))
	}
	// Every batch validates, parses back from its body to the same ops,
	// and applies to the graph its predecessors left behind.
	shadow := w.hosts
	for k, b := range ds.batches {
		if err := b.Validate(); err != nil {
			t.Fatalf("batch %d: %v", k+1, err)
		}
		parsed, err := delta.ReadText(bytes.NewReader(ds.bodies[k]))
		if err != nil {
			t.Fatalf("batch %d body: %v", k+1, err)
		}
		if len(parsed.Ops) != len(b.Ops) {
			t.Fatalf("batch %d: body carries %d ops, batch %d", k+1, len(parsed.Ops), len(b.Ops))
		}
		res, err := delta.Apply(shadow, parsed)
		if err != nil {
			t.Fatalf("batch %d does not apply: %v", k+1, err)
		}
		if res.Stats.HostsAdded != 1 {
			t.Fatalf("batch %d added %d hosts, want its one sentinel", k+1, res.Stats.HostsAdded)
		}
		if _, ok := res.Hosts.NodeByName(sentinelName(k + 1)); !ok {
			t.Fatalf("batch %d: sentinel %s missing after apply", k+1, sentinelName(k+1))
		}
		if res.Stats.EdgesRemoved == 0 || res.Stats.EdgesAdded < res.Stats.EdgesRemoved {
			t.Fatalf("batch %d: stats %s, want removals and at least as many additions", k+1, res.Stats)
		}
		shadow = res.Hosts
	}
	// The merged shadow the harness checks served scores against is the
	// same graph, by name, as the batch-by-batch one.
	merged, core, err := ds.shadowAfter(w.hosts, w.core, count)
	if err != nil {
		t.Fatal(err)
	}
	if len(core) != len(w.core) {
		t.Errorf("merged shadow keeps %d of %d core hosts", len(core), len(w.core))
	}
	if got, want := merged.Graph.NumNodes(), testHosts+count; got != want {
		t.Errorf("merged shadow has %d hosts, want %d", got, want)
	}
	a, b := nameEdges(shadow), nameEdges(merged)
	if len(a) != len(b) {
		t.Fatalf("sequential shadow has %d edges, merged %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d: sequential %q, merged %q", i, a[i], b[i])
		}
	}
	// A prefix is a valid stream too.
	if _, _, err := ds.shadowAfter(w.hosts, w.core, 5); err != nil {
		t.Errorf("shadow after 5 batches: %v", err)
	}
}

func TestPartitionKeepsCore(t *testing.T) {
	w, err := genWorld(testHosts, 1)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := partitionWorld(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for s, part := range sw.parts {
		total += len(part.core)
		for _, x := range part.core {
			if int(x) >= part.hosts.Graph.NumNodes() {
				t.Fatalf("shard %d core node %d outside its %d hosts", s, x, part.hosts.Graph.NumNodes())
			}
			if graph.ShardOf(part.hosts.Names[x], 2) != s {
				t.Fatalf("shard %d holds core host %s owned by another shard", s, part.hosts.Names[x])
			}
		}
	}
	if total != len(w.core) {
		t.Errorf("partitioned cores hold %d hosts, the world's core %d", total, len(w.core))
	}
}
