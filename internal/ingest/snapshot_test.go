package ingest

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/serve"
)

// testServeSnapshot builds a real servable snapshot: a 6-host graph,
// exact estimates from core {0,1}, and a config that carries the core
// (the delta and recovery paths both need it).
func testServeSnapshot(t testing.TB, epoch int64) *serve.Snapshot {
	t.Helper()
	g := graph.FromEdges(6, [][2]graph.NodeID{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}, {1, 4},
	})
	names := []string{"a.example", "b.example", "c.example", "d.example", "e.example", "f.example"}
	h, err := graph.NewHostGraph(g, names)
	if err != nil {
		t.Fatalf("NewHostGraph: %v", err)
	}
	core := []graph.NodeID{0, 1}
	est, err := mass.EstimateFromCore(g, core, mass.DefaultOptions())
	if err != nil {
		t.Fatalf("EstimateFromCore: %v", err)
	}
	snap, err := serve.NewSnapshot(h, est, serve.SnapshotConfig{
		Detect: mass.DetectConfig{RelMassThreshold: 0.5, ScaledPageRankThreshold: 0.0},
		Gamma:  mass.DefaultOptions().Gamma,
		Core:   core,
	}, epoch)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	return snap
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap := testServeSnapshot(t, 9)
	st := SnapshotStateOf(snap, 42)
	path, err := WriteSnapshotFile(dir, st)
	if err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatalf("ReadSnapshotFile: %v", err)
	}
	if got.Epoch != 9 || got.AppliedSeq != 42 {
		t.Fatalf("epoch/seq = %d/%d, want 9/42", got.Epoch, got.AppliedSeq)
	}
	if got.Damping != st.Damping || got.Gamma != st.Gamma {
		t.Fatalf("damping/gamma = %v/%v, want %v/%v", got.Damping, got.Gamma, st.Damping, st.Gamma)
	}
	if len(got.Core) != 2 || got.Core[0] != 0 || got.Core[1] != 1 {
		t.Fatalf("core = %v", got.Core)
	}
	for i := range st.P {
		if got.P[i] != st.P[i] || got.PCore[i] != st.PCore[i] {
			t.Fatalf("vector mismatch at %d: P %v vs %v, PCore %v vs %v", i, got.P[i], st.P[i], got.PCore[i], st.PCore[i])
		}
	}

	// The rebuilt snapshot serves the same records.
	rebuilt, err := got.BuildSnapshot(snap.Config().Detect, 0)
	if err != nil {
		t.Fatalf("BuildSnapshot: %v", err)
	}
	if rebuilt.Epoch() != 9 || rebuilt.NumHosts() != snap.NumHosts() {
		t.Fatalf("rebuilt epoch/hosts = %d/%d", rebuilt.Epoch(), rebuilt.NumHosts())
	}
	for _, name := range snap.HostGraph().Names {
		want, _ := snap.Lookup(name)
		gotRec, ok := rebuilt.Lookup(name)
		if !ok {
			t.Fatalf("rebuilt snapshot misses %s", name)
		}
		if math.Abs(gotRec.AbsMass-want.AbsMass) > 1e-12 || math.Abs(gotRec.RelMass-want.RelMass) > 1e-12 ||
			gotRec.PageRank != want.PageRank || gotRec.Label != want.Label {
			t.Errorf("%s: rebuilt record %+v, want %+v", name, gotRec, want)
		}
	}
}

func TestLatestSnapshotSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	older := SnapshotStateOf(testServeSnapshot(t, 3), 10)
	if _, err := WriteSnapshotFile(dir, older); err != nil {
		t.Fatal(err)
	}
	newer := SnapshotStateOf(testServeSnapshot(t, 5), 20)
	newPath, err := WriteSnapshotFile(dir, newer)
	if err != nil {
		t.Fatal(err)
	}

	// Undamaged: the newest wins.
	st, path, err := LatestSnapshot(dir, nil)
	if err != nil || st == nil || st.AppliedSeq != 20 {
		t.Fatalf("LatestSnapshot = (%v, %s, %v), want seq 20", st, path, err)
	}

	// Flip a byte mid-file: the CRC must reject it and the older
	// snapshot must be served instead.
	data, err := os.ReadFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(newPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var logged strings.Builder
	st, _, err = LatestSnapshot(dir, func(format string, args ...any) {
		logged.WriteString(format)
	})
	if err != nil || st == nil || st.AppliedSeq != 10 {
		t.Fatalf("after corruption LatestSnapshot seq = %v (err %v), want 10", st, err)
	}
	if !strings.Contains(logged.String(), "skipping") {
		t.Error("corrupt snapshot skipped silently")
	}

	// All snapshots corrupt or missing: (nil, nil) without error.
	if err := os.Remove(filepath.Join(dir, snapshotName(10, 3))); err != nil {
		t.Fatal(err)
	}
	st, _, err = LatestSnapshot(dir, nil)
	if err != nil || st != nil {
		t.Fatalf("with only a corrupt file LatestSnapshot = (%v, %v), want (nil, nil)", st, err)
	}
}

func TestPruneSnapshots(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 4; i++ {
		st := SnapshotStateOf(testServeSnapshot(t, int64(i)), uint64(i*10))
		if _, err := WriteSnapshotFile(dir, st); err != nil {
			t.Fatal(err)
		}
	}
	if err := pruneSnapshots(dir, 2); err != nil {
		t.Fatalf("pruneSnapshots: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []string
	for _, e := range entries {
		if _, _, ok := parseSnapshotName(e.Name()); ok {
			snaps = append(snaps, e.Name())
		}
	}
	if len(snaps) != 2 {
		t.Fatalf("kept %d snapshots %v, want 2", len(snaps), snaps)
	}
	st, _, err := LatestSnapshot(dir, nil)
	if err != nil || st == nil || st.AppliedSeq != 40 {
		t.Fatalf("latest after prune = %v (err %v), want seq 40", st, err)
	}
}
