package ingest

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/serve"
	"spammass/internal/testutil"
	"spammass/internal/webgen"
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

// readSnapshotAllocsCeiling caps the allocations of loading a persisted
// snapshot of the 100k seed-11 world: the measured value + 5 %. A
// ceiling only comes down.
const readSnapshotAllocsCeiling = 56 // measured 54

// TestReadSnapshotFileAllocs pins that loading a snapshot costs a
// fixed number of allocations, not one or two per host: the host names
// are substrings of one string.
func TestReadSnapshotFileAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-host world")
	}
	wcfg := webgen.DefaultConfig(100_000)
	wcfg.Seed = 11
	h, core, err := testutil.Web(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(h.Names)
	path, err := WriteSnapshotFile(t.TempDir(), &SnapshotState{
		Epoch: 1, Damping: 0.85, Gamma: 0.95, Core: core, Hosts: h,
		P: make([]float64, n), PCore: make([]float64, n),
	})
	if err != nil {
		t.Fatal(err)
	}
	var got *SnapshotState
	// The collector is off while counting: a cycle it starts can
	// allocate on its own account and move the mean by one or two.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(3, func() {
		if got, err = ReadSnapshotFile(path); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ReadSnapshotFile over %d hosts: %.0f allocations", n, allocs)
	if !reflect.DeepEqual(got.Hosts.Names, h.Names) {
		t.Fatal("loaded names differ from the written ones")
	}
	if allocs > readSnapshotAllocsCeiling {
		t.Errorf("ReadSnapshotFile made %.0f allocations, above its ceiling of %d", allocs, readSnapshotAllocsCeiling)
	}
}

// misplacedVectorBodies returns two snapshot bodies, without their CRC,
// whose lengths still agree with the host count but whose graph does
// not end where the vectors begin: 12 junk bytes between the graph and
// the vectors, and vectors 8 bytes short.
func misplacedVectorBodies(t testing.TB) map[string][]byte {
	t.Helper()
	path, err := WriteSnapshotFile(t.TempDir(), SnapshotStateOf(testServeSnapshot(t, 3), 7))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := data[:len(data)-4]
	vec := len(body) - 16*6
	return map[string][]byte{
		"junk before vectors":   append(append(append([]byte(nil), body[:vec]...), "junkjunkjunk"...), body[vec:]...),
		"vectors 8 bytes short": body[:len(body)-8],
	}
}

// TestReadSnapshotFileRejectsMisplacedVectors pins that the decoder
// reads the graph from exactly the bytes before the vectors and needs
// all of them: a CRC-valid body with junk after the graph, or with
// vectors too short (whose P would be read out of the graph's bytes),
// is refused, with an error that names the graph once.
func TestReadSnapshotFileRejectsMisplacedVectors(t *testing.T) {
	for name, body := range misplacedVectorBodies(t) {
		path := filepath.Join(t.TempDir(), snapshotName(1, 1))
		data := binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crcTable))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := ReadSnapshotFile(path)
		switch {
		case err == nil:
			t.Errorf("%s: accepted, P[0] = %v", name, st.P[0])
		case strings.Count(err.Error(), "graph:") > 1:
			t.Errorf("%s: error names the graph more than once: %v", name, err)
		default:
			t.Logf("%s: %v", name, err)
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
