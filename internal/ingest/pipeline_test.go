package ingest

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"spammass/internal/delta"
	"spammass/internal/mass"
	"spammass/internal/serve"
)

// growthBatch is a batch that applies cleanly to any snapshot built on
// testServeSnapshot's graph: it introduces host g<i>.example and wires
// it between two seed hosts.
func growthBatch(i int) *delta.Batch {
	name := fmt.Sprintf("g%d.example", i)
	return &delta.Batch{Ops: []delta.Op{
		delta.AddHostOp(name),
		delta.AddEdgeOp("a.example", name),
		delta.AddEdgeOp(name, "b.example"),
	}}
}

// poisonBatch fails delta.Apply (the host already exists), exercising
// the log-and-skip path both live and during recovery.
func poisonBatch() *delta.Batch {
	return &delta.Batch{Ops: []delta.Op{delta.AddHostOp("a.example")}}
}

// assertRecordsMatch holds got to want to the recovery contract: same
// epoch and host set, every record's scores within the solver tolerance
// and every label equal.
func assertRecordsMatch(t *testing.T, got, want *serve.Snapshot) {
	t.Helper()
	if got.Epoch() != want.Epoch() {
		t.Fatalf("recovered epoch %d, control %d", got.Epoch(), want.Epoch())
	}
	if got.NumHosts() != want.NumHosts() {
		t.Fatalf("recovered %d hosts, control %d", got.NumHosts(), want.NumHosts())
	}
	for _, name := range want.HostGraph().Names {
		w, _ := want.Lookup(name)
		g, ok := got.Lookup(name)
		if !ok {
			t.Fatalf("recovered snapshot misses %s", name)
		}
		if math.Abs(g.AbsMass-w.AbsMass) > 1e-9 || math.Abs(g.RelMass-w.RelMass) > 1e-9 ||
			math.Abs(g.PageRank-w.PageRank) > 1e-9 || math.Abs(g.CorePageRank-w.CorePageRank) > 1e-9 || g.Label != w.Label {
			t.Fatalf("%s: recovered %+v, control %+v", name, g, w)
		}
	}
}

// TestPipelineCrashRecoveryEquality is the subsystem's core property:
// a server that journals every batch and is then killed must recover to
// the state a never-crashed server serves — same epoch, same labels,
// per-host scores within the solver tolerance — whether a mid-sequence
// compaction left a snapshot to start from or the whole log is replayed
// onto the initial build. The recovered (p, p') must also equal a cold
// solve on the recovered graph: the warm start changes only how fast
// the solve converges, never what it converges to.
func TestPipelineCrashRecoveryEquality(t *testing.T) {
	t.Run("compacted", func(t *testing.T) { crashRecoveryEquality(t, true) })
	t.Run("whole-log", func(t *testing.T) { crashRecoveryEquality(t, false) })
}

func crashRecoveryEquality(t *testing.T, compact bool) {
	dir := t.TempDir()
	ctx := context.Background()
	apply := testGenerator.Delta
	base := testServeSnapshot(t, 1)
	detect := base.Config().Detect

	pl, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	// Live run: journal each batch, apply it, report the new snapshot.
	// Batch 4 is a poison batch: journaled (the WAL is content-agnostic)
	// but skipped by the apply loop, exactly like the live refresher.
	batches := []*delta.Batch{
		growthBatch(1), growthBatch(2), growthBatch(3),
		poisonBatch(),
		growthBatch(4), growthBatch(5),
	}
	control := base
	for i, b := range batches {
		seq, err := pl.Append(b)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		next, err := apply(ctx, control, control.Epoch()+1, b)
		if err != nil {
			if i != 3 {
				t.Fatalf("apply %d: %v", i, err)
			}
			pl.MarkApplied(seq, control) // skipped batch still advances the journal position
		} else {
			control = next
			pl.MarkApplied(seq, control)
		}
		if i == 2 && compact {
			// Mid-sequence compaction: the snapshot covers seqs 1..3.
			if err := pl.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
		}
	}

	// Crash: abandon the pipeline without Close. Every Append already
	// fsynced, so the files are what a kill -9 would leave behind.
	pl2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer pl2.Close()
	rbase, baseSeq, err := pl2.Latest(detect, 0)
	if err != nil {
		t.Fatalf("Latest: %v", err)
	}
	wantApplied := 5 // every batch but the poison one
	if compact {
		if rbase == nil || baseSeq != 3 {
			t.Fatalf("Latest = (%v, %d), want compacted snapshot at seq 3", rbase, baseSeq)
		}
		wantApplied = 2 // seqs 5 and 6; 4 is poison
	} else {
		if rbase != nil || baseSeq != 0 {
			t.Fatalf("Latest = (%v, %d) without a compaction, want (nil, 0)", rbase, baseSeq)
		}
		rbase = base // the boot path's initial build
	}
	recovered, applied, err := pl2.Recover(ctx, rbase, baseSeq, testGenerator)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if applied != wantApplied {
		t.Fatalf("recovery applied %d batches, want %d", applied, wantApplied)
	}
	assertRecordsMatch(t, recovered, control)
	cold, err := mass.EstimateFromCore(recovered.HostGraph().Graph, recovered.Core(), mass.DefaultOptions())
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	got := recovered.Estimates()
	for x := range cold.P {
		if math.Abs(got.P[x]-cold.P[x]) > 1e-9 || math.Abs(got.PCore[x]-cold.PCore[x]) > 1e-9 {
			t.Fatalf("node %d: recovered (p, p') = (%v, %v), cold solve (%v, %v)", x, got.P[x], got.PCore[x], cold.P[x], cold.PCore[x])
		}
	}

	// Recovery re-established the checkpoint, so a compaction now
	// persists the recovered state and drops the replayed suffix.
	if err := pl2.Compact(); err != nil {
		t.Fatalf("post-recovery Compact: %v", err)
	}
	st, _, err := LatestSnapshot(dir, nil)
	if err != nil || st == nil || st.AppliedSeq != 6 {
		t.Fatalf("post-recovery snapshot seq = %v (err %v), want 6", st, err)
	}
}

// TestPipelineFreshDir: no snapshot, empty WAL — the boot path falls
// back to an initial build, and recovery is a no-op that still sets the
// checkpoint.
func TestPipelineFreshDir(t *testing.T) {
	pl, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer pl.Close()
	base := testServeSnapshot(t, 1)
	snap, seq, err := pl.Latest(base.Config().Detect, 0)
	if err != nil || snap != nil || seq != 0 {
		t.Fatalf("Latest on fresh dir = (%v, %d, %v), want (nil, 0, nil)", snap, seq, err)
	}
	recovered, applied, err := pl.Recover(context.Background(), base, 0, testGenerator)
	if err != nil || applied != 0 || recovered != base {
		t.Fatalf("Recover on empty WAL = (%v, %d, %v), want (base, 0, nil)", recovered, applied, err)
	}
	// Compact before any MarkApplied has nothing to persist.
	if err := pl.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
}

// TestPipelineCompactSkipsUnchanged: compacting twice at the same
// checkpoint writes one snapshot file, not two.
func TestPipelineCompactSkipsUnchanged(t *testing.T) {
	dir := t.TempDir()
	pl, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer pl.Close()
	snap := testServeSnapshot(t, 2)
	seq, err := pl.Append(growthBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	pl.MarkApplied(seq, snap)
	for i := 0; i < 3; i++ {
		if err := pl.Compact(); err != nil {
			t.Fatalf("Compact %d: %v", i, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, e := range entries {
		if _, _, ok := parseSnapshotName(e.Name()); ok {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("%d snapshot files after repeated compaction of one checkpoint, want 1", snaps)
	}
}

// TestPipelineMarkRefreshed: a refresh re-solves the served generation,
// so it is checkpointed under the sequence that generation covered. The
// compactor persists the refreshed epoch under that sequence, and it
// outranks the state it replaced, so a restart never serves an epoch
// older than one already served.
func TestPipelineMarkRefreshed(t *testing.T) {
	dir := t.TempDir()
	pl, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer pl.Close()
	for i := 1; i <= 5; i++ {
		if _, err := pl.Append(growthBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := testServeSnapshot(t, 6), testServeSnapshot(t, 7)
	pl.MarkApplied(5, a)
	if err := pl.Compact(); err != nil {
		t.Fatalf("Compact after MarkApplied: %v", err)
	}
	pl.MarkRefreshed(b)
	if err := pl.Compact(); err != nil {
		t.Fatalf("Compact after MarkRefreshed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName(5, b.Epoch()))); err != nil {
		t.Fatalf("no snapshot of the refreshed epoch under seq 5: %v", err)
	}
	snap, seq, err := pl.Latest(b.Config().Detect, 0)
	if err != nil || snap == nil {
		t.Fatalf("Latest = (%v, %d, %v)", snap, seq, err)
	}
	if snap.Epoch() != b.Epoch() || seq != 5 {
		t.Fatalf("Latest = epoch %d at seq %d, want the refreshed epoch %d at seq 5", snap.Epoch(), seq, b.Epoch())
	}
}

// TestPipelineRaceHammer drives concurrent appends, checkpoint marks,
// compactions, and replays through one pipeline. Run under -race (make
// race / CI) this is the data-race proof for the appender/compactor/
// replayer triangle; without -race it is still a liveness check.
func TestPipelineRaceHammer(t *testing.T) {
	pl, err := Open(Config{Dir: t.TempDir(), SegmentBytes: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	snap := testServeSnapshot(t, 3)

	const writers = 4
	const perWriter = 40
	var writersWG, loopsWG sync.WaitGroup
	stop := make(chan struct{})

	for wi := 0; wi < writers; wi++ {
		writersWG.Add(1)
		go func(wi int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				seq, err := pl.Append(growthBatch(wi*perWriter + i))
				if err != nil {
					t.Errorf("writer %d: Append: %v", wi, err)
					return
				}
				pl.MarkApplied(seq, snap)
			}
		}(wi)
	}
	loopsWG.Add(1)
	go func() {
		defer loopsWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := pl.Compact(); err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
		}
	}()
	loopsWG.Add(1)
	go func() {
		defer loopsWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := pl.WAL().Replay(1, func(seq uint64, b *delta.Batch) error { return nil })
			// A segment compacted away mid-replay surfaces as a missing
			// file; that interleaving is expected here. Anything else is
			// a real failure.
			if err != nil && !os.IsNotExist(err) {
				t.Errorf("Replay: %v", err)
				return
			}
		}
	}()

	writersWG.Wait()
	close(stop)
	loopsWG.Wait()
	if got := pl.WAL().LastSeq(); got != writers*perWriter {
		t.Fatalf("LastSeq = %d, want %d", got, writers*perWriter)
	}
	if err := pl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
