package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"spammass/internal/delta"
	"spammass/internal/obs"
)

// testBatch builds a recognizable batch keyed by i.
func testBatch(i int) *delta.Batch {
	return &delta.Batch{Ops: []delta.Op{
		delta.AddHostOp(fmt.Sprintf("new%d.example", i)),
		delta.AddEdgeOp(fmt.Sprintf("new%d.example", i), "hub.example"),
	}}
}

// appendN appends batches 1..n and fails the test on any error.
func appendN(t *testing.T, w *WAL, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		seq, err := w.Append(testBatch(i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("Append %d returned seq %d", i, seq)
		}
	}
}

// replayAll collects every (seq, batch) pair from seq `from`.
func replayAll(t *testing.T, w *WAL, from uint64) map[uint64]*delta.Batch {
	t.Helper()
	out := map[uint64]*delta.Batch{}
	if err := w.Replay(from, func(seq uint64, b *delta.Batch) error {
		out[seq] = b
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALConfig{})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	appendN(t, w, 5)
	if got := w.LastSeq(); got != 5 {
		t.Fatalf("LastSeq = %d, want 5", got)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, err := OpenWAL(dir, WALConfig{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if got := w2.LastSeq(); got != 5 {
		t.Fatalf("reopened LastSeq = %d, want 5", got)
	}
	got := replayAll(t, w2, 1)
	if len(got) != 5 {
		t.Fatalf("replayed %d records, want 5", len(got))
	}
	for i := 1; i <= 5; i++ {
		if !reflect.DeepEqual(got[uint64(i)], testBatch(i)) {
			t.Errorf("seq %d round-tripped to %v", i, got[uint64(i)])
		}
	}
	// Replay from the middle skips the prefix.
	if mid := replayAll(t, w2, 4); len(mid) != 2 {
		t.Errorf("Replay(4) returned %d records, want 2", len(mid))
	}
	// Appends continue the sequence after reopen.
	seq, err := w2.Append(testBatch(6))
	if err != nil || seq != 6 {
		t.Fatalf("post-reopen Append = (%d, %v), want (6, nil)", seq, err)
	}
}

// TestWALTornTailEveryOffset is the byte-granularity crash property:
// for every possible prefix length of the log file, reopening must
// succeed, keep exactly the records whose bytes are whole, and accept
// new appends. This is kill -9 at every byte offset.
func TestWALTornTailEveryOffset(t *testing.T) {
	ref := t.TempDir()
	w, err := OpenWAL(ref, WALConfig{})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	appendN(t, w, 3)
	w.Close()
	segPath := filepath.Join(ref, segmentName(1))
	whole, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatalf("reading segment: %v", err)
	}

	for cut := 0; cut <= len(whole); cut++ {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wc, err := OpenWAL(dir, WALConfig{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		survived := replayAll(t, wc, 1)
		last := wc.LastSeq()
		if uint64(len(survived)) != last {
			t.Fatalf("cut %d: %d records replayed but LastSeq %d", cut, len(survived), last)
		}
		for i := uint64(1); i <= last; i++ {
			if !reflect.DeepEqual(survived[i], testBatch(int(i))) {
				t.Fatalf("cut %d: seq %d corrupted after truncation", cut, i)
			}
		}
		// The log must accept the next append cleanly.
		if seq, err := wc.Append(testBatch(int(last) + 1)); err != nil || seq != last+1 {
			t.Fatalf("cut %d: append after truncation = (%d, %v)", cut, seq, err)
		}
		wc.Close()
	}
}

func TestWALCorruptSealedSegment(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a rotation per append.
	w, err := OpenWAL(dir, WALConfig{SegmentBytes: 1})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	appendN(t, w, 3)
	if w.Segments() < 2 {
		t.Fatalf("expected rotation, have %d segments", w.Segments())
	}
	w.Close()

	// Flip one payload byte in the FIRST (sealed) segment.
	path := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	w2, err := OpenWAL(dir, WALConfig{SegmentBytes: 1})
	if err == nil {
		w2.Close()
		t.Fatal("OpenWAL accepted a corrupt sealed segment")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v does not wrap ErrCorrupt", err)
	}
}

// TestWALUnreadableFinalSegment: a final segment that cannot be read
// (here a directory named like one) is a read failure, never a torn
// tail. OpenWAL must fail with an error that is not ErrCorrupt and
// leave every file as it found it.
func TestWALUnreadableFinalSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALConfig{})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	appendN(t, w, 3)
	w.Close()
	sealed := filepath.Join(dir, segmentName(1))
	before, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	final := filepath.Join(dir, segmentName(4))
	if err := os.Mkdir(final, 0o755); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	w2, err := OpenWAL(dir, WALConfig{Obs: obs.NewContext(reg, nil)})
	if err == nil {
		w2.Close()
		t.Fatal("OpenWAL accepted an unreadable final segment")
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("read failure reported as corruption: %v", err)
	}
	if n := reg.Counter("ingest.wal_truncated_records_total").Value(); n != 0 {
		t.Fatalf("read failure taken for a torn tail (%d truncations): %v", n, err)
	}
	if after, err := os.ReadFile(sealed); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("sealed segment changed by a failed open (err %v)", err)
	}
	if fi, err := os.Stat(final); err != nil || !fi.IsDir() {
		t.Fatalf("unreadable final segment was touched: %v", err)
	}
}

func TestWALRotationAndTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALConfig{SegmentBytes: 1})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	defer w.Close()
	appendN(t, w, 6)
	segs := w.Segments()
	if segs < 3 {
		t.Fatalf("expected >=3 segments, have %d", segs)
	}
	removed, err := w.TruncateThrough(4)
	if err != nil {
		t.Fatalf("TruncateThrough: %v", err)
	}
	if removed == 0 {
		t.Fatal("TruncateThrough removed nothing")
	}
	// Everything after the truncation point must still replay.
	got := replayAll(t, w, 5)
	for i := uint64(5); i <= 6; i++ {
		if !reflect.DeepEqual(got[i], testBatch(int(i))) {
			t.Errorf("seq %d missing after TruncateThrough", i)
		}
	}
	// The active segment survives even a full-coverage truncation.
	if _, err := w.TruncateThrough(100); err != nil {
		t.Fatalf("TruncateThrough(100): %v", err)
	}
	if w.Segments() < 1 {
		t.Fatal("active segment was deleted")
	}
}

func TestWALGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALConfig{GroupCommit: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = w.Append(testBatch(i + 1))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent Append %d: %v", i, err)
		}
	}
	w.Close()

	w2, err := OpenWAL(dir, WALConfig{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if got := len(replayAll(t, w2, 1)); got != n {
		t.Fatalf("replayed %d records, want %d", got, n)
	}
}

// TestWALFailedFsyncIsSticky: a record a failed fsync left unsynced is
// never reported durable later. On Linux a retried fsync can succeed
// after the kernel dropped the dirty pages, so WaitDurable must keep
// returning the failure rather than sync again — in per-append mode as
// in group commit. Every call for a seq returns the same outcome, which
// is what the refresher relies on when it asks again before applying.
func TestWALFailedFsyncIsSticky(t *testing.T) {
	for _, gc := range []time.Duration{0, time.Millisecond} {
		t.Run(fmt.Sprintf("groupcommit=%s", gc), func(t *testing.T) {
			w, err := OpenWAL(t.TempDir(), WALConfig{GroupCommit: gc})
			if err != nil {
				t.Fatalf("OpenWAL: %v", err)
			}
			defer w.Close()
			seq, err := w.AppendBuffered(testBatch(1))
			if err != nil {
				t.Fatalf("AppendBuffered: %v", err)
			}
			closed, err := os.Create(filepath.Join(t.TempDir(), "closed"))
			if err != nil {
				t.Fatal(err)
			}
			closed.Close()
			w.mu.Lock()
			seg := w.seg
			w.seg = closed
			w.mu.Unlock()
			if err := w.WaitDurable(seq); err == nil {
				t.Fatal("WaitDurable succeeded with an fsync on a closed file")
			}
			w.mu.Lock()
			w.seg = seg
			w.mu.Unlock()
			if err := w.WaitDurable(seq); err == nil {
				t.Fatalf("WaitDurable(%d) succeeded after its fsync failed; the retry must not report the record durable", seq)
			}
		})
	}
}
