package ingest

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"spammass/internal/delta"
	"spammass/internal/obs"
	"spammass/internal/serve"
)

// markLog is a Pipeline that also records every MarkApplied sequence.
type markLog struct {
	*Pipeline
	mu   sync.Mutex
	seqs []uint64
}

func (m *markLog) MarkApplied(seq uint64, snap *serve.Snapshot) {
	m.mu.Lock()
	m.seqs = append(m.seqs, seq)
	m.mu.Unlock()
	m.Pipeline.MarkApplied(seq, snap)
}

// TestConcurrentQueueOnWAL runs the serving tier's ordered delta queue
// over a real Pipeline, with an fsync per append and with a 2 ms group
// commit: a Refresher and its Run loop take batches from 8 submitters
// that mix SubmitDelta, SubmitDeltaWait and conflicting batches, backing
// off on ErrIngestBackpressure. Every journaled batch must be applied
// exactly once and marked applied in sequence order; every waiter gets
// its own batch's outcome; the queue depth and its gauge drain to 0; and
// a reopen plus Recover on the same directory reaches the live epoch
// with the same hosts.
func TestConcurrentQueueOnWAL(t *testing.T) {
	for _, gc := range []time.Duration{0, 2 * time.Millisecond} {
		t.Run(fmt.Sprintf("groupcommit=%s", gc), func(t *testing.T) { concurrentQueueOnWAL(t, gc) })
	}
}

func concurrentQueueOnWAL(t *testing.T, groupCommit time.Duration) {
	const submitters, perSubmitter = 8, 8
	dir := t.TempDir()
	pl, err := Open(Config{Dir: dir, GroupCommit: groupCommit})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	journal := &markLog{Pipeline: pl}
	var amu sync.Mutex
	applies := make(map[*delta.Batch]int)
	apply := func(ctx context.Context, prev *serve.Snapshot, epoch int64, b *delta.Batch) (*serve.Snapshot, error) {
		amu.Lock()
		applies[b]++
		amu.Unlock()
		return testGenerator.Delta(ctx, prev, epoch, b)
	}
	reg := obs.NewRegistry()
	st := serve.NewStore()
	ref := serve.NewRefresher(st, func(ctx context.Context, prev *serve.Snapshot, epoch int64) (*serve.Snapshot, error) {
		return testServeSnapshot(t, epoch), nil
	}, serve.RefresherConfig{ApplyDelta: apply, Journal: journal, Obs: obs.NewContext(reg, nil)})
	if err := ref.Refresh(context.Background()); err != nil {
		t.Fatalf("initial refresh: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		ref.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-stopped
	})

	// Submitter s sends perSubmitter batches in turn: a waited growth
	// batch, an async one, a waited conflict, an async conflict.
	var wg sync.WaitGroup
	errc := make(chan error, submitters*perSubmitter)
	deadline := time.Now().Add(30 * time.Second)
	var accepted, grown sync.Map // *delta.Batch → struct{}
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < perSubmitter; k++ {
				b, conflict, wait := growthBatch(s*perSubmitter+k), k%4 >= 2, k%2 == 0
				if conflict {
					b = poisonBatch()
				}
				for {
					var err error
					if wait {
						err = ref.SubmitDeltaWait(context.Background(), b)
					} else {
						err = ref.SubmitDelta(b)
					}
					if errors.Is(err, serve.ErrIngestBackpressure) && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
						continue
					}
					if errors.Is(err, serve.ErrJournal) || (err != nil) != (wait && conflict) {
						errc <- fmt.Errorf("submitter %d batch %d (wait %v, conflict %v): %v", s, k, wait, conflict, err)
					}
					break
				}
				accepted.Store(b, struct{}{})
				if !conflict {
					grown.Store(b, struct{}{})
				}
			}
		}(s)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	const total = submitters * perSubmitter
	for d, _ := ref.QueueDepth(); d != 0; d, _ = ref.QueueDepth() {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth stuck at %d", d)
		}
		time.Sleep(time.Millisecond)
	}
	if g := reg.Gauge("serve.ingest_queue_depth").Value(); g != 0 {
		t.Errorf("serve.ingest_queue_depth = %v after the queue drained, want 0", g)
	}
	cancel()
	<-stopped

	amu.Lock()
	if len(applies) != total {
		t.Errorf("%d distinct batches applied, want %d", len(applies), total)
	}
	for b, n := range applies {
		if _, ok := accepted.Load(b); !ok || n != 1 {
			t.Errorf("batch %v applied %d times (accepted %v), want once", b.Ops, n, ok)
		}
	}
	amu.Unlock()
	journal.mu.Lock()
	marks := journal.seqs
	journal.mu.Unlock()
	for i, seq := range marks {
		if seq != uint64(i+1) {
			t.Fatalf("MarkApplied sequences %v, want 1..%d in order", marks, total)
		}
	}
	if len(marks) != total || pl.WAL().LastSeq() != total {
		t.Fatalf("%d sequences marked applied, WAL last seq %d; want %d each", len(marks), pl.WAL().LastSeq(), total)
	}
	growth := 0
	grown.Range(func(any, any) bool { growth++; return true })
	live := st.Load()
	if want := int64(1 + growth); live.Epoch() != want || ref.DeltaCount() != int64(growth) {
		t.Fatalf("live epoch %d after %d applied batches (DeltaCount %d), want %d", live.Epoch(), growth, ref.DeltaCount(), want)
	}
	if err := pl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	pl2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer pl2.Close()
	rec, n, err := pl2.Recover(context.Background(), testServeSnapshot(t, 1), 0, testGenerator)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.Epoch() != live.Epoch() || n != growth {
		t.Fatalf("recovered epoch %d from %d batches, live epoch %d from %d", rec.Epoch(), n, live.Epoch(), growth)
	}
	got, want := slices.Clone(rec.HostGraph().Names), slices.Clone(live.HostGraph().Names)
	slices.Sort(got)
	slices.Sort(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered hosts %v, live %v", got, want)
	}
}
