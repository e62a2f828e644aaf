package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"spammass/internal/delta"
	"spammass/internal/graph"
)

// fakeJournal implements Journal with controllable durability, so the
// tests can observe exactly when the refresher marks sequences applied
// and whether applies wait for the fsync outcome. Like the WAL, it
// settles each sequence's durability once: every WaitDurable call for a
// seq returns the first call's outcome.
type fakeJournal struct {
	mu        sync.Mutex
	nextSeq   uint64
	applied   []uint64
	refreshed int
	durable   map[uint64]*durableOutcome

	durableErr  error      // returned by WaitDurable when gate is nil
	durableGate chan error // non-nil: WaitDurable blocks on it
}

type durableOutcome struct {
	once sync.Once
	err  error
}

func (j *fakeJournal) Append(b *delta.Batch) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.nextSeq++
	return j.nextSeq, nil
}

func (j *fakeJournal) WaitDurable(seq uint64) error {
	j.mu.Lock()
	if j.durable == nil {
		j.durable = make(map[uint64]*durableOutcome)
	}
	o := j.durable[seq]
	if o == nil {
		o = &durableOutcome{err: j.durableErr}
		j.durable[seq] = o
	}
	j.mu.Unlock()
	o.once.Do(func() {
		if j.durableGate != nil {
			o.err = <-j.durableGate
		}
	})
	return o.err
}

func (j *fakeJournal) MarkApplied(seq uint64, snap *Snapshot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.applied = append(j.applied, seq)
}

func (j *fakeJournal) MarkRefreshed(snap *Snapshot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.refreshed++
}

func (j *fakeJournal) appliedSeqs() []uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]uint64(nil), j.applied...)
}

// newJournaledRefresher wires a refresher over the 5-host test graph
// with the given journal and (optionally) a custom apply function, and
// publishes the first generation.
func newJournaledRefresher(t *testing.T, j Journal, apply DeltaApplyFunc) (*Store, *Refresher) {
	t.Helper()
	h := testHostGraph(t)
	st := NewStore()
	if apply == nil {
		apply = testGenerator.Delta
	}
	ref := NewRefresher(st, coreBuilder(h, []graph.NodeID{0, 1}, testGenerator),
		RefresherConfig{ApplyDelta: apply, Journal: j})
	if err := ref.Refresh(context.Background()); err != nil {
		t.Fatalf("initial refresh: %v", err)
	}
	return st, ref
}

func journalTestBatch() *delta.Batch {
	return &delta.Batch{Ops: []delta.Op{delta.AddHostOp("f.example")}}
}

// TestTransientApplyFailureNotMarkedApplied guards the fsync-before-ack
// contract: an apply cut short by cancellation (shutdown, refresh
// timeout) must NOT advance the journal's applied sequence — otherwise
// the compactor would persist a snapshot claiming coverage of a durable,
// acknowledged batch that never took effect, and truncate it away.
func TestTransientApplyFailureNotMarkedApplied(t *testing.T) {
	j := &fakeJournal{}
	applyStarted := make(chan struct{})
	var once sync.Once
	apply := func(ctx context.Context, prev *Snapshot, epoch int64, b *delta.Batch) (*Snapshot, error) {
		once.Do(func() { close(applyStarted) })
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, ref := newJournaledRefresher(t, j, apply)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ref.Run(ctx)
	waitRunning(ref) // the loop, whose ctx cancel() ends, must apply the batch

	errCh := make(chan error, 1)
	go func() { errCh <- ref.SubmitDeltaWait(context.Background(), journalTestBatch()) }()
	<-applyStarted
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitDeltaWait after cancel: %v, want context.Canceled", err)
	}
	if got := j.appliedSeqs(); len(got) != 0 {
		t.Fatalf("transient apply failure marked sequences applied: %v; the batch must stay in the WAL for replay", got)
	}
}

// TestDeterministicApplyFailureMarkedApplied is the counterpart: a
// batch the apply function rejects outright is skipped the same way
// recovery skips it, so its sequence DOES advance the journal position.
func TestDeterministicApplyFailureMarkedApplied(t *testing.T) {
	j := &fakeJournal{}
	apply := func(ctx context.Context, prev *Snapshot, epoch int64, b *delta.Batch) (*Snapshot, error) {
		return nil, fmt.Errorf("poison batch")
	}
	_, ref := newJournaledRefresher(t, j, apply)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ref.Run(ctx)

	err := ref.SubmitDeltaWait(context.Background(), journalTestBatch())
	if err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitDeltaWait: %v, want deterministic apply error", err)
	}
	if got := j.appliedSeqs(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("applied sequences %v, want [1]", got)
	}
}

// TestApplyWaitsForDurability pins the ordering the split Append /
// WaitDurable interface relies on: the Run loop must not apply (or
// publish) a batch before its fsync outcome arrives, even though the
// batch is enqueued before the durability wait completes.
func TestApplyWaitsForDurability(t *testing.T) {
	j := &fakeJournal{durableGate: make(chan error)}
	st, ref := newJournaledRefresher(t, j, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ref.Run(ctx)

	errCh := make(chan error, 1)
	go func() { errCh <- ref.SubmitDelta(journalTestBatch()) }()

	time.Sleep(30 * time.Millisecond)
	if got := st.Epoch(); got != 1 {
		t.Fatalf("epoch %d while durability pending, want 1 (apply ran before fsync)", got)
	}
	j.durableGate <- nil
	if err := <-errCh; err != nil {
		t.Fatalf("SubmitDelta: %v", err)
	}
	waitEpoch(t, st, 2)
	if got := j.appliedSeqs(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("applied sequences %v, want [1]", got)
	}
}

// TestFailedDurabilityDropsBatch: a batch whose fsync fails was never
// acknowledged — the submitter gets ErrJournal, the Run loop drops the
// item without applying it, and the queue drains.
func TestFailedDurabilityDropsBatch(t *testing.T) {
	j := &fakeJournal{durableErr: fmt.Errorf("disk gone")}
	st, ref := newJournaledRefresher(t, j, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ref.Run(ctx)

	if err := ref.SubmitDelta(journalTestBatch()); !errors.Is(err, ErrJournal) {
		t.Fatalf("SubmitDelta with failing fsync: %v, want ErrJournal", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if d, _ := ref.QueueDepth(); d == 0 {
			break
		}
		if time.Now().After(deadline) {
			d, _ := ref.QueueDepth()
			t.Fatalf("queue depth stuck at %d after dropped batch", d)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := st.Epoch(); got != 1 {
		t.Fatalf("epoch %d after dropped batch, want 1", got)
	}
	if got := j.appliedSeqs(); len(got) != 0 {
		t.Fatalf("dropped batch marked applied: %v", got)
	}
}
