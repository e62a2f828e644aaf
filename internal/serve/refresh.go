package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"spammass/internal/delta"
	"spammass/internal/mass"
	"spammass/internal/obs"
)

// BuildFunc produces the next full generation and returns a validated
// snapshot carrying the given epoch. prev is the currently served
// snapshot, nil only on the initial build: spamserver's builder reads
// its input files (or, on a durable server, recovers) when prev is nil,
// and otherwise re-solves prev's host graph and core cold
// (Generator.Cold). A recovering initial build instead returns the
// epoch its replayed WAL suffix reached. A builder that fails returns
// an error; it must not publish anything itself.
type BuildFunc func(ctx context.Context, prev *Snapshot, epoch int64) (*Snapshot, error)

// DeltaApplyFunc produces the next snapshot generation from the
// current one plus a mutation batch: apply the delta to prev's host
// graph, re-estimate warm-started from prev's vectors, and return a
// validated snapshot carrying the given epoch. prev is never nil —
// deltas need a base generation. Generator.Delta is the standard
// implementation.
type DeltaApplyFunc func(ctx context.Context, prev *Snapshot, epoch int64, batch *delta.Batch) (*Snapshot, error)

// DefaultDeltaQueue is the SubmitDelta queue capacity. A full queue
// rejects rather than blocks: with 16 batches awaiting their apply, the
// next submission fails with ErrIngestBackpressure.
const DefaultDeltaQueue = 16

// ErrIngestBackpressure reports that the ingest queue is full: applies
// are running behind submissions, and the feed should back off and
// retry. The HTTP layer maps it to 429 + Retry-After.
var ErrIngestBackpressure = errors.New("serve: ingest queue full")

// ErrJournal reports a failed journal append or fsync during
// submission: the batch was NOT acknowledged and will not be applied.
// The HTTP layer maps it to 503.
var ErrJournal = errors.New("serve: journaling delta batch failed")

// Journal is the durability hook of the ingest path (implemented by
// internal/ingest). When configured, SubmitDelta appends each batch to
// the journal — fsync before acknowledgment — before enqueueing it, and
// the applier reports the served snapshot that covers each applied
// sequence so the journal's compactor knows what the log prefix has
// been folded into.
type Journal interface {
	// Append stages the batch in the log and assigns its sequence
	// number. The record need not be durable when Append returns —
	// the submitter calls WaitDurable before acknowledging, and the
	// applier calls it again before applying. Appends are serialized by
	// the submitter, so sequence order equals call order.
	Append(b *delta.Batch) (uint64, error)
	// WaitDurable blocks until every record with sequence ≤ seq is
	// fsynced. Keeping it separate from Append lets concurrent
	// submitters share one group-commit fsync instead of serializing
	// full append+sync cycles. Every call for the same seq returns the
	// same outcome: a failed fsync stays failed, so the applier never
	// applies a batch its submitter was told is lost.
	WaitDurable(seq uint64) error
	// MarkApplied reports that every journaled batch up to and
	// including seq is reflected in the now-served snapshot.
	MarkApplied(seq uint64, snap *Snapshot)
	// MarkRefreshed reports a full (non-delta) refresh: snap re-solves
	// the served generation, so it covers the same applied sequence and
	// replaces the snapshot without advancing it — acknowledged batches
	// still queued apply on top of it, live and during recovery alike.
	MarkRefreshed(snap *Snapshot)
}

// RefresherConfig configures the background refresh loop.
type RefresherConfig struct {
	// ApplyDelta, if non-nil, enables the incremental refresh path:
	// POST /admin/delta, SubmitDelta and SubmitDeltaWait feed mutation
	// batches through it in queue order — applied by the Run loop, or by
	// a SubmitDeltaWait caller when no Run loop is running — each
	// applied batch advancing the epoch by one.
	ApplyDelta DeltaApplyFunc
	// Journal, if non-nil, makes SubmitDelta durable: every batch is
	// appended (and fsynced) before it is acknowledged or applied, and
	// apply/refresh outcomes are reported back for compaction.
	Journal Journal
	// Obs receives the refresh spans, counters, and snapshot gauges.
	Obs *obs.Context
	// Recorder, if non-nil, gets one extra Sample per published
	// snapshot, so the metric history always has a point at each epoch
	// boundary regardless of the sampling interval.
	Recorder *obs.Recorder
	// Watchdog, if non-nil, observes each published epoch's detection
	// fingerprint for drift.
	Watchdog *Watchdog
	// Flight, if non-nil, records the span tree of every failed
	// refresh; FlightDir, if also set, additionally writes the flight
	// snapshot to <FlightDir>/flight-epoch<N>.json on failure so the
	// autopsy survives a crash-restart.
	Flight    *obs.FlightRecorder
	FlightDir string
}

// Refresher drives snapshot turnover: it runs BuildFunc on demand and
// publishes the result to the Store only when the build succeeded end
// to end. Any failure — a boot's input read, solver
// non-convergence (pagerank.ErrNotConverged from the estimator),
// snapshot validation — leaves the previous snapshot serving and is
// recorded in LastError and the serve.refresh_failures_total counter.
// Refreshes are serialized; triggers arriving mid-refresh coalesce
// into one follow-up run.
type Refresher struct {
	store *Store
	build BuildFunc
	cfg   RefresherConfig

	trigger chan struct{}
	wake    chan struct{} // tells the Run loop the queue has batches
	// qmu guards the delta queue. A submitter holds it from admission
	// through Journal.Append to the enqueue, so queue order is journal
	// order.
	qmu     sync.Mutex
	queue   []queuedDelta
	pending int // admitted batches not yet settled: queued or applying
	// mu serializes builds. An applier holds it from taking a batch off
	// the queue until the batch is published, so batches apply in queue
	// order whoever drives the queue.
	mu       sync.Mutex
	running  atomic.Int64 // Run loops in progress
	rejected atomic.Int64
	ok       atomic.Int64
	failed   atomic.Int64
	deltas   atomic.Int64 // batches applied and published
	lastErr  atomic.Pointer[refreshError]
	lastWall atomic.Int64 // nanoseconds of the last successful refresh
}

// queuedDelta is one admitted batch; seq is its journal sequence (0
// when no journal is configured).
type queuedDelta struct {
	b    *delta.Batch
	seq  uint64
	done chan error // non-nil for SubmitDeltaWait callers
	// octx is the SubmitDeltaWait caller's request obs context, so the
	// apply's spans join that request's trace. Nil for SubmitDelta.
	octx *obs.Context
}

type refreshError struct{ err error }

// NewRefresher binds a store and a build function. Call Run to start
// the background loop, or Refresh for synchronous one-shot control.
func NewRefresher(store *Store, build BuildFunc, cfg RefresherConfig) *Refresher {
	return &Refresher{store: store, build: build, cfg: cfg,
		trigger: make(chan struct{}, 1), wake: make(chan struct{}, 1)}
}

// Refresh synchronously builds and publishes the next snapshot
// generation. On failure the store is untouched — the old snapshot
// keeps serving — and the error is recorded and returned. Concurrent
// calls are serialized.
func (r *Refresher) Refresh(ctx context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runBuild(ctx, "serve.refresh", false, 0, r.build)
}

// SubmitDelta enqueues a batch for the Run loop to apply. It never
// blocks on the apply: with DefaultDeltaQueue batches pending it fails
// with ErrIngestBackpressure and the batch is dropped — the feed should
// back off and resubmit. It fails too on an unconfigured delta path or
// an empty batch. A batch queued while no Run loop runs waits for one,
// or for the next SubmitDeltaWait. With a Journal configured, a nil
// return means the batch is DURABLE: it was fsynced to the log before
// this call returned, and a crash before the apply loses nothing.
func (r *Refresher) SubmitDelta(b *delta.Batch) error {
	return r.submit(b, nil, nil)
}

// SubmitDeltaWait queues a batch as SubmitDelta does, so it never
// overtakes one queued before it, and returns the outcome of its apply.
// With a Run loop running, the loop applies it; if ctx ends first the
// call returns ctx's error and the batch stays queued. With none
// running, the caller applies the queue up to its own batch, ignoring
// ctx's cancellation, so a batch it takes off the queue is applied. The
// apply's spans join the request obs context on ctx.
func (r *Refresher) SubmitDeltaWait(ctx context.Context, b *delta.Batch) error {
	done := make(chan error, 1)
	if err := r.submit(b, done, obs.RequestContext(ctx)); err != nil {
		return err
	}
	if r.running.Load() == 0 {
		// A batch taken off the queue by someone else is settled right
		// after its apply, so an empty queue here means done is coming.
		for len(done) == 0 && r.applyNext(context.WithoutCancel(ctx)) {
		}
		return <-done
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (r *Refresher) submit(b *delta.Batch, done chan error, octx *obs.Context) error {
	if r.cfg.ApplyDelta == nil {
		return fmt.Errorf("serve: delta path not configured")
	}
	if b == nil || b.NumOps() == 0 {
		return fmt.Errorf("serve: empty delta batch")
	}
	// Admission, journal append and enqueue happen under qmu, so queue
	// order always equals journal order — the property that makes a
	// crash replay reproduce exactly the live apply sequence. The
	// durability wait happens after qmu is released: concurrent
	// submitters' records land in the same group-commit window and share
	// one fsync. The applier waits for the same outcome before applying.
	r.qmu.Lock()
	if r.pending >= DefaultDeltaQueue {
		r.qmu.Unlock()
		r.rejected.Add(1)
		r.cfg.Obs.Counter("serve.ingest_rejected_total").Inc()
		return fmt.Errorf("%w (%d pending)", ErrIngestBackpressure, DefaultDeltaQueue)
	}
	var seq uint64
	if r.cfg.Journal != nil {
		var err error
		if seq, err = r.cfg.Journal.Append(b); err != nil {
			r.qmu.Unlock()
			return fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	r.queue = append(r.queue, queuedDelta{b: b, seq: seq, done: done, octx: octx})
	r.addPending(1)
	r.qmu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
	if r.cfg.Journal != nil {
		if err := r.cfg.Journal.WaitDurable(seq); err != nil {
			return fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	return nil
}

// addPending moves the pending count and its gauge by d; qmu is held.
func (r *Refresher) addPending(d int) {
	r.pending += d
	r.cfg.Obs.Gauge("serve.ingest_queue_depth").Set(float64(r.pending))
}

// applyNext applies the oldest queued batch, if there is one, settles
// it, and reports whether there was one.
func (r *Refresher) applyNext(ctx context.Context) bool {
	item, ok, err := r.applyOldest(ctx)
	if !ok {
		return false
	}
	r.qmu.Lock()
	r.addPending(-1)
	r.qmu.Unlock()
	if err != nil {
		r.cfg.Obs.Logf("serve: delta apply failed: %v", err)
	}
	if item.done != nil {
		item.done <- err // buffered for this one send
	}
	return true
}

// applyOldest takes the oldest batch off the queue and applies it,
// holding mu from the take to the publish.
func (r *Refresher) applyOldest(ctx context.Context) (item queuedDelta, ok bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.qmu.Lock()
	if len(r.queue) == 0 {
		r.qmu.Unlock()
		return item, false, nil
	}
	item = r.queue[0]
	r.queue[0] = queuedDelta{}
	r.queue = r.queue[1:]
	r.qmu.Unlock()
	if r.cfg.Journal != nil {
		// A batch whose fsync failed was never acknowledged and must not
		// be applied — nor advance the journal's applied sequence, since
		// its record may not survive a restart. WaitDurable returns the
		// outcome its submitter got.
		if derr := r.cfg.Journal.WaitDurable(item.seq); derr != nil {
			return item, true, fmt.Errorf("serve: dropping unacknowledged delta batch seq %d: %w", item.seq, derr)
		}
	}
	ctx = obs.WithRequest(ctx, item.octx)
	err = ctx.Err() // a stopping Run loop settles the queue unapplied
	if err == nil {
		err = r.runBuild(ctx, "serve.delta_apply", true, item.seq, func(ctx context.Context, prev *Snapshot, epoch int64) (*Snapshot, error) {
			return r.cfg.ApplyDelta(ctx, prev, epoch, item.b)
		})
	}
	if err != nil && r.cfg.Journal != nil && !transientApplyFailure(ctx, err) {
		// The apply failed deterministically and was skipped; the served
		// snapshot is nevertheless the state that covers this sequence,
		// because a recovery replay skips deterministic failures the same
		// way (see ingest.Pipeline.Recover). Transient failures — ctx
		// canceled at shutdown, a request deadline expiring mid-apply —
		// must NOT be marked: recovery aborts rather than skips on ctx errors,
		// so the batch stays in the WAL and is replayed on the next boot
		// instead of being compacted away unapplied.
		if snap := r.store.Load(); snap != nil {
			r.cfg.Journal.MarkApplied(item.seq, snap)
		}
	}
	return item, true, err
}

// transientApplyFailure reports whether a failed apply was cut short by
// cancellation or a deadline rather than rejected deterministically. A
// transient failure leaves the durable batch in the WAL for replay on
// the next boot; marking it applied would let the compactor truncate an
// acknowledged batch that never took effect.
func transientApplyFailure(ctx context.Context, err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil
}

// QueueDepth returns how many admitted batches have not yet completed
// their apply, and the queue capacity (0 without a delta path).
func (r *Refresher) QueueDepth() (depth int, capacity int) {
	if r.cfg.ApplyDelta == nil {
		return 0, 0
	}
	r.qmu.Lock()
	defer r.qmu.Unlock()
	return r.pending, DefaultDeltaQueue
}

// RejectedCount returns how many submissions were turned away by
// backpressure.
func (r *Refresher) RejectedCount() int64 { return r.rejected.Load() }

// runBuild is the shared build-and-publish body of Refresh and the
// delta apply, run with mu held: run the builder for epoch prev+1,
// publish only on end-to-end success, and record the outcome in metrics
// and LastError.
func (r *Refresher) runBuild(ctx context.Context, spanName string, needPrev bool, seq uint64, build BuildFunc) error {
	// A synchronous admin request (POST /admin/refresh?wait=1,
	// /admin/delta?wait=1) carries its own traced obs context; building
	// under it threads the refresh and solver spans into the request's
	// span tree. The registry is shared either way, so metrics land in
	// one place regardless of who drove the build.
	octx := obs.RequestOr(ctx, r.cfg.Obs)
	sp := octx.Span(spanName)
	defer sp.End()
	if sp != nil {
		// Builders that honor obs.RequestContext nest their spans under
		// this refresh span, so the whole build is one tree.
		ctx = obs.WithRequest(ctx, octx.In(sp))
	}
	prev := r.store.Load()
	if needPrev && prev == nil {
		return fmt.Errorf("serve: no snapshot to apply delta to; run a full refresh first")
	}
	epoch := int64(1)
	if prev != nil {
		epoch = prev.Epoch() + 1
	}
	sp.SetAttr("epoch", epoch)
	start := time.Now()
	snap, err := build(ctx, prev, epoch)
	if err == nil && snap == nil {
		err = fmt.Errorf("serve: build returned neither snapshot nor error")
	}
	if err == nil {
		err = r.store.Publish(snap)
	}
	octx.Histogram("serve.refresh_seconds").Observe(time.Since(start).Seconds())
	if err != nil {
		err = fmt.Errorf("serve: refresh to epoch %d failed, keeping epoch %d: %w", epoch, r.store.Epoch(), err)
		sp.SetAttr("error", err.Error())
		r.failed.Add(1)
		r.lastErr.Store(&refreshError{err: err})
		octx.Counter("serve.refresh_failures_total").Inc()
		r.recordFailure(octx, spanName, sp, epoch, start, time.Since(start), err)
		return err
	}
	r.ok.Add(1)
	if needPrev {
		r.deltas.Add(1)
	}
	// Tell the journal what the served state now covers, so the
	// compactor can fold the log prefix into a snapshot. A full refresh
	// re-solves the served generation, so it covers the same applied
	// sequence; still-queued acknowledged batches apply on top of it.
	if j := r.cfg.Journal; j != nil {
		if !needPrev {
			j.MarkRefreshed(snap)
		} else if seq > 0 {
			j.MarkApplied(seq, snap)
		}
	}
	r.lastErr.Store(&refreshError{})
	r.lastWall.Store(int64(time.Since(start)))
	octx.Counter("serve.refreshes_total").Inc()
	// Solver effort: warm vs cold (the incremental path's payoff), and
	// the latest solve's iterations next to pagerank.iterations_total.
	if st := snap.Estimates().SolveStats; st != nil {
		octx.Gauge("pagerank.solve_iterations").Set(float64(st.Iterations))
		if st.WarmStarted {
			octx.Counter("serve.refresh_iterations_warm_total").Add(int64(st.Iterations))
		} else {
			octx.Counter("serve.refresh_iterations_cold_total").Add(int64(st.Iterations))
		}
	}
	octx.Gauge("serve.snapshot_epoch").Set(float64(snap.Epoch()))
	octx.Gauge("serve.snapshot_hosts").Set(float64(snap.NumHosts()))
	octx.Gauge("serve.snapshot_age_seconds").Set(0)
	// Per-epoch telemetry: the detection fingerprint feeds the drift
	// watchdog, and the recorder takes one point at the epoch boundary
	// so the history captures every publish regardless of interval.
	if r.cfg.Watchdog != nil {
		fp := mass.FingerprintOf(snap.Estimates(), snap.Config().Detect)
		fp.Epoch = uint64(snap.Epoch())
		r.cfg.Watchdog.ObserveEpoch(snap.Epoch(), fp)
	}
	r.cfg.Recorder.Sample(time.Now())
	octx.Logf("serve: published snapshot epoch %d (%d hosts, %s)", snap.Epoch(), snap.NumHosts(), time.Since(start).Round(time.Millisecond))
	return nil
}

// recordFailure files a failed refresh into the flight recorder and,
// when FlightDir is set, writes the autopsy file to disk — the
// snapshot kept serving, but the operator gets the span tree of what
// went wrong even if the process restarts before anyone scrapes
// /admin/flightrecorder.
func (r *Refresher) recordFailure(octx *obs.Context, spanName string, sp *obs.Span, epoch int64, start time.Time, d time.Duration, err error) {
	if r.cfg.Flight == nil {
		return
	}
	sp.End() // idempotent; the deferred End in runBuild keeps the same timestamp
	r.cfg.Flight.Record(obs.FlightEntry{
		Kind:       "refresh",
		TraceID:    octx.TraceID(),
		Name:       spanName,
		Err:        true,
		Error:      err.Error(),
		Start:      start,
		DurationNS: int64(d),
		Trace:      sp.Snapshot(),
	})
	if r.cfg.FlightDir != "" {
		path := filepath.Join(r.cfg.FlightDir, fmt.Sprintf("flight-epoch%d.json", epoch))
		if werr := r.cfg.Flight.WriteFile(path); werr != nil {
			octx.Logf("serve: flight dump to %s failed: %v", path, werr)
		} else {
			octx.Logf("serve: refresh failure flight record written to %s", path)
		}
	}
}

// Trigger requests an asynchronous refresh from the Run loop. It never
// blocks; triggers raised while a refresh is already pending coalesce.
func (r *Refresher) Trigger() {
	select {
	case r.trigger <- struct{}{}:
	default:
	}
}

// Run executes the refresh loop until ctx is canceled: one refresh per
// Trigger, and one apply per queued delta batch, in queue order; on
// cancellation it settles what is still queued with ctx's error, and a
// journaled batch replays on the next boot. Failures are absorbed —
// recorded via LastError and metrics, old snapshot retained — so a
// transient bad input cannot take the loop down.
func (r *Refresher) Run(ctx context.Context) {
	r.running.Add(1)
	for {
		select {
		case <-ctx.Done():
			// Deregister before the final drain: a SubmitDeltaWait that
			// saw this loop running queued its batch before the drain
			// looks, so the drain settles it.
			r.running.Add(-1)
			for r.applyNext(ctx) {
			}
			return
		case <-r.trigger:
		case <-r.wake:
			for ctx.Err() == nil && r.applyNext(ctx) {
			}
			continue
		}
		if err := r.Refresh(ctx); err != nil {
			r.cfg.Obs.Logf("serve: refresh failed: %v", err)
		}
	}
}

// Counts returns how many refreshes succeeded and failed.
func (r *Refresher) Counts() (ok, failed int64) {
	return r.ok.Load(), r.failed.Load()
}

// DeltaCount returns how many delta batches were applied and
// published. Each is also counted as a successful refresh in Counts.
func (r *Refresher) DeltaCount() int64 { return r.deltas.Load() }

// DeltaEnabled reports whether the incremental delta path is
// configured.
func (r *Refresher) DeltaEnabled() bool { return r.cfg.ApplyDelta != nil }

// Journaled reports whether a durability journal is configured: when
// true, acknowledged submissions survive a crash.
func (r *Refresher) Journaled() bool { return r.cfg.Journal != nil }

// LastError returns the error of the most recent refresh attempt, or
// nil if it succeeded (or none ran yet).
func (r *Refresher) LastError() error {
	if re := r.lastErr.Load(); re != nil {
		return re.err
	}
	return nil
}

// LastDuration returns the wall time of the most recent successful
// refresh.
func (r *Refresher) LastDuration() time.Duration {
	return time.Duration(r.lastWall.Load())
}
