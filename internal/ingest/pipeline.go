package ingest

import (
	"context"
	"fmt"
	"sync"
	"time"

	"spammass/internal/delta"
	"spammass/internal/mass"
	"spammass/internal/obs"
	"spammass/internal/serve"
)

// DefaultKeepSnapshots is how many snapshot files survive pruning when
// Config.KeepSnapshots is zero: the newest plus one fallback, in case
// the newest is lost to bit rot.
const DefaultKeepSnapshots = 2

// Config tunes a Pipeline.
type Config struct {
	// Dir holds the WAL segments and snapshot files.
	Dir string
	// SegmentBytes and GroupCommit pass through to the WAL.
	SegmentBytes int64
	GroupCommit  time.Duration
	// CompactEvery is the RunCompactor period; 0 disables periodic
	// compaction (Compact can still be called directly).
	CompactEvery time.Duration
	// KeepSnapshots is how many snapshot files to retain; 0 means
	// DefaultKeepSnapshots.
	KeepSnapshots int
	// Obs receives the ingest metrics and spans.
	Obs *obs.Context
}

// Pipeline ties the WAL and snapshot store into the serving tier's
// durability loop. It implements serve.Journal: SubmitDelta appends
// here before acknowledging, the refresher reports each served
// snapshot back, and the compactor folds the applied log prefix into a
// snapshot file so the WAL stays bounded and recovery stays fast.
type Pipeline struct {
	wal *WAL
	cfg Config

	// mu guards the checkpoint — the latest served snapshot paired with
	// the highest WAL sequence it covers. Pairing them under one lock is
	// what lets the compactor persist a consistent (state, position)
	// cut without stalling the apply loop.
	mu   sync.Mutex
	snap *serve.Snapshot
	seq  uint64

	// lastSnapSeq/lastSnapEpoch identify the newest persisted snapshot,
	// so an unchanged checkpoint skips the compaction entirely.
	lastSnapSeq   uint64
	lastSnapEpoch int64

	compactions *obs.Counter
	recovered   *obs.Counter
	skipped     *obs.Counter
}

// Open opens (or initializes) the durability directory: the WAL is
// scanned and its torn tail truncated, ready for appends and replay.
func Open(cfg Config) (*Pipeline, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("ingest: Config.Dir is required")
	}
	if cfg.KeepSnapshots <= 0 {
		cfg.KeepSnapshots = DefaultKeepSnapshots
	}
	wal, err := OpenWAL(cfg.Dir, WALConfig{
		SegmentBytes: cfg.SegmentBytes,
		GroupCommit:  cfg.GroupCommit,
		Obs:          cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	return &Pipeline{
		wal:         wal,
		cfg:         cfg,
		compactions: cfg.Obs.Counter("ingest.compactions_total"),
		recovered:   cfg.Obs.Counter("ingest.recovered_batches_total"),
		skipped:     cfg.Obs.Counter("ingest.recovery_skipped_total"),
	}, nil
}

// WAL exposes the underlying log (for tests and benchmarks).
func (p *Pipeline) WAL() *WAL { return p.wal }

// Append implements serve.Journal: stage one batch in the log and
// assign its sequence number. Durability is deferred to WaitDurable so
// the submitter can release its ordering lock before the group-commit
// window, letting concurrent submitters share one fsync.
func (p *Pipeline) Append(b *delta.Batch) (uint64, error) {
	return p.wal.AppendBuffered(b)
}

// WaitDurable implements serve.Journal: block until every record with
// sequence ≤ seq is fsynced.
func (p *Pipeline) WaitDurable(seq uint64) error {
	return p.wal.WaitDurable(seq)
}

// MarkApplied implements serve.Journal: the served snapshot now covers
// every sequence up to and including seq. Out-of-order marks (a late
// failure report racing a newer success) never regress the
// checkpoint.
func (p *Pipeline) MarkApplied(seq uint64, snap *serve.Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if seq < p.seq {
		return
	}
	p.seq = seq
	p.snap = snap
}

// MarkRefreshed implements serve.Journal: a full refresh re-solved the
// served generation, so snap is checkpointed under the same sequence.
func (p *Pipeline) MarkRefreshed(snap *serve.Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.snap = snap
}

// checkpoint returns the current (snapshot, seq) cut.
func (p *Pipeline) checkpoint() (*serve.Snapshot, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snap, p.seq
}

// Latest loads the newest readable persisted snapshot, rebuilding the
// servable form with the given boot configuration. Returns (nil, 0,
// nil) when no snapshot exists yet — the caller then runs its initial
// build and recovery replays the whole log.
func (p *Pipeline) Latest(detect mass.DetectConfig, maxTop int) (*serve.Snapshot, uint64, error) {
	st, path, err := LatestSnapshot(p.cfg.Dir, p.cfg.Obs.Logf)
	if err != nil || st == nil {
		return nil, 0, err
	}
	snap, err := st.BuildSnapshot(detect, maxTop)
	if err != nil {
		return nil, 0, fmt.Errorf("ingest: rebuilding snapshot %s: %w", path, err)
	}
	p.cfg.Obs.Logf("ingest: loaded snapshot %s (epoch %d, seq %d, %d hosts)", path, snap.Epoch(), st.AppliedSeq, snap.NumHosts())
	return snap, st.AppliedSeq, nil
}

// Recover folds the WAL suffix beyond baseSeq onto base with gen: each
// replayed batch is staged against the base plus the batches before it
// (O(batch), memory ∝ the net churn of the suffix), and the staged
// batches are merged in one pass and solved once, at epoch = base epoch
// + batches staged. A batch that fails to stage is logged and skipped,
// as the live Run loop does, so the recovered state equals a
// never-crashed server's — scores to the solver tolerance, not bit for
// bit: the warm start differs. Returns the snapshot (base itself if
// nothing staged) and that count. The ingest.recover span opens under
// the request obs context on ctx (a durable boot's refresh span), else
// under the pipeline's own.
func (p *Pipeline) Recover(ctx context.Context, base *serve.Snapshot, baseSeq uint64, gen serve.Generator) (*serve.Snapshot, int, error) {
	if base == nil {
		return nil, 0, fmt.Errorf("ingest: recovery needs a base snapshot")
	}
	parent := obs.RequestOr(ctx, p.cfg.Obs)
	sp := parent.Span("ingest.recover")
	defer sp.End()
	octx := parent.In(sp)
	ctx = obs.WithRequest(ctx, octx)
	start := time.Now()
	fold := gen.Fold(base)
	applied, skipped := 0, 0
	lastSeq := baseSeq
	err := p.wal.Replay(baseSeq+1, func(seq uint64, b *delta.Batch) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		bsp := octx.Span("delta.stage")
		bsp.SetAttr("seq", seq)
		bsp.SetAttr("ops", b.NumOps())
		err := fold.Stage(b)
		bsp.End()
		if err != nil {
			skipped++
			p.skipped.Inc()
			p.cfg.Obs.Logf("ingest: recovery skipping batch seq %d (%d ops): %v", seq, b.NumOps(), err)
		} else {
			applied++
		}
		lastSeq = seq
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("ingest: WAL replay: %w", err)
	}
	staged := time.Since(start)
	cur := base
	if applied > 0 {
		cur, err = fold.Solve(ctx, base.Epoch()+int64(applied))
		if err != nil {
			return nil, 0, fmt.Errorf("ingest: recovery solve: %w", err)
		}
	}
	p.recovered.Add(int64(applied))
	p.MarkApplied(lastSeq, cur)
	sp.SetAttr("applied", applied)
	sp.SetAttr("epoch", cur.Epoch())
	p.cfg.Obs.Histogram("ingest.recovery_seconds").Observe(time.Since(start).Seconds())
	merged := fold.MergeTime()
	p.cfg.Obs.Logf("ingest: recovered to epoch %d (%d batches staged in %s, merged in %s, solved and published in %s, %d skipped)",
		cur.Epoch(), applied, staged.Round(time.Millisecond), merged.Round(time.Millisecond),
		(time.Since(start) - staged - merged).Round(time.Millisecond), skipped)
	return cur, applied, nil
}

// Compact persists the current checkpoint as a snapshot file, deletes
// the WAL segments it covers, and prunes old snapshots. A checkpoint
// identical to the last persisted one is a no-op. Safe to call
// concurrently with appends and applies: the checkpoint is an
// immutable (snapshot, seq) pair, and segment deletion never touches
// the active segment.
func (p *Pipeline) Compact() error {
	snap, seq := p.checkpoint()
	if snap == nil {
		return nil
	}
	p.mu.Lock()
	unchanged := seq == p.lastSnapSeq && snap.Epoch() == p.lastSnapEpoch
	p.mu.Unlock()
	if unchanged {
		return nil
	}
	sp := p.cfg.Obs.Span("ingest.compact")
	defer sp.End()
	start := time.Now()
	path, err := WriteSnapshotFile(p.cfg.Dir, SnapshotStateOf(snap, seq))
	if err != nil {
		return err
	}
	removed, err := p.wal.TruncateThrough(seq)
	if err != nil {
		return err
	}
	if err := pruneSnapshots(p.cfg.Dir, p.cfg.KeepSnapshots); err != nil {
		return err
	}
	p.mu.Lock()
	p.lastSnapSeq = seq
	p.lastSnapEpoch = snap.Epoch()
	p.mu.Unlock()
	p.compactions.Inc()
	sp.SetAttr("seq", seq)
	sp.SetAttr("epoch", snap.Epoch())
	sp.SetAttr("segments_removed", removed)
	p.cfg.Obs.Histogram("ingest.compact_seconds").Observe(time.Since(start).Seconds())
	p.cfg.Obs.Logf("ingest: compacted to %s (epoch %d, seq %d, %d segments removed)", path, snap.Epoch(), seq, removed)
	return nil
}

// RunCompactor compacts on a CompactEvery ticker until ctx is
// canceled, then takes one final compaction so a clean shutdown leaves
// the shortest possible replay. Compaction failures are logged and
// retried next tick — the WAL keeps everything in the meantime.
func (p *Pipeline) RunCompactor(ctx context.Context) {
	if p.cfg.CompactEvery <= 0 {
		return
	}
	t := time.NewTicker(p.cfg.CompactEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			if err := p.Compact(); err != nil {
				p.cfg.Obs.Logf("ingest: final compaction failed: %v", err)
			}
			return
		case <-t.C:
			if err := p.Compact(); err != nil {
				p.cfg.Obs.Logf("ingest: compaction failed: %v", err)
			}
		}
	}
}

// Close closes the WAL. Call after the refresher and compactor have
// stopped.
func (p *Pipeline) Close() error { return p.wal.Close() }
