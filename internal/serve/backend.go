package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// ErrNoSnapshot is returned by a Backend whose serving state has not
// been published yet (no snapshot, or a router whose shard fence has
// not formed). The HTTP layer maps it to 503.
var ErrNoSnapshot = errors.New("serve: no snapshot published yet")

// Backend is where /v1 answers come from. The HTTP layer (Server) is
// written against this interface, not against one local Snapshot, so
// the same mux, admission control, and telemetry serve a single
// in-memory store today and a shard router or disk-backed store
// tomorrow. Implementations must be safe for concurrent use.
//
// Contract: every response is internally consistent — a Batch or Top
// answer reflects one generation of the backend's state, never a mix.
// For the in-memory StoreBackend that is one snapshot; for the shard
// router it is one fence-complete generation (see internal/shard).
// Lookup reports a miss as ok=false with a nil error; errors mean the
// backend itself could not answer.
type Backend interface {
	// Lookup resolves one host name to its record.
	Lookup(ctx context.Context, name string) (HostRecord, bool, error)
	// Batch resolves names into an aligned response: Records[i] is the
	// record of names[i] or null for a miss, all from one generation.
	Batch(ctx context.Context, names []string) (*BatchResponse, error)
	// Top returns the first n of the ranking for metric. The metric is
	// pre-validated by the HTTP layer (ValidMetric).
	Top(ctx context.Context, metric string, n int) (*TopResponse, error)
	// Generation is the backend's currently served generation, 0 when
	// nothing is published yet. For a local store this is the snapshot
	// epoch; for a router, the fence-complete global generation.
	Generation() int64
}

// StoreBackend answers from the current snapshot of a local Store —
// the single-process serving mode, and the backend every shard node
// runs.
type StoreBackend struct {
	store *Store
}

// NewStoreBackend wraps a snapshot store as a Backend.
func NewStoreBackend(store *Store) *StoreBackend { return &StoreBackend{store: store} }

// Lookup resolves name against the current snapshot.
func (b *StoreBackend) Lookup(ctx context.Context, name string) (HostRecord, bool, error) {
	snap := b.store.Load()
	if snap == nil {
		return HostRecord{}, false, ErrNoSnapshot
	}
	rec, ok := snap.Lookup(name)
	return rec, ok, nil
}

// Batch resolves all names against one snapshot load, so the response
// cannot mix generations. The context is checked every 256 names.
func (b *StoreBackend) Batch(ctx context.Context, names []string) (*BatchResponse, error) {
	snap := b.store.Load()
	if snap == nil {
		return nil, ErrNoSnapshot
	}
	resp := &BatchResponse{Epoch: snap.Epoch(), Records: make([]*HostRecord, len(names))}
	// One backing array for the hits instead of one allocation each.
	hits := make([]HostRecord, len(names))
	for i, name := range names {
		if i%256 == 255 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if rec, ok := snap.Lookup(name); ok {
			hits[i] = rec
			resp.Records[i] = &hits[i]
		} else {
			resp.Misses++
		}
	}
	return resp, nil
}

// Top serves the current snapshot's precomputed ranking.
func (b *StoreBackend) Top(ctx context.Context, metric string, n int) (*TopResponse, error) {
	snap := b.store.Load()
	if snap == nil {
		return nil, ErrNoSnapshot
	}
	recs, err := snap.Top(metric, n)
	if err != nil {
		return nil, err
	}
	return &TopResponse{Epoch: snap.Epoch(), Metric: metric, Records: recs}, nil
}

// Generation returns the current snapshot epoch, 0 before the first
// publish.
func (b *StoreBackend) Generation() int64 { return b.store.Epoch() }

// ValidMetric reports whether metric names one of the served rankings.
// The HTTP layer uses it to answer 400 before consulting the backend,
// so a router does not fan out a request no shard can serve.
func ValidMetric(metric string) bool {
	_, ok := rankKey(metric)
	return ok
}

// MergeTop merges per-source rankings — each already sorted by the
// serving order (metric key descending, host name ascending) — into
// the global top n. Sources must cover disjoint host sets, which shard
// partitions guarantee; records keep their per-source epochs. This is
// the scatter-gather reassembly step of the router's /v1/top.
func MergeTop(metric string, n int, lists ...[]HostRecord) ([]HostRecord, error) {
	key, ok := rankKey(metric)
	if !ok {
		return nil, fmt.Errorf("serve: unknown ranking metric %q (want %s, %s, or %s)",
			metric, MetricRelMass, MetricAbsMass, MetricPageRank)
	}
	if n < 0 {
		n = 0
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	all := make([]HostRecord, 0, total)
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool {
		return rankedBefore(key(&all[i]), key(&all[j]), all[i].Host, all[j].Host)
	})
	if n > len(all) {
		n = len(all)
	}
	return all[:n:n], nil
}
