// Package serve is the online query layer over the batch detector:
// it packages one complete detection state — host graph (which owns
// the host-name index), mass estimates, and the top-k rankings — into
// an immutable Snapshot, publishes snapshots through an atomic
// double-buffered Store so readers never block, and answers HTTP JSON
// queries (single host, bounded batch, precomputed rankings) against
// whichever snapshot is current.
//
// The paper frames Algorithm 2 as an offline filter, but its output —
// per-host p, p', M̃, m̃ and spam labels — is exactly what a search
// engine consults at query time. The serving constraint is the
// refresh: the web graph evolves continuously, so recomputed estimates
// must replace the live state without downtime and without torn reads.
// A Refresher re-runs the estimation in the background, validates the
// result (convergence is enforced upstream by pagerank.ErrNotConverged;
// NaN/±Inf poisoning is re-checked here at the snapshot boundary), and
// swaps the Store pointer atomically. A failed refresh changes nothing:
// the previous snapshot keeps serving, the failure is recorded in
// metrics and LastError — graceful degradation over partial state.
//
// Concurrency model: a Snapshot is immutable after construction; the
// Store hands out the current *Snapshot with one atomic load; an
// in-flight request keeps using the snapshot it loaded even while a
// newer one is published, so every response is internally consistent
// (all fields from one epoch). Epochs increase monotonically across
// publishes, which the race tests assert under hammering.
package serve

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"spammass/internal/graph"
	"spammass/internal/mass"
)

// HostRecord is the JSON answer for one host: the detection row of
// Algorithm 2 plus the serving metadata (epoch, evaluated flag). All
// score fields are in the paper's scaled n/(1−c) units.
type HostRecord struct {
	Host string `json:"host"`
	Node int64  `json:"node"`
	// PageRank is the scaled regular PageRank p.
	PageRank float64 `json:"pagerank"`
	// CorePageRank is the scaled core-based PageRank p'.
	CorePageRank float64 `json:"core_pagerank"`
	// AbsMass is the scaled absolute spam mass M̃ = p − p'.
	AbsMass float64 `json:"abs_mass"`
	// RelMass is the relative spam mass m̃ = 1 − p'/p.
	RelMass float64 `json:"rel_mass"`
	// Label is "spam" for hosts crossing both Algorithm 2 thresholds,
	// "good" otherwise.
	Label string `json:"label"`
	// Evaluated reports whether the host is in the examined set T
	// (scaled PageRank ≥ ρ); Algorithm 2 never labels hosts below ρ,
	// so their "good" label carries less evidence.
	Evaluated bool `json:"evaluated"`
	// Epoch is the snapshot generation this record was computed in.
	Epoch int64 `json:"epoch"`
}

// Ranking metrics accepted by Snapshot.Top and GET /v1/top.
const (
	MetricRelMass  = "relmass"
	MetricAbsMass  = "absmass"
	MetricPageRank = "pagerank"
)

// rankedMetrics are the served rankings, in Snapshot.rankings order.
var rankedMetrics = [...]string{MetricRelMass, MetricAbsMass, MetricPageRank}

// DefaultMaxTop caps the length of the precomputed rankings (and
// therefore the n of GET /v1/top) when SnapshotConfig.MaxTop is zero.
const DefaultMaxTop = 1000

// SnapshotConfig fixes the detection and ranking parameters of one
// snapshot generation.
type SnapshotConfig struct {
	// Detect holds the Algorithm 2 thresholds (ρ, τ) used to label
	// every record.
	Detect mass.DetectConfig
	// Gamma and CoreSize describe the estimation inputs, surfaced in
	// /admin/status for operators.
	Gamma    float64
	CoreSize int
	// Core is the good-core node set the estimates were computed from,
	// in this snapshot's ID space. The delta refresh path carries it
	// forward: delta.Apply remaps the previous snapshot's core onto the
	// next generation's IDs. NewSnapshot clones the slice, and when Core
	// is set, CoreSize is derived from it.
	Core []graph.NodeID
	// MaxTop caps the precomputed ranking length; 0 means
	// DefaultMaxTop.
	MaxTop int
}

// Snapshot is one immutable detection state: every accessor is safe
// for unsynchronized concurrent use, and nothing in a Snapshot changes
// after NewSnapshot returns. It stores nothing per host: a lookup probes
// the HostGraph's name index (a delta builds a new one) and derives the
// record from the estimates, and the rankings are node IDs.
type Snapshot struct {
	epoch    int64
	builtAt  time.Time
	hosts    *graph.HostGraph
	est      *mass.Estimates
	cfg      SnapshotConfig
	rankings [len(rankedMetrics)][]graph.NodeID
}

// NewSnapshot validates the estimates and selects the rankings. The
// validation is the vectorcheck guard at the serving boundary: a NaN or
// ±Inf anywhere in the estimate vectors, or a negative PageRank score,
// fails the build so a poisoned refresh can never be published. epoch must be positive; the Refresher assigns
// prev+1.
func NewSnapshot(hosts *graph.HostGraph, est *mass.Estimates, cfg SnapshotConfig, epoch int64) (*Snapshot, error) {
	if epoch <= 0 {
		return nil, fmt.Errorf("serve: snapshot epoch %d must be positive", epoch)
	}
	n := hosts.Graph.NumNodes()
	if est.N() != n {
		return nil, fmt.Errorf("serve: estimates cover %d nodes, host graph has %d", est.N(), n)
	}
	if len(hosts.Names) != n {
		return nil, fmt.Errorf("serve: %d host names for %d nodes", len(hosts.Names), n)
	}
	if err := validateEstimates(est); err != nil {
		return nil, err
	}
	if cfg.MaxTop <= 0 {
		cfg.MaxTop = DefaultMaxTop
	}
	if cfg.Core != nil {
		for _, x := range cfg.Core {
			if int(x) >= n {
				return nil, fmt.Errorf("serve: core node %d outside host graph of %d nodes", x, n)
			}
		}
		cfg.Core = append([]graph.NodeID(nil), cfg.Core...)
		cfg.CoreSize = len(cfg.Core)
	}
	s := &Snapshot{epoch: epoch, builtAt: time.Now(), hosts: hosts, est: est, cfg: cfg}
	// The three rankings select concurrently over the estimate arrays: on
	// a multi-core box the build does not run on one core while the
	// others idle. Each ranking is the same as a serial build's.
	var wg sync.WaitGroup
	for i, metric := range rankedMetrics {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.rankings[i] = s.rank(cfg.MaxTop, metric)
		}()
	}
	wg.Wait()
	return s, nil
}

// record derives the served record of node x: mass.RecordFor's row and
// the serving metadata, built from the methods RecordFor uses but not
// through its struct, whose copy made a lookup ≈380 ns, not ≈230.
func (s *Snapshot) record(x graph.NodeID) HostRecord {
	e, p := s.est, s.est.ScaledPageRank(x)
	return HostRecord{
		Host:         s.hosts.Names[x],
		Node:         int64(x),
		PageRank:     p,
		CorePageRank: e.ScaledPCore(x),
		AbsMass:      e.ScaledAbsMass(x),
		RelMass:      e.Rel[x],
		Label:        s.cfg.Detect.Label(p, e.Rel[x]),
		Evaluated:    p >= s.cfg.Detect.ScaledPageRankThreshold,
		Epoch:        s.epoch,
	}
}

// rankKey maps a ranking metric name to its sort key. ok is false for
// unknown metrics; ValidMetric and MergeTop share this table, and
// Snapshot.rank reads the same fields from the estimates, so every
// layer agrees on what is servable.
func rankKey(metric string) (func(*HostRecord) float64, bool) {
	switch metric {
	case MetricRelMass:
		return func(r *HostRecord) float64 { return r.RelMass }, true
	case MetricAbsMass:
		return func(r *HostRecord) float64 { return r.AbsMass }, true
	case MetricPageRank:
		return func(r *HostRecord) float64 { return r.PageRank }, true
	}
	return nil, false
}

// rankedBefore is THE ranking order: key descending, ties broken by
// ascending host name. The tie-break must be a property of the host,
// not of the node ID — IDs are renumbered by delta applies and differ
// across shards, so an ID tie-break would reshuffle equal-scored hosts
// on every refresh and make merged shard rankings unstable.
func rankedBefore(ki, kj float64, hi, hj string) bool {
	// lint:ignore floatcmp exact tie-break keeps the ranking a strict weak ordering
	if ki != kj {
		return ki > kj
	}
	return hi < hj
}

// rank returns the top-k node IDs for metric in the serving order
// (rankedBefore), keyed by the float that field of each node's record
// holds (rankKey), read straight from the estimate arrays. The
// relative-mass ranking is restricted to the examined set T — it is
// meaningless below ρ, where tiny absolute errors blow up m̃ (Section
// 3.6). A heap rooted at the worst kept host holds the k best seen so
// far and only those are sorted; host names are unique, so the order
// is total: a full sort's exact k-prefix.
func (s *Snapshot) rank(k int, metric string) []graph.NodeID {
	key, names := s.est.ScaledPageRank, s.hosts.Names
	switch metric {
	case MetricRelMass:
		key = func(x graph.NodeID) float64 { return s.est.Rel[x] }
	case MetricAbsMass:
		key = s.est.ScaledAbsMass
	}
	before := func(x, y graph.NodeID) bool {
		return rankedBefore(key(x), key(y), names[x], names[y])
	}
	evaluatedOnly, rho := metric == MetricRelMass, s.cfg.Detect.ScaledPageRankThreshold
	kept := make([]graph.NodeID, 0, min(k, len(names)))
	for x := range graph.NodeID(len(names)) {
		switch {
		case evaluatedOnly && !(s.est.ScaledPageRank(x) >= rho):
		case len(kept) < k:
			if kept = append(kept, x); len(kept) == k {
				// Worst first: a slice sorted that way is already a heap.
				sort.Slice(kept, func(i, j int) bool { return before(kept[j], kept[i]) })
			}
		case before(x, kept[0]):
			kept[0] = x
			for i, c := 0, 1; c < k; i, c = c, 2*c+1 {
				if c+1 < k && before(kept[c], kept[c+1]) {
					c++
				}
				if !before(kept[i], kept[c]) {
					break
				}
				kept[i], kept[c] = kept[c], kept[i]
			}
		}
	}
	sort.Slice(kept, func(i, j int) bool { return before(kept[i], kept[j]) })
	return kept
}

// validateEstimates is the NaN/±Inf guard at the snapshot boundary,
// mirroring the engine's -tags vectorcheck scan: estimates computed in
// a background refresh must never poison the serving state.
func validateEstimates(est *mass.Estimates) error {
	vectors := []struct {
		name string
		v    []float64
	}{{"p", est.P}, {"p_core", est.PCore}, {"abs_mass", est.Abs}, {"rel_mass", est.Rel}}
	for _, vec := range vectors {
		for i, v := range vec.v {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("serve: estimate vector %s has non-finite value %v at node %d", vec.name, v, i)
			}
		}
	}
	for i, v := range est.P {
		if v < 0 {
			return fmt.Errorf("serve: PageRank vector has negative score %v at node %d", v, i)
		}
	}
	return nil
}

// Epoch returns the snapshot generation, positive and strictly
// increasing across publishes.
func (s *Snapshot) Epoch() int64 { return s.epoch }

// BuiltAt returns the snapshot construction time.
func (s *Snapshot) BuiltAt() time.Time { return s.builtAt }

// Age returns the time elapsed since the snapshot was built.
func (s *Snapshot) Age() time.Duration { return time.Since(s.builtAt) }

// NumHosts returns the number of hosts covered.
func (s *Snapshot) NumHosts() int { return len(s.hosts.Names) }

// Config returns the snapshot's detection and ranking parameters.
func (s *Snapshot) Config() SnapshotConfig { return s.cfg }

// Estimates exposes the underlying mass estimates (e.g. for report
// summaries); treat the result as read-only.
func (s *Snapshot) Estimates() *mass.Estimates { return s.est }

// HostGraph exposes the host graph the snapshot was built over — the
// base the delta refresh path applies the next mutation batch to.
// Treat the result as read-only; HostGraph contents are immutable by
// convention.
func (s *Snapshot) HostGraph() *graph.HostGraph { return s.hosts }

// Core returns a copy of the good-core node set the snapshot's
// estimates were computed from (nil when the builder did not record
// one). The delta refresh path remaps it onto the next generation.
func (s *Snapshot) Core() []graph.NodeID {
	if s.cfg.Core == nil {
		return nil
	}
	return append([]graph.NodeID(nil), s.cfg.Core...)
}

// Lookup resolves a host name to its record.
func (s *Snapshot) Lookup(name string) (HostRecord, bool) {
	x, ok := s.hosts.NodeByName(name)
	if !ok {
		return HostRecord{}, false
	}
	return s.record(x), true
}

// LookupNode returns the record of node x.
func (s *Snapshot) LookupNode(x graph.NodeID) (HostRecord, bool) {
	if int(x) >= s.NumHosts() {
		return HostRecord{}, false
	}
	return s.record(x), true
}

// Top returns the records of the first n entries of the precomputed
// ranking for metric (MetricRelMass, MetricAbsMass, or MetricPageRank).
// n is clamped to the precomputed length (SnapshotConfig.MaxTop).
func (s *Snapshot) Top(metric string, n int) ([]HostRecord, error) {
	i := slices.Index(rankedMetrics[:], metric)
	if i < 0 {
		return nil, fmt.Errorf("serve: unknown ranking metric %q (want %s, %s, or %s)",
			metric, MetricRelMass, MetricAbsMass, MetricPageRank)
	}
	ranked := s.rankings[i][:min(max(n, 0), len(s.rankings[i]))]
	out := make([]HostRecord, len(ranked))
	for j, x := range ranked {
		out[j] = s.record(x)
	}
	return out, nil
}
