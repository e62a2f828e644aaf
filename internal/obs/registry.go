package obs

import (
	"expvar"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a concurrency-safe collection of named metrics. Metric
// handles are created on first use and cached; hot paths should hold
// the handle rather than re-looking it up by name. All methods are
// nil-safe: a nil *Registry hands out nil handles whose operations
// are no-ops.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	published  bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates float observations (typically durations in
// seconds) into fixed log-scale buckets. Observation is lock-free.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds; last bucket is overflow
	counts  []atomic.Int64
	n       atomic.Int64
	sumBits atomic.Uint64
}

// timingBounds are the default histogram buckets: four per decade
// from 1µs to 1000s, a fixed log scale wide enough for both a single
// sweep iteration and a full experiment suite.
var timingBounds = func() []float64 {
	const perDecade = 4
	bounds := make([]float64, 0, 9*perDecade+1)
	for i := 0; i <= 9*perDecade; i++ {
		bounds = append(bounds, 1e-6*math.Pow(10, float64(i)/perDecade))
	}
	return bounds
}()

// DefaultTimingBounds returns (a copy of) the default bucket upper
// bounds in seconds.
func DefaultTimingBounds() []float64 {
	out := make([]float64, len(timingBounds))
	copy(out, timingBounds)
	return out
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v; len(bounds) = overflow
	h.counts[idx].Add(1)
	h.n.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the timing histogram registered under name with
// the default log-scale buckets, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, timingBounds)
}

// HistogramWith is Histogram with explicit bucket upper bounds; the
// bounds of an already-registered histogram are kept.
func (r *Registry) HistogramWith(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// MetricsSnapshot is a point-in-time copy of a registry, in the shape
// exported over expvar and rendered as Prometheus text.
type MetricsSnapshot struct {
	Counters   map[string]int64              `json:"counters,omitempty"`
	Gauges     map[string]float64            `json:"gauges,omitempty"`
	Histograms map[string]*HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot copies one histogram: Bounds[i] is the inclusive
// upper bound of Counts[i]; the final entry of Counts is the overflow
// bucket, so len(Counts) == len(Bounds)+1.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() *MetricsSnapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := &MetricsSnapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]*HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			hs := &HistogramSnapshot{
				Count:  h.Count(),
				Sum:    h.Sum(),
				Bounds: append([]float64(nil), h.bounds...),
				Counts: make([]int64, len(h.counts)),
			}
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
			}
			s.Histograms[name] = hs
		}
	}
	return s
}

// PublishExpvar exposes the registry under the given expvar name (and
// therefore on /debug/vars). Publishing twice, or under a name that
// is already taken, is a no-op: expvar forbids re-publication.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.published {
		r.mu.Unlock()
		return
	}
	r.published = expvar.Get(name) == nil
	ok := r.published
	r.mu.Unlock()
	if ok {
		expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
	}
}
