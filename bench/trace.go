package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (no program file carries a span of the benchmark's). Spans
// of one trace share Trace; Parent is the ID of the span that caused
// this one, 0 for the root.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how the composites are timed with spans
// off for bench.trace_overhead_pct.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	traces int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace opens a trace and returns its identifier.
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

// do runs f inside a span and returns the span's ID, for use as the
// parent of the spans f's own calls record.
func (t *tracer) do(trace, parent int, name string, f func(id int)) {
	if t == nil {
		f(0)
		return
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Trace: trace, Parent: parent})
	t.mu.Unlock()
	start := time.Since(t.t0)
	f(id)
	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].End = int64(start), int64(end)
	t.mu.Unlock()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Overlapping children (work
// fanned out in parallel) are merged before subtracting, so a span is
// never charged less than zero.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		// Insertion sort by start: child counts are small.
		for i := 1; i < len(kids); i++ {
			for j := i; j > 0 && kids[j].Start < kids[j-1].Start; j-- {
				kids[j], kids[j-1] = kids[j-1], kids[j]
			}
		}
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// duration returns the total duration of the spans with the given name
// in a trace.
func (t *tracer) duration(trace int, name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans {
		if s.Trace == trace && s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// writeFile writes every recorded span as JSON, each with its self
// time.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := selfTimes(t.spans)
	type spanOut struct {
		span
		Self int64 `json:"self_ns"`
	}
	out := make([]spanOut, len(t.spans))
	for i, s := range t.spans {
		out[i] = spanOut{span: s, Self: int64(st[s.ID])}
	}
	data, err := json.MarshalIndent(struct {
		Spans []spanOut `json:"spans"`
	}{out}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
