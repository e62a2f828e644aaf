package obs

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed region of the pipeline: it has a name, start and
// end times, ordered key/value attributes, timestamped events, and
// child spans. Spans form the JSON trace of a run.
//
// A span is safe for concurrent use, and every method is a no-op on a
// nil *Span, so instrumented code needs no sink checks.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	end      time.Time
	attrs    []attr
	events   []event
	children []*Span
}

type attr struct {
	key   string
	value any
}

type event struct {
	offset time.Duration
	msg    string
}

// NewSpan starts a new root span.
func NewSpan(name string) *Span {
	return &Span{name: name, start: now()}
}

// Child starts a new span nested under s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := NewSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// ChildWindow attaches an already-ended child span covering the given
// window. It annotates logical sub-operations whose wall time was
// shared — e.g. the p and p' solves of one batched sweep.
func (s *Span) ChildWindow(name string, start time.Time, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: start, end: start.Add(d)}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr records a key/value attribute. Setting a key again
// overwrites the earlier value.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].value = value
			return
		}
	}
	s.attrs = append(s.attrs, attr{key, value})
}

// Event records a timestamped message on the span.
func (s *Span) Event(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, event{offset: now().Sub(s.start), msg: msg})
	s.mu.Unlock()
}

// End marks the span finished. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = now()
	}
	s.mu.Unlock()
}

// Ended reports whether End has been called. It is false for a nil
// span: a nil span is never started, so it can never finish.
func (s *Span) Ended() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.end.IsZero()
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns end−start, using the current time for a span still
// running.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return now().Sub(s.start)
	}
	return s.end.Sub(s.start)
}

// SpanJSON is the serialized form of a span tree; it is what a flight
// recorder entry embeds (/admin/flightrecorder, -flight-dir files).
type SpanJSON struct {
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationNS int64     `json:"duration_ns"`
	// Ended distinguishes a finished span from one still running when
	// the snapshot was taken (whose duration is the time so far). A
	// span that is still open in a final trace is a telemetry bug —
	// exactly what the spanend lint analyzer guards against.
	Ended    bool           `json:"ended"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Events   []EventJSON    `json:"events,omitempty"`
	Children []*SpanJSON    `json:"children,omitempty"`
}

// EventJSON is one serialized span event; the offset is relative to
// the span start.
type EventJSON struct {
	OffsetNS int64  `json:"offset_ns"`
	Msg      string `json:"msg"`
}

// Snapshot serializes the span tree rooted at s. A span still running
// is reported with its duration so far.
func (s *Span) Snapshot() *SpanJSON {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := &SpanJSON{
		Name:       s.name,
		Start:      s.start,
		DurationNS: int64(s.durationLocked()),
		Ended:      !s.end.IsZero(),
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.key] = a.value
		}
	}
	for _, e := range s.events {
		out.Events = append(out.Events, EventJSON{OffsetNS: int64(e.offset), Msg: e.msg})
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.Snapshot())
	}
	return out
}

func (s *Span) durationLocked() time.Duration {
	if s.end.IsZero() {
		return now().Sub(s.start)
	}
	return s.end.Sub(s.start)
}

// Find returns the first span in the tree (depth-first, preorder)
// with the given name, or nil.
func (t *SpanJSON) Find(name string) *SpanJSON {
	if t == nil {
		return nil
	}
	if t.Name == name {
		return t
	}
	for _, c := range t.Children {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// SpanNames returns the sorted set of distinct span names in the tree.
func (t *SpanJSON) SpanNames() []string {
	seen := map[string]bool{}
	var walk func(*SpanJSON)
	walk = func(n *SpanJSON) {
		if n == nil {
			return
		}
		seen[n.Name] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t)
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
