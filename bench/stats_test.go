package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(10) // 1..10
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {11, 2}, {0.1, 1},
	} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	// Nearest rank never interpolates: the answer is always a sample.
	if got := percentile([]float64{1, 100}, 50); got != 1 {
		t.Errorf("percentile({1,100}, 50) = %v, want the sample 1", got)
	}
}

func TestSupportedNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true},     // rank 90, 10 beyond
		{99, 90, false},     // rank 90, 9 beyond
		{100, 99, false},    // rank 99, 1 beyond
		{1000, 99, true},    // rank 990, 10 beyond
		{999, 99, false},    // rank 990, 9 beyond
		{20, 50, true},      // rank 10, 10 beyond
		{19, 50, false},     // rank 10, 9 beyond
		{10000, 99.9, true}, // rank 9990, 10 beyond
	} {
		if got := supported(tc.n, tc.p); got != tc.want {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestWindowedPercentileTakesMedianWindow(t *testing.T) {
	// Three 1-s windows of 100 operations at 100 µs each; the middle
	// window has a stall that owns its tail. The whole-phase p90 would
	// read the stall; the median window does not.
	var ts []timed
	for w := 0; w < 3; w++ {
		for i := 0; i < 100; i++ {
			lat := 100 * time.Microsecond
			if w == 1 && i >= 80 {
				lat = 50 * time.Millisecond
			}
			ts = append(ts, timed{end: time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond, lat: lat})
		}
	}
	if got := windowedPercentile(ts, 3*time.Second, 3, 90); got != 100 {
		t.Errorf("median-window p90 = %v µs, want 100", got)
	}
	if got := percentile(micros(ts), 95); got != 50000 {
		t.Errorf("whole-phase p95 = %v µs, want the stall (50000)", got)
	}
	// No window supports p99 with 100 samples each: fall back to the
	// whole phase (300 samples, still the nearest rank).
	if got, want := windowedPercentile(ts, 3*time.Second, 3, 99), percentile(micros(ts), 99); got != want {
		t.Errorf("unsupported windows: got %v, want whole-phase %v", got, want)
	}
	// An operation ending exactly at the phase end lands in the last
	// window, not past it.
	edge := []timed{{end: 3 * time.Second, lat: time.Millisecond}}
	if got := windowedPercentile(edge, 3*time.Second, 3, 50); got != 1000 {
		t.Errorf("edge sample: got %v, want 1000", got)
	}
}

func TestPacedStartDueTimeRule(t *testing.T) {
	t0 := time.Unix(1000, 0)
	due := t0.Add(10 * time.Millisecond)

	// The connection was still busy at the due time: the server made the
	// request late, so latency counts from due and no lateness is the
	// generator's.
	from, late := pacedStart(due, due.Add(3*time.Millisecond), due.Add(3*time.Millisecond))
	if !from.Equal(due) || late != 0 {
		t.Errorf("busy connection: from %v late %v, want from due, late 0", from.Sub(t0), late)
	}
	// The connection was idle and the timer fired late: latency counts
	// from the actual send, and the delay is the generator's.
	sent := due.Add(600 * time.Microsecond)
	from, late = pacedStart(due, due.Add(-5*time.Millisecond), sent)
	if !from.Equal(sent) || late != 600*time.Microsecond {
		t.Errorf("late timer: from %v late %v, want from sent, late 600µs", from.Sub(t0), late)
	}
	// Idle and on time.
	from, late = pacedStart(due, due.Add(-5*time.Millisecond), due)
	if !from.Equal(due) || late != 0 {
		t.Errorf("on time: from %v late %v", from.Sub(t0), late)
	}
	// Finishing exactly at the due time is not "busy".
	from, _ = pacedStart(due, due, sent)
	if !from.Equal(sent) {
		t.Errorf("previous reply exactly at due: from %v, want the send", from.Sub(t0))
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Trace: 1, Start: 0, End: 100},
		{ID: 2, Name: "a", Trace: 1, Parent: 1, Start: 10, End: 30},
		{ID: 3, Name: "b", Trace: 1, Parent: 1, Start: 25, End: 60}, // overlaps a by 5
		{ID: 4, Name: "b.inner", Trace: 1, Parent: 3, Start: 30, End: 40},
		{ID: 5, Name: "late", Trace: 1, Parent: 1, Start: 90, End: 120}, // runs past its parent
	}
	st := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100 - (20 + 30 + 10), // a covers 10–30, b adds 30–60, late adds 90–100
		2: 20,
		3: 35 - 10,
		4: 10,
		5: 30,
	}
	for id, w := range want {
		if st[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, st[id], w)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do(tr.newTrace(), 0, "x", func(id int) { ran = id == 0 })
	if !ran {
		t.Error("nil tracer must still run the function, with span ID 0")
	}
	live := newTracer()
	trace := live.newTrace()
	live.do(trace, 0, "outer", func(id int) {
		live.do(trace, id, "inner", func(int) { time.Sleep(time.Millisecond) })
	})
	if len(live.spans) != 2 || live.spans[1].Parent != live.spans[0].ID || live.spans[1].Trace != trace {
		t.Fatalf("spans = %+v", live.spans)
	}
	if live.duration(trace, "outer") < live.duration(trace, "inner") {
		t.Error("outer span shorter than the span it contains")
	}
	st := selfTimes(live.spans)
	if want := live.duration(trace, "outer") - live.duration(trace, "inner"); st[live.spans[0].ID] != want {
		t.Errorf("outer self time %v, want outer minus inner %v", st[live.spans[0].ID], want)
	}
}

func TestMedianOfEvenCount(t *testing.T) {
	// The mean of the two middle samples, as Python's statistics.median.
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
}
