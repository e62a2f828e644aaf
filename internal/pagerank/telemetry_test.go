package pagerank

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"spammass/internal/graph"
	"spammass/internal/obs"
)

func traceTestGraph() *graph.Graph {
	// A small cycle with a chord: converges in a few dozen iterations.
	return graph.FromEdges(6, [][2]graph.NodeID{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}, {2, 5},
	})
}

// TestTraceEventOrdering checks the trace-stream invariants: Iteration
// is strictly increasing from 1, Elapsed is non-decreasing, and the
// stream length matches the recorded residuals and iteration count.
func TestTraceEventOrdering(t *testing.T) {
	g := traceTestGraph()
	var events []TraceEvent
	cfg := DefaultConfig()
	cfg.Trace = func(ev TraceEvent) { events = append(events, ev) }
	res, err := Jacobi(g, UniformJump(g.NumNodes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	for i, ev := range events {
		if ev.Iteration != i+1 {
			t.Fatalf("event %d has Iteration %d, want %d (strictly increasing from 1)", i, ev.Iteration, i+1)
		}
		if i > 0 && ev.Elapsed < events[i-1].Elapsed {
			t.Fatalf("event %d Elapsed %v < previous %v", i, ev.Elapsed, events[i-1].Elapsed)
		}
		if ev.Batch != 1 {
			t.Fatalf("event %d Batch = %d, want 1", i, ev.Batch)
		}
	}
	stats := res.Stats
	if len(stats.Residuals) != stats.Iterations {
		t.Fatalf("len(Residuals) = %d, Iterations = %d: must match", len(stats.Residuals), stats.Iterations)
	}
	if len(events) != stats.Iterations {
		t.Fatalf("%d trace events for %d iterations", len(events), stats.Iterations)
	}
	for i, ev := range events {
		if ev.Residual != stats.Residuals[i] {
			t.Fatalf("event %d residual %v != stats residual %v", i, ev.Residual, stats.Residuals[i])
		}
	}
}

// TestEdgesPerSecondGuard: a wall time below the clock resolution must
// leave the throughput at 0, never +Inf or NaN, and String() must stay
// printable.
func TestEdgesPerSecondGuard(t *testing.T) {
	s := &SolveStats{Algorithm: AlgoJacobi, Batch: 1, EdgesSwept: 12345, Workers: 1}
	s.finish(0)
	if s.EdgesPerSecond != 0 {
		t.Fatalf("EdgesPerSecond = %v for zero wall time, want 0", s.EdgesPerSecond)
	}
	line := s.String()
	if strings.Contains(line, "Inf") || strings.Contains(line, "NaN") {
		t.Fatalf("String() leaked a non-finite rate: %s", line)
	}
	s.finish(2 * time.Second)
	if s.EdgesPerSecond != 12345.0/2 {
		t.Fatalf("EdgesPerSecond = %v, want %v", s.EdgesPerSecond, 12345.0/2)
	}
}

// TestSolveObsIntegration checks that a solve with an attached obs
// context produces the pagerank.solve span (one event per iteration,
// matching the -v log lines) and consistent registry metrics.
func TestSolveObsIntegration(t *testing.T) {
	g := traceTestGraph()
	reg := obs.NewRegistry()
	root := obs.NewSpan("test")
	var logged []string
	octx := obs.NewContext(reg, root).WithLogf(func(f string, a ...any) {
		logged = append(logged, fmt.Sprintf(f, a...))
	})
	cfg := DefaultConfig()
	cfg.Obs = octx
	res, err := Jacobi(g, UniformJump(g.NumNodes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	tr := root.Snapshot()
	solve := tr.Find("pagerank.solve")
	if solve == nil {
		t.Fatalf("pagerank.solve span missing; got %v", tr.SpanNames())
	}
	if got := len(solve.Events); got != res.Stats.Iterations {
		t.Fatalf("%d span events for %d iterations", got, res.Stats.Iterations)
	}
	if solve.Attrs["iterations"] != res.Stats.Iterations {
		t.Fatalf("span iterations attr = %v, want %d", solve.Attrs["iterations"], res.Stats.Iterations)
	}
	if got := reg.Counter("pagerank.solves_total").Value(); got != 1 {
		t.Fatalf("pagerank.solves_total = %d, want 1", got)
	}
	if got := reg.Counter("pagerank.iterations_total").Value(); got != int64(res.Stats.Iterations) {
		t.Fatalf("pagerank.iterations = %d, want %d", got, res.Stats.Iterations)
	}
	if got := reg.Counter("pagerank.edges_swept_total").Value(); got != res.Stats.EdgesSwept {
		t.Fatalf("pagerank.edges_swept = %d, want %d", got, res.Stats.EdgesSwept)
	}
	if got := reg.Histogram("pagerank.solve_seconds").Count(); got != 1 {
		t.Fatalf("solve_seconds count = %d, want 1", got)
	}
	// The log sink receives the same rendered lines as the span.
	if len(logged) != len(solve.Events) {
		t.Fatalf("%d logged lines, %d span events: must match", len(logged), len(solve.Events))
	}
	for i := range logged {
		if logged[i] != solve.Events[i].Msg {
			t.Fatalf("log line %d %q diverges from span event %q", i, logged[i], solve.Events[i].Msg)
		}
	}
}
