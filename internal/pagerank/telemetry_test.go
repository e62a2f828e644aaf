package pagerank

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"spammass/internal/graph"
	"spammass/internal/obs"
	"spammass/internal/testutil"
)

func traceTestGraph() *graph.Graph {
	// A small cycle with a chord: converges in a few dozen iterations.
	return graph.FromEdges(6, [][2]graph.NodeID{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}, {2, 5},
	})
}

// observedSolve is one SolveMany run under a fresh obs context: what
// it returned, the registry it fed, its pagerank.solve span and the
// lines its log sink received.
type observedSolve struct {
	res    []*Result
	err    error
	reg    *obs.Registry
	span   *obs.SpanJSON
	logged []string
}

func solveObserved(t *testing.T, g *graph.Graph, cfg Config, vs []Vector) observedSolve {
	t.Helper()
	return observeSolve(t, cfg, func(cfg Config) ([]*Result, error) {
		eng, err := NewEngine(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		return eng.SolveMany(vs)
	})
}

// observeSolve runs solve with cfg under a fresh obs context.
func observeSolve(t *testing.T, cfg Config, solve func(Config) ([]*Result, error)) observedSolve {
	t.Helper()
	out := observedSolve{reg: obs.NewRegistry()}
	root := obs.NewSpan("test")
	cfg.Obs = obs.NewContext(out.reg, root).WithLogf(func(f string, a ...any) {
		out.logged = append(out.logged, fmt.Sprintf(f, a...))
	})
	out.res, out.err = solve(cfg)
	root.End()
	if out.span = root.Snapshot().Find("pagerank.solve"); out.span == nil {
		t.Fatal("no pagerank.solve span")
	}
	return out
}

// eventPrefix is the rendered line of one iteration up to its
// elapsed= field, the part a test can predict.
func eventPrefix(alg Algorithm, batch, it int, residual float64) string {
	line := traceEvent{Algorithm: alg, Batch: batch, Iteration: it, Residual: residual}.String()
	return line[:strings.Index(line, " elapsed=")]
}

// checkEvents holds the span events and log lines of o to its stats:
// one event per recorded residual, in order and counting from 1, at
// non-decreasing offsets, each logged as exactly the event's text.
func checkEvents(t *testing.T, name string, o observedSolve) {
	t.Helper()
	st := o.res[0].Stats
	if len(o.span.Events) != len(st.Residuals) || len(o.logged) != len(st.Residuals) {
		t.Fatalf("%s: %d span events and %d log lines for %d residuals", name, len(o.span.Events), len(o.logged), len(st.Residuals))
	}
	for i, ev := range o.span.Events {
		if want := eventPrefix(st.Algorithm, st.Batch, i+1, st.Residuals[i]); !strings.HasPrefix(ev.Msg, want+" elapsed=") {
			t.Fatalf("%s: event %d is %q, want %q…", name, i, ev.Msg, want)
		}
		if i > 0 && ev.OffsetNS < o.span.Events[i-1].OffsetNS {
			t.Fatalf("%s: event %d at %dns, before event %d at %dns", name, i, ev.OffsetNS, i-1, o.span.Events[i-1].OffsetNS)
		}
		if o.logged[i] != ev.Msg {
			t.Fatalf("%s: log line %d %q diverges from span event %q", name, i, o.logged[i], ev.Msg)
		}
	}
}

// TestTraceEventOrdering checks the trace-stream invariants on a
// Jacobi solve: one span event and one log line per iteration, with
// Iteration strictly increasing from 1 and the residual that
// Stats.Residuals records for it, and as many residuals as iterations.
func TestTraceEventOrdering(t *testing.T) {
	g := traceTestGraph()
	o := solveObserved(t, g, DefaultConfig(), []Vector{UniformJump(g.NumNodes())})
	if o.err != nil {
		t.Fatal(o.err)
	}
	stats := o.res[0].Stats
	if stats.Iterations == 0 {
		t.Fatal("no iterations")
	}
	if len(stats.Residuals) != stats.Iterations {
		t.Fatalf("len(Residuals) = %d, Iterations = %d: must match", len(stats.Residuals), stats.Iterations)
	}
	checkEvents(t, "jacobi", o)
}

// TestSolveTailShared: both algorithms close a solve through the same
// tail. On a 3-column batch cut off at MaxIter 2 they feed the same
// five metrics, set the same span attributes, and report the worst
// non-converged column — the largest residual — with that column's
// own iteration count.
func TestSolveTailShared(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	g := testutil.RandomGraph(rng, 500, 5)
	n := g.NumNodes()
	vs := []Vector{
		ScaledCoreJump(n, []graph.NodeID{1, 2, 5, 8, 13, 21, 34}, 0.3),
		UniformJump(n),
		ScaledCoreJump(n, []graph.NodeID{3, 55, 89, 144, 233, 377}, 0.6),
	}
	metrics := func(o observedSolve) []string {
		snap := o.reg.Snapshot()
		var names []string
		for name := range snap.Counters {
			names = append(names, name)
		}
		for name := range snap.Histograms {
			names = append(names, name)
		}
		sort.Strings(names)
		return names
	}
	attrs := func(o observedSolve) []string {
		var keys []string
		for k := range o.span.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	want := []string{"pagerank.batch_vectors_total", "pagerank.edges_swept_total", "pagerank.iterations_total", "pagerank.solve_seconds", "pagerank.solves_total"}
	var attrKeys []string
	for _, alg := range []Algorithm{AlgoJacobi, AlgoGaussSouthwell} {
		o := solveObserved(t, g, Config{Epsilon: 1e-300, MaxIter: 2, Workers: 1, Algorithm: alg}, vs)
		var nc *ErrNotConverged
		if !errors.As(o.err, &nc) {
			t.Fatalf("%v: err = %v, want *ErrNotConverged", alg, o.err)
		}
		worst := 0
		for j, r := range o.res {
			if r.Converged {
				t.Fatalf("%v: column %d converged to ε = 1e-300", alg, j)
			}
			if r.Residual > o.res[worst].Residual {
				worst = j
			}
		}
		if nc.Column != worst || nc.Iterations != o.res[worst].Iterations || nc.Residual != o.res[worst].Residual || nc.Algorithm != alg {
			t.Errorf("%v: error names column %d (%d iterations, residual %v), want the worst column %d (%d, %v)",
				alg, nc.Column, nc.Iterations, nc.Residual, worst, o.res[worst].Iterations, o.res[worst].Residual)
		}
		if got := metrics(o); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: metrics %v, want %v", alg, got, want)
		}
		snap := o.reg.Snapshot()
		st := o.res[0].Stats
		if snap.Counters["pagerank.iterations_total"] != int64(st.Iterations) ||
			snap.Counters["pagerank.edges_swept_total"] != st.EdgesSwept ||
			snap.Counters["pagerank.batch_vectors_total"] != int64(len(vs)) ||
			snap.Counters["pagerank.solves_total"] != 1 || snap.Histograms["pagerank.solve_seconds"].Count != 1 {
			t.Errorf("%v: metrics %v do not match stats %v", alg, snap.Counters, st)
		}
		if attrKeys == nil {
			attrKeys = attrs(o)
		} else if got := attrs(o); !reflect.DeepEqual(got, attrKeys) {
			t.Errorf("%v: span attributes %v, Jacobi sets %v", alg, got, attrKeys)
		}
		if !o.span.Ended {
			t.Errorf("%v: pagerank.solve span left open", alg)
		}
		checkEvents(t, alg.String(), o)
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
