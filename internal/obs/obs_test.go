package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("edges")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("edges") != c {
		t.Fatal("counter lookup did not return the cached handle")
	}
	g := r.Gauge("nodes")
	g.Set(10)
	g.Set(12.5)
	if got := g.Value(); got != 12.5 {
		t.Fatalf("gauge = %v, want 12.5", got)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(j))
				r.Histogram("h").Observe(1e-5)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if got, want := r.Histogram("h").Sum(), 8000*1e-5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("histogram sum = %v, want %v", got, want)
	}
}

// TestHistogramBoundsMonotone is a satellite invariant: the fixed
// log-scale bucket boundaries must be strictly increasing.
func TestHistogramBoundsMonotone(t *testing.T) {
	bounds := DefaultTimingBounds()
	if len(bounds) < 8 {
		t.Fatalf("only %d bounds", len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds[%d]=%v not greater than bounds[%d]=%v", i, bounds[i], i-1, bounds[i-1])
		}
	}
	if bounds[0] != 1e-6 {
		t.Fatalf("first bound = %v, want 1µs", bounds[0])
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramWith("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 1e6} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	if want := []int64{2, 1, 1, 1}; !reflect.DeepEqual(s.Counts, want) {
		t.Fatalf("counts = %v, want %v", s.Counts, want)
	}
	if len(s.Counts) != len(s.Bounds)+1 {
		t.Fatalf("len(Counts)=%d, len(Bounds)=%d: overflow bucket missing", len(s.Counts), len(s.Bounds))
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Context
	var sp *Span
	var reg *Registry
	// None of these may panic or record anything.
	c.Counter("x").Add(1)
	c.Gauge("x").Set(1)
	c.Histogram("x").Observe(1)
	c.Logf("dropped %d", 1)
	c.Span("x").End()
	sp.SetAttr("k", "v")
	sp.Event("e")
	sp.Child("c").End()
	sp.End()
	if sp.Snapshot() != nil || reg.Snapshot() != nil {
		t.Fatal("nil snapshot should be nil")
	}
	if c.In(NewSpan("s")) != nil {
		t.Fatal("In on nil context should stay nil")
	}
	if got := c.Span("x"); got != nil {
		t.Fatal("Span on nil context should be nil")
	}
}

func TestSpanTree(t *testing.T) {
	root := NewSpan("pipeline")
	load := root.Child("graph.load")
	load.SetAttr("nodes", 10)
	load.SetAttr("nodes", 12) // overwrite
	load.Event("first")
	load.Event("second")
	load.End()
	solve := root.Child("pagerank.solve")
	solve.End()
	root.End()

	tr := root.Snapshot()
	if len(tr.Children) != 2 {
		t.Fatalf("%d children, want 2", len(tr.Children))
	}
	got := tr.Find("graph.load")
	if got == nil {
		t.Fatal("graph.load span missing")
	}
	if got.Attrs["nodes"] != 12 {
		t.Fatalf("attr nodes = %v, want 12", got.Attrs["nodes"])
	}
	if len(got.Events) != 2 || got.Events[0].Msg != "first" || got.Events[1].Msg != "second" {
		t.Fatalf("events out of order: %+v", got.Events)
	}
	if got.Events[1].OffsetNS < got.Events[0].OffsetNS {
		t.Fatal("event offsets must be non-decreasing")
	}
	names := tr.SpanNames()
	if want := []string{"graph.load", "pagerank.solve", "pipeline"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("span names = %v, want %v", names, want)
	}
}

func TestContextRerooting(t *testing.T) {
	octx := NewContext(NewRegistry(), NewSpan("root"))
	stage := octx.Span("stage")
	inner := octx.In(stage)
	inner.Span("leaf").End()
	stage.End()
	octx.Root().End()

	tr := octx.Root().Snapshot()
	st := tr.Find("stage")
	if st == nil || len(st.Children) != 1 || st.Children[0].Name != "leaf" {
		t.Fatalf("leaf not nested under stage: %+v", tr)
	}

	prev := octx.SetRoot(stage)
	if prev.Name() != "root" {
		t.Fatalf("SetRoot returned %q, want root", prev.Name())
	}
	octx.Span("late").End()
	octx.SetRoot(prev)
	if octx.Root().Snapshot().Find("stage").Find("late") == nil {
		t.Fatal("span started after SetRoot should nest under stage")
	}
}

func TestWriteJSONLines(t *testing.T) {
	var buf bytes.Buffer
	err := WriteJSONLines(&buf, []DetectionRecord{
		{Node: 1, P: 2, PCore: 1, AbsMass: 1, RelMass: 0.5, Label: LabelGood},
		{Node: 2, P: 20, PCore: 0.2, AbsMass: 19.8, RelMass: 0.99, Label: LabelSpam},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	var rec DetectionRecord
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Label != LabelSpam || rec.Node != 2 {
		t.Fatalf("bad record: %+v", rec)
	}
}

func TestDeciles(t *testing.T) {
	if Deciles(nil) != nil {
		t.Fatal("empty deciles should be nil")
	}
	one := Deciles([]float64{7})
	for _, v := range one {
		if v != 7 {
			t.Fatalf("singleton deciles = %v", one)
		}
	}
	vals := make([]float64, 101)
	for i := range vals {
		vals[i] = float64(i)
	}
	d := Deciles(vals)
	if len(d) != 11 || d[0] != 0 || d[5] != 50 || d[10] != 100 {
		t.Fatalf("deciles = %v", d)
	}
	for i := 1; i < len(d); i++ {
		if d[i] < d[i-1] {
			t.Fatalf("deciles not monotone: %v", d)
		}
	}
}

func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pagerank.solves_total").Inc()
	d, err := StartDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	client := &http.Client{Timeout: 5 * time.Second}

	resp, err := client.Get("http://" + d.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "spammass") || !strings.Contains(string(body), "pagerank.solves_total") {
		t.Fatalf("/debug/vars missing registry: %s", body)
	}

	resp, err = client.Get("http://" + d.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", resp.StatusCode)
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	r.PublishExpvar("obs_test_registry")
	r.PublishExpvar("obs_test_registry") // second publish must not panic
	r2 := NewRegistry()
	r2.PublishExpvar("obs_test_registry") // name taken: no-op, no panic
}
