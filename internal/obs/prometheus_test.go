package obs

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// findFamily returns the parsed family with the given name, or nil.
func findFamily(fams []PromFamily, name string) *PromFamily {
	for i := range fams {
		if fams[i].Name == name {
			return &fams[i]
		}
	}
	return nil
}

// TestPrometheusRoundTrip renders a populated registry and re-parses
// it with the strict parser: every metric must come back with its
// value, and the histogram must satisfy the cumulative/+Inf/_sum
// invariants the parser enforces.
func TestPrometheusRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve.requests_total").Add(42)
	reg.Counter("pagerank.edges_swept_total").Add(1e6)
	reg.Gauge("serve.snapshot_epoch").Set(7)
	reg.Gauge("mass.gamma").Set(0.57721)
	h := reg.Histogram("serve.request_seconds")
	for _, v := range []float64{1e-5, 3e-4, 0.02, 0.02, 1.5, 2000} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	fams, err := ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("strict parser rejected exposition: %v\n%s", err, b.String())
	}

	// Counters: dotted registry names sanitize to underscores.
	cf := findFamily(fams, "serve_requests_total")
	if cf == nil || cf.Type != "counter" {
		t.Fatalf("serve_requests_total missing or wrong type: %+v", cf)
	}
	if got := cf.Samples[0].Value; got != 42 {
		t.Fatalf("serve_requests_total = %v, want 42", got)
	}
	gf := findFamily(fams, "mass_gamma")
	if gf == nil || gf.Type != "gauge" {
		t.Fatalf("mass_gamma missing or wrong type: %+v", gf)
	}
	if got := gf.Samples[0].Value; got != 0.57721 {
		t.Fatalf("mass_gamma = %v, want 0.57721", got)
	}

	// Histogram: _count and _sum match the registry, +Inf bucket
	// present (validateHistogramFamily already checked cumulativeness
	// and +Inf == _count; spot-check values here).
	hf := findFamily(fams, "serve_request_seconds")
	if hf == nil || hf.Type != "histogram" {
		t.Fatalf("serve_request_seconds missing or wrong type: %+v", hf)
	}
	var gotCount, gotSum, infBucket float64
	sawInf := false
	for _, s := range hf.Samples {
		switch s.Name {
		case "serve_request_seconds_count":
			gotCount = s.Value
		case "serve_request_seconds_sum":
			gotSum = s.Value
		case "serve_request_seconds_bucket":
			if s.Labels["le"] == "+Inf" {
				sawInf = true
				infBucket = s.Value
			}
		}
	}
	if gotCount != 6 {
		t.Fatalf("histogram _count = %v, want 6", gotCount)
	}
	if math.Abs(gotSum-h.Sum()) > 1e-12 {
		t.Fatalf("histogram _sum = %v, want %v", gotSum, h.Sum())
	}
	if !sawInf || infBucket != 6 {
		t.Fatalf("+Inf bucket = %v (present=%v), want 6", infBucket, sawInf)
	}
}

// TestPrometheusEmptyRegistry checks that an empty registry renders
// an empty — but still parseable — exposition, as does a nil one.
func TestPrometheusEmptyRegistry(t *testing.T) {
	var b strings.Builder
	if err := NewRegistry().WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus empty: %v", err)
	}
	if b.Len() != 0 {
		t.Fatalf("empty registry rendered %q, want empty", b.String())
	}
	fams, err := ParsePrometheus(strings.NewReader(""))
	if err != nil || len(fams) != 0 {
		t.Fatalf("empty exposition: fams=%v err=%v", fams, err)
	}
	var nilReg *Registry
	if err := nilReg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus nil registry: %v", err)
	}
}

// TestPrometheusNameSanitation pins the name mapping rules.
func TestPrometheusNameSanitation(t *testing.T) {
	cases := []struct{ in, want string }{
		{"serve.requests_total", "serve_requests_total"},
		{"already_ok_total", "already_ok_total"},
		{"has space/and-dash", "has_space_and_dash"},
		{"9starts_with_digit", "_9starts_with_digit"},
		{"", "_"},
		{"colons:are:legal", "colons:are:legal"},
	}
	for _, c := range cases {
		if got := PrometheusName(c.in); got != c.want {
			t.Errorf("PrometheusName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestPrometheusLabelEscaping round-trips an le label through render
// and parse, and checks escapeLabelValue directly on the hostile
// characters.
func TestPrometheusLabelEscaping(t *testing.T) {
	if got := escapeLabelValue("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Fatalf("escapeLabelValue = %q", got)
	}
	// A parsed label value must invert the escaping.
	s, err := parseSampleLine(`m_total{l="a\\b\"c\nd"} 1`)
	if err != nil {
		t.Fatalf("parseSampleLine: %v", err)
	}
	if s.Labels["l"] != "a\\b\"c\nd" {
		t.Fatalf("unescaped label = %q", s.Labels["l"])
	}
}

// TestPrometheusStrictParserRejects feeds the parser known-bad
// expositions; each must fail.
func TestPrometheusStrictParserRejects(t *testing.T) {
	bad := map[string]string{
		"sample without TYPE": "orphan_total 1\n",
		"duplicate TYPE":      "# TYPE a_total counter\n# TYPE a_total counter\na_total 1\n",
		"duplicate sample":    "# TYPE a_total counter\na_total 1\na_total 2\n",
		"negative counter":    "# TYPE a_total counter\na_total -1\n",
		"bad metric name":     "# TYPE 0bad counter\n0bad 1\n",
		"bad value":           "# TYPE a_total counter\na_total pickles\n",
		"histogram no +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 0.5\nh_count 1\n",
		"histogram non-cumulative": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"histogram count mismatch": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
		"histogram missing sum": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 3\nh_count 3\n",
		"unterminated labels": "# TYPE a_total counter\na_total{l=\"x 1\n",
	}
	for name, text := range bad {
		if _, err := ParsePrometheus(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parser accepted\n%s", name, text)
		}
	}
}

// TestPrometheusHandler scrapes the HTTP handler and checks the
// content type plus a strict parse of the body.
func TestPrometheusHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("scrapes_total").Inc()
	srv := httptest.NewServer(PrometheusHandler(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, PrometheusContentType)
	}
	fams, err := ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("parse scrape: %v", err)
	}
	if f := findFamily(fams, "scrapes_total"); f == nil || f.Samples[0].Value != 1 {
		t.Fatalf("scrapes_total not in scrape: %+v", fams)
	}
}

// TestDebugServerMetrics checks the /metrics route on the debug
// server serves the same exposition.
func TestDebugServerMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("debug_scrapes_total").Add(3)
	d, err := StartDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("StartDebug: %v", err)
	}
	defer d.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + d.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	fams, err := ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("parse debug scrape: %v", err)
	}
	if f := findFamily(fams, "debug_scrapes_total"); f == nil || f.Samples[0].Value != 3 {
		t.Fatalf("debug_scrapes_total not served: %+v", fams)
	}
}

// TestTraceIDFormat pins the traceparent-compatible ID shapes.
func TestTraceIDFormat(t *testing.T) {
	id := NewTraceID()
	if len(id) != 32 {
		t.Fatalf("trace ID %q has length %d, want 32", id, len(id))
	}
	sid := NewSpanID()
	if len(sid) != 16 {
		t.Fatalf("span ID %q has length %d, want 16", sid, len(sid))
	}
	for _, c := range id + sid {
		if !((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) {
			t.Fatalf("non-hex rune %q in IDs", c)
		}
	}
	if NewTraceID() == id {
		t.Fatalf("consecutive trace IDs collided")
	}
}

// TestContextTraceID checks the trace ID survives derived contexts.
func TestContextTraceID(t *testing.T) {
	octx := NewContext(NewRegistry(), nil).WithTraceID("abc123")
	if got := octx.TraceID(); got != "abc123" {
		t.Fatalf("TraceID = %q", got)
	}
	sp := NewSpan("op")
	defer sp.End()
	if got := octx.In(sp).TraceID(); got != "abc123" {
		t.Fatalf("In lost trace ID: %q", got)
	}
	if got := octx.WithLogf(func(string, ...any) {}).TraceID(); got != "abc123" {
		t.Fatalf("WithLogf lost trace ID: %q", got)
	}
	var nilCtx *Context
	if nilCtx.WithTraceID("x") != nil {
		t.Fatalf("WithTraceID on nil context allocated")
	}
	if nilCtx.TraceID() != "" {
		t.Fatalf("nil context has trace ID")
	}
}

// TestRequestContextHelpers checks the context.Context smuggling.
func TestRequestContextHelpers(t *testing.T) {
	octx := NewContext(NewRegistry(), nil).WithTraceID("deadbeef")
	ctx := WithRequest(t.Context(), octx)
	if got := RequestContext(ctx); got != octx {
		t.Fatalf("RequestContext = %p, want %p", got, octx)
	}
	if RequestContext(t.Context()) != nil {
		t.Fatalf("RequestContext without attachment is non-nil")
	}
	if RequestContext(nil) != nil {
		t.Fatalf("RequestContext(nil) is non-nil")
	}
	if got := WithRequest(ctx, nil); got != ctx {
		t.Fatalf("WithRequest(nil octx) rewrapped the context")
	}
	own := NewContext(NewRegistry(), nil)
	if got := RequestOr(ctx, own); got != octx {
		t.Fatalf("RequestOr with an attachment = %p, want the request's %p", got, octx)
	}
	if got := RequestOr(t.Context(), own); got != own {
		t.Fatalf("RequestOr without an attachment = %p, want the fallback %p", got, own)
	}
}
