package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spammass/internal/delta"
	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/obs"
	"spammass/internal/pagerank"
)

// fp builds a fingerprint whose dims are all proportional to v, for
// controlled drift injection.
func fp(v float64) *mass.Fingerprint {
	return &mass.Fingerprint{
		Nodes:           100,
		NodesAboveRho:   int(10 * v),
		Candidates:      int(5 * v),
		SpamFraction:    v / 2,
		TotalSpamMass:   v * 3,
		RelMassDeciles:  []float64{0, 0, 0, 0, 0, v / 4, 0, 0, 0, v / 3, v},
		SolveIterations: int(20 * v),
		EdgesSwept:      int64(1000 * v),
	}
}

// TestWatchdogExactlyOneAlert drives the watchdog with a stable
// baseline, injects one drifted epoch, then keeps feeding the drifted
// level: exactly one alert fires — the step change is absorbed into
// the window and becomes the new normal.
func TestWatchdogExactlyOneAlert(t *testing.T) {
	reg := obs.NewRegistry()
	w := NewWatchdog(WatchdogConfig{Window: 8, ZThreshold: 4, MinEpochs: 3, Obs: obs.NewContext(reg, nil)})

	var alerts []*DriftAlert
	epoch := int64(0)
	feed := func(v float64, n int) {
		for i := 0; i < n; i++ {
			epoch++
			if a := w.ObserveEpoch(epoch, fp(v)); a != nil {
				alerts = append(alerts, a)
			}
		}
	}
	feed(1.0, 5) // baseline
	feed(9.0, 4) // step change, then steady at the new level

	if len(alerts) != 1 {
		t.Fatalf("got %d alerts, want exactly 1: %+v", len(alerts), alerts)
	}
	a := alerts[0]
	if a.Epoch != 6 {
		t.Fatalf("alert at epoch %d, want 6 (the first drifted epoch)", a.Epoch)
	}
	if a.Z <= 4 {
		t.Fatalf("alert z = %v, want > threshold 4", a.Z)
	}
	if got := reg.Counter("serve.drift_alerts_total").Value(); got != 1 {
		t.Fatalf("serve.drift_alerts_total = %d, want 1", got)
	}
	// The flag gauge cleared once the new level became normal.
	if got := reg.Gauge("serve.drift_alert").Value(); got != 0 {
		t.Fatalf("serve.drift_alert = %v after settling, want 0", got)
	}
	st := w.Status()
	if st.Alerts != 1 || st.Degraded || st.LastAlert == nil || st.LastAlert.Epoch != 6 {
		t.Fatalf("status = %+v, want 1 settled alert at epoch 6", st)
	}
	if st.Epochs != 9 {
		t.Fatalf("status.Epochs = %d, want 9", st.Epochs)
	}
}

// TestWatchdogQuietPaths checks the no-alert paths: too little
// history, steady traffic, and nil receivers.
func TestWatchdogQuietPaths(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{MinEpochs: 3})
	for e := int64(1); e <= 2; e++ {
		if a := w.ObserveEpoch(e, fp(float64(e)*100)); a != nil {
			t.Fatalf("alert before MinEpochs of history: %+v", a)
		}
	}
	var nilW *Watchdog
	if nilW.ObserveEpoch(1, fp(1)) != nil || nilW.Status() != nil {
		t.Fatal("nil watchdog did something")
	}
	if w.ObserveEpoch(3, nil) != nil {
		t.Fatal("nil fingerprint alerted")
	}
}

// driftBuilder returns a BuildFunc that serves stable estimates for
// the first `stable` epochs and collapsed-core (relative mass ≈ 1)
// estimates afterwards, wiring the request-context obs into the
// solver so span trees stay coherent.
func driftBuilder(t *testing.T, h *graph.HostGraph, core []graph.NodeID, stable int64) BuildFunc {
	t.Helper()
	return func(ctx context.Context, prev *Snapshot, epoch int64) (*Snapshot, error) {
		solver := pagerank.DefaultConfig()
		solver.Obs = obs.RequestContext(ctx)
		est, err := mass.EstimateFromCore(h.Graph, core, mass.Options{Solver: solver, Gamma: 0.85})
		if err != nil {
			return nil, err
		}
		if epoch > stable {
			// Simulate a detection-behavior shift: the good-core
			// contribution collapses, so every node's relative mass
			// jumps toward 1.
			pc := est.PCore.Clone()
			pc.Scale(1e-6)
			est = mass.Derive(est.P, pc, est.Damping)
		}
		dcfg := mass.DetectConfig{RelMassThreshold: 0.9, ScaledPageRankThreshold: 0.5}
		return NewSnapshot(h, est, SnapshotConfig{Detect: dcfg, Gamma: 0.85, Core: core}, epoch)
	}
}

// TestDriftEndToEnd refreshes through the real estimator, injects a
// drifted epoch, and proves the alert raises the metric and the
// /readyz?verbose detail while /v1/* keeps answering 200.
func TestDriftEndToEnd(t *testing.T) {
	h := testHostGraph(t)
	reg := obs.NewRegistry()
	octx := obs.NewContext(reg, nil)
	w := NewWatchdog(WatchdogConfig{Window: 8, ZThreshold: 4, MinEpochs: 3, Obs: octx})
	st := NewStore()
	ref := NewRefresher(st, driftBuilder(t, h, []graph.NodeID{0, 1}, 4),
		RefresherConfig{Obs: octx, Watchdog: w})
	srv := NewServer(st, ref, Config{Obs: octx, Watchdog: w})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	lookup200 := func() {
		t.Helper()
		if code := getJSON(t, ts.URL+"/v1/host/a.example", nil); code != http.StatusOK {
			t.Fatalf("/v1/host during drift: status %d, want 200", code)
		}
	}
	for i := 0; i < 4; i++ { // stable epochs 1–4
		if err := ref.Refresh(context.Background()); err != nil {
			t.Fatalf("stable refresh %d: %v", i+1, err)
		}
		lookup200()
	}
	if got := reg.Counter("serve.drift_alerts_total").Value(); got != 0 {
		t.Fatalf("alerts after stable epochs = %d, want 0", got)
	}
	for i := 0; i < 3; i++ { // drifted epochs 5–7
		if err := ref.Refresh(context.Background()); err != nil {
			t.Fatalf("drifted refresh: %v", err)
		}
		lookup200()
	}
	if got := reg.Counter("serve.drift_alerts_total").Value(); got != 1 {
		t.Fatalf("serve.drift_alerts_total = %d, want exactly 1", got)
	}

	// readyz stays 200; the degradation lives in the verbose detail.
	var body struct {
		Status string          `json:"status"`
		Drift  *WatchdogStatus `json:"drift"`
	}
	if code := getJSON(t, ts.URL+"/readyz?verbose", &body); code != http.StatusOK {
		t.Fatalf("readyz?verbose status %d, want 200", code)
	}
	if body.Drift == nil || body.Drift.Alerts != 1 || body.Drift.LastAlert == nil {
		t.Fatalf("readyz drift detail = %+v, want 1 alert with detail", body.Drift)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("plain readyz status %d, want 200", code)
	}
}

// TestServeMetricsEndpoint scrapes GET /metrics off the serve mux and
// validates it under the strict parser.
func TestServeMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	_, _, ts := newTestServerObs(t, Config{Obs: obs.NewContext(reg, nil)})
	getJSON(t, ts.URL+"/v1/host/a.example", nil) // generate a request metric
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("content type %q", ct)
	}
	fams, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("strict parse of /metrics: %v", err)
	}
	found := false
	for _, f := range fams {
		if f.Name == "serve_requests_total" {
			found = true
			if f.Type != "counter" || f.Samples[0].Value < 1 {
				t.Fatalf("serve_requests_total family wrong: %+v", f)
			}
		}
	}
	if !found {
		t.Fatalf("serve_requests_total not exposed; families: %d", len(fams))
	}
}

// newTestServerObs is newTestServer, sharing the Config's obs context
// with the refresher.
func newTestServerObs(t *testing.T, cfg Config) (*Server, *Store, *httptest.Server) {
	t.Helper()
	h := testHostGraph(t)
	st := NewStore()
	ref := NewRefresher(st, estimatorBuilder(h, []graph.NodeID{0, 1}, pagerank.DefaultConfig()),
		RefresherConfig{Obs: cfg.Obs, Recorder: cfg.Recorder, Watchdog: cfg.Watchdog, Flight: cfg.Flight})
	if err := ref.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, ref, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, st, ts
}

// TestTimeseriesEndpoint checks the history endpoint: 501 without a
// recorder, name listing, per-publish points, and the since filter.
func TestTimeseriesEndpoint(t *testing.T) {
	_, _, bare := newTestServerObs(t, Config{})
	if code := getJSON(t, bare.URL+"/admin/timeseries", nil); code != http.StatusNotImplemented {
		t.Fatalf("no-recorder timeseries status %d, want 501", code)
	}

	reg := obs.NewRegistry()
	octx := obs.NewContext(reg, nil)
	rec := obs.NewRecorder(reg, obs.RecorderConfig{Capacity: 32})
	_, _, ts := newTestServerObs(t, Config{Obs: octx, Recorder: rec})

	var names struct {
		Metrics []string `json:"metrics"`
	}
	if code := getJSON(t, ts.URL+"/admin/timeseries", &names); code != http.StatusOK {
		t.Fatalf("name listing status %d", code)
	}
	if len(names.Metrics) == 0 {
		t.Fatalf("no series names after a publish; recorder should sample per publish")
	}
	var series TimeseriesResponse
	if code := getJSON(t, ts.URL+"/admin/timeseries?metric=serve.snapshot_epoch", &series); code != http.StatusOK {
		t.Fatalf("series status %d", code)
	}
	if len(series.Points) != 1 || series.Points[0].Value != 1 {
		t.Fatalf("snapshot_epoch series = %+v, want one point at epoch 1", series.Points)
	}
	// A refresh adds a publish-time point.
	if code := getJSON(t, ts.URL+"/admin/timeseries?metric=serve.snapshot_epoch&since="+
		fmt.Sprint(time.Now().Add(-time.Hour).Unix()), &series); code != http.StatusOK {
		t.Fatalf("since series status %d", code)
	}
	if code := postJSON(t, ts.URL+"/admin/refresh?wait=1", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("refresh status %d", code)
	}
	if code := getJSON(t, ts.URL+"/admin/timeseries?metric=serve.snapshot_epoch", &series); code != http.StatusOK {
		t.Fatalf("series status %d", code)
	}
	if len(series.Points) != 2 || series.Points[1].Value != 2 {
		t.Fatalf("after refresh, snapshot_epoch series = %+v, want two points ending at 2", series.Points)
	}
	// Bad since parameter.
	if code := getJSON(t, ts.URL+"/admin/timeseries?metric=x&since=notatime", nil); code != http.StatusBadRequest {
		t.Fatalf("bad since status %d, want 400", code)
	}
}

// TestTracingHeadersAndFlight checks the production tracing path: the
// trace headers on hot requests, the admin span tree threading through
// refresher and solver, and the flight recorder pickup.
func TestTracingHeadersAndFlight(t *testing.T) {
	h := testHostGraph(t)
	reg := obs.NewRegistry()
	octx := obs.NewContext(reg, nil)
	fl := obs.NewFlightRecorder(obs.FlightConfig{})
	st := NewStore()
	ref := NewRefresher(st, driftBuilder(t, h, []graph.NodeID{0, 1}, 1<<40),
		RefresherConfig{Obs: octx, Flight: fl})
	if err := ref.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, ref, Config{Obs: octx, Tracing: true, Flight: fl})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Hot path: trace headers present, flight picks up the request
	// (empty slowest set — everything qualifies).
	resp, err := http.Get(ts.URL + "/v1/host/a.example")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	hotTID := resp.Header.Get("X-Trace-Id")
	if len(hotTID) != 32 {
		t.Fatalf("X-Trace-Id = %q, want 32 hex chars", hotTID)
	}
	tp := resp.Header.Get("Traceparent")
	if len(tp) != len("00-")+32+len("-")+16+len("-01") || tp[:3] != "00-" || tp[3:35] != hotTID {
		t.Fatalf("traceparent %q does not carry trace ID %q", tp, hotTID)
	}

	// Admin path: one coherent span tree request → refresh → solver.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/admin/refresh?wait=1", nil)
	aresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	aresp.Body.Close()
	adminTID := aresp.Header.Get("X-Trace-Id")
	if len(adminTID) != 32 {
		t.Fatalf("admin X-Trace-Id = %q", adminTID)
	}

	var snap obs.FlightSnapshot
	if code := getJSON(t, ts.URL+"/admin/flightrecorder", &snap); code != http.StatusOK {
		t.Fatalf("flightrecorder status %d", code)
	}
	var admin *obs.FlightEntry
	sawHot := false
	for i := range snap.Slowest {
		e := &snap.Slowest[i]
		if e.TraceID == adminTID {
			admin = e
		}
		if e.TraceID == hotTID {
			sawHot = true
		}
	}
	if !sawHot {
		t.Fatalf("hot request %s not in flight recorder: %+v", hotTID, snap.Slowest)
	}
	if admin == nil {
		t.Fatalf("admin request %s not in flight recorder", adminTID)
	}
	if admin.Trace == nil {
		t.Fatal("admin flight entry carries no span tree")
	}
	refreshSpan := admin.Trace.Find("serve.refresh")
	if refreshSpan == nil {
		t.Fatalf("admin span tree has no serve.refresh child: %+v", admin.Trace)
	}
	solve := admin.Trace.Find("pagerank.solve")
	if solve == nil {
		t.Fatal("solver span missing from admin trace: refresh did not thread the request context")
	}
	if got := solve.Attrs["trace_id"]; got != adminTID {
		t.Fatalf("solver span trace_id = %v, want %s", got, adminTID)
	}

	// 501 when no flight recorder is configured.
	_, _, bare := newTestServerObs(t, Config{})
	if code := getJSON(t, bare.URL+"/admin/flightrecorder", nil); code != http.StatusNotImplemented {
		t.Fatalf("no-flight status %d, want 501", code)
	}
}

// TestGeneratorSpansJoinAdminTraces wires the server the way
// spamserver does — DefaultGenerator behind the full refresh and the
// delta path, a running Run loop, tracing and a flight recorder — and
// checks that each synchronous admin request's flight tree holds its
// generation's solve: pagerank.solve under serve.refresh for
// POST /admin/refresh?wait=1 and under serve.delta_apply for
// POST /admin/delta?wait=1, stamped with the request's trace ID.
// Unlike driftBuilder, nothing here threads ctx into a solver config
// by hand.
func TestGeneratorSpansJoinAdminTraces(t *testing.T) {
	h := testHostGraph(t)
	gen := DefaultGenerator()
	reg := obs.NewRegistry()
	octx := obs.NewContext(reg, nil)
	fl := obs.NewFlightRecorder(obs.FlightConfig{})
	st := NewStore()
	ref := NewRefresher(st, coreBuilder(h, []graph.NodeID{0, 1}, gen),
		RefresherConfig{ApplyDelta: gen.Delta, Obs: octx, Flight: fl})
	if err := ref.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	startRun(t, ref)
	ts := httptest.NewServer(NewServer(st, ref, Config{Obs: octx, Tracing: true, Flight: fl}).Handler())
	defer ts.Close()

	add := deltaText(t, &delta.Batch{Ops: []delta.Op{delta.AddEdgeOp("b.example", "e.example")}})
	for _, c := range []struct{ path, body, parent string }{
		{"/admin/refresh?wait=1", "", "serve.refresh"},
		{"/admin/delta?wait=1", add, "serve.delta_apply"},
	} {
		resp, err := http.Post(ts.URL+c.path, "text/plain", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d, want 200", c.path, resp.StatusCode)
		}
		tid := resp.Header.Get("X-Trace-Id")
		var snap obs.FlightSnapshot
		if code := getJSON(t, ts.URL+"/admin/flightrecorder", &snap); code != http.StatusOK {
			t.Fatalf("flightrecorder status %d", code)
		}
		var entry *obs.FlightEntry
		for i := range snap.Slowest {
			if snap.Slowest[i].TraceID == tid {
				entry = &snap.Slowest[i]
			}
		}
		if entry == nil || entry.Trace == nil {
			t.Fatalf("POST %s (trace %s): no flight entry with a span tree", c.path, tid)
		}
		parent := entry.Trace.Find(c.parent)
		if parent == nil {
			t.Fatalf("POST %s: flight tree has no %s span: %v", c.path, c.parent, entry.Trace.SpanNames())
		}
		solve := parent.Find("pagerank.solve")
		if solve == nil {
			t.Fatalf("POST %s: no pagerank.solve under %s (spans %v): the generation's solve left the request's trace",
				c.path, c.parent, entry.Trace.SpanNames())
		}
		if got := solve.Attrs["trace_id"]; got != tid {
			t.Fatalf("POST %s: pagerank.solve trace_id = %v, want %s", c.path, got, tid)
		}
	}
	if got := reg.Gauge("pagerank.solve_iterations").Value(); got <= 0 {
		t.Errorf("pagerank.solve_iterations = %v after three published solves, want > 0", got)
	}
}

// TestRefreshFailureFlightDump forces a failed refresh and checks the
// flight entry plus the on-disk autopsy file.
func TestRefreshFailureFlightDump(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	fl := obs.NewFlightRecorder(obs.FlightConfig{})
	st := NewStore()
	boom := func(ctx context.Context, prev *Snapshot, epoch int64) (*Snapshot, error) {
		return nil, fmt.Errorf("input reload exploded")
	}
	ref := NewRefresher(st, boom, RefresherConfig{
		Obs: obs.NewContext(reg, nil), Flight: fl, FlightDir: dir,
	})
	if err := ref.Refresh(context.Background()); err == nil {
		t.Fatal("refresh unexpectedly succeeded")
	}
	snap := fl.Snapshot()
	if len(snap.Errors) != 1 {
		t.Fatalf("flight errors = %d, want 1", len(snap.Errors))
	}
	e := snap.Errors[0]
	if e.Kind != "refresh" || !e.Err || e.Trace == nil || !e.Trace.Ended {
		t.Fatalf("refresh flight entry = %+v, want ended refresh span tree", e)
	}
	path := filepath.Join(dir, "flight-epoch1.json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("autopsy file not written: %v", err)
	}
}
