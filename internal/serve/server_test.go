package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/obs"
	"spammass/internal/pagerank"
)

// newTestServer publishes one real snapshot and returns the server,
// its store, and a live httptest endpoint.
func newTestServer(t *testing.T, cfg Config) (*Server, *Store, *httptest.Server) {
	t.Helper()
	h := testHostGraph(t)
	st := NewStore()
	ref := NewRefresher(st, estimatorBuilder(h, []graph.NodeID{0, 1}, pagerank.DefaultConfig()), RefresherConfig{})
	if err := ref.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, ref, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, st, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s content type %q", url, ct)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding body: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

func TestHostEndpoint(t *testing.T) {
	_, st, ts := newTestServer(t, Config{})
	var rec HostRecord
	if code := getJSON(t, ts.URL+"/v1/host/a.example", &rec); code != http.StatusOK {
		t.Fatalf("known host status %d", code)
	}
	want, _ := st.Load().Lookup("a.example")
	if rec != want {
		t.Fatalf("served record %+v != snapshot record %+v", rec, want)
	}
	var eb errorBody
	if code := getJSON(t, ts.URL+"/v1/host/nosuch.example", &eb); code != http.StatusNotFound {
		t.Fatalf("unknown host status %d", code)
	}
	if eb.Error == "" {
		t.Fatal("404 body carries no error message")
	}
}

func TestHostEndpointNoSnapshot(t *testing.T) {
	srv := NewServer(NewStore(), nil, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code := getJSON(t, ts.URL+"/v1/host/a.example", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("empty-store lookup status %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("empty-store readyz status %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz status %d, want 200 regardless of snapshot", code)
	}
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding body: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

func TestBatchEndpoint(t *testing.T) {
	_, st, ts := newTestServer(t, Config{MaxBatch: 3})
	var resp BatchResponse
	code := postJSON(t, ts.URL+"/v1/batch",
		BatchRequest{Hosts: []string{"b.example", "nosuch.example", "d.example"}}, &resp)
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if resp.Epoch != st.Epoch() || resp.Misses != 1 || len(resp.Records) != 3 {
		t.Fatalf("batch response: %+v", resp)
	}
	if resp.Records[1] != nil {
		t.Fatal("unknown host produced a record instead of null")
	}
	want, _ := st.Load().Lookup("b.example")
	if resp.Records[0] == nil || *resp.Records[0] != want {
		t.Fatalf("batch record %+v, want %+v", resp.Records[0], want)
	}
	if code := postJSON(t, ts.URL+"/v1/batch", BatchRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch status %d", code)
	}
	big := BatchRequest{Hosts: []string{"a", "b", "c", "d"}}
	if code := postJSON(t, ts.URL+"/v1/batch", big, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status %d", code)
	}
	resp2, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status %d", resp2.StatusCode)
	}
}

func TestTopEndpoint(t *testing.T) {
	_, st, ts := newTestServer(t, Config{})
	var resp TopResponse
	if code := getJSON(t, ts.URL+"/v1/top?metric=pagerank&n=2", &resp); code != http.StatusOK {
		t.Fatalf("top status %d", code)
	}
	if resp.Metric != MetricPageRank || len(resp.Records) != 2 || resp.Epoch != st.Epoch() {
		t.Fatalf("top response: %+v", resp)
	}
	if resp.Records[0].PageRank < resp.Records[1].PageRank {
		t.Fatal("top ranking not descending")
	}
	resp = TopResponse{}
	if code := getJSON(t, ts.URL+"/v1/top", &resp); code != http.StatusOK || resp.Metric != MetricRelMass {
		t.Fatalf("default top: code %d metric %q", code, resp.Metric)
	}
	if code := getJSON(t, ts.URL+"/v1/top?metric=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("bogus metric status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/top?n=-3", nil); code != http.StatusBadRequest {
		t.Fatalf("negative n status %d", code)
	}
}

// TestTopEndpointMatchesOracleBytes holds GET /v1/top to the full-sort
// oracle byte for byte on the webgen fixture: the response body must be
// exactly the JSON of the oracle's prefix, for every metric, at n from
// 1 to past MaxTop (clamped).
func TestTopEndpointMatchesOracleBytes(t *testing.T) {
	snap := webFixture(t).snapshot(t, 3)
	st := NewStore()
	if err := st.Publish(snap); err != nil {
		t.Fatal(err)
	}
	handler := NewServer(st, nil, Config{}).Handler()
	for _, metric := range []string{MetricRelMass, MetricAbsMass, MetricPageRank} {
		oracle := rankOracle(snap, metric)
		if len(oracle) != DefaultMaxTop {
			t.Fatalf("%s oracle has %d records, want MaxTop=%d", metric, len(oracle), DefaultMaxTop)
		}
		for _, n := range []int{1, 100, 1000, 5000} {
			rr := httptest.NewRecorder()
			handler.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/top?metric=%s&n=%d", metric, n), nil))
			if rr.Code != http.StatusOK {
				t.Fatalf("top %s n=%d: status %d", metric, n, rr.Code)
			}
			want, err := json.Marshal(TopResponse{Epoch: 3, Metric: metric, Records: oracle[:min(n, len(oracle))]})
			if err != nil {
				t.Fatal(err)
			}
			if want = append(want, '\n'); !bytes.Equal(rr.Body.Bytes(), want) {
				t.Errorf("top %s n=%d: body (%d bytes) differs from the oracle's JSON (%d bytes)",
					metric, n, rr.Body.Len(), len(want))
			}
		}
	}
}

func TestReadyzAndStatus(t *testing.T) {
	_, st, ts := newTestServer(t, Config{})
	var ready struct {
		Status string  `json:"status"`
		Epoch  int64   `json:"epoch"`
		Age    float64 `json:"age_seconds"`
	}
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusOK {
		t.Fatalf("readyz status %d", code)
	}
	if ready.Status != "ready" || ready.Epoch != st.Epoch() || ready.Age < 0 {
		t.Fatalf("readyz body: %+v", ready)
	}
	var status StatusResponse
	if code := getJSON(t, ts.URL+"/admin/status", &status); code != http.StatusOK {
		t.Fatalf("status status %d", code)
	}
	if status.Epoch != st.Epoch() || status.Hosts != 5 || status.Refreshes != 1 || status.RefreshFailures != 0 {
		t.Fatalf("status body: %+v", status)
	}
}

func TestRefreshEndpoint(t *testing.T) {
	_, st, ts := newTestServer(t, Config{})
	before := st.Epoch()
	var out struct {
		Status string `json:"status"`
		Epoch  int64  `json:"epoch"`
	}
	if code := postJSON(t, ts.URL+"/admin/refresh?wait=1", nil, &out); code != http.StatusOK {
		t.Fatalf("refresh?wait=1 status %d", code)
	}
	if out.Epoch != before+1 || st.Epoch() != before+1 {
		t.Fatalf("synchronous refresh: body epoch %d, store epoch %d, want %d", out.Epoch, st.Epoch(), before+1)
	}
}

func TestRefreshEndpointAsync(t *testing.T) {
	h := testHostGraph(t)
	st := NewStore()
	ref := NewRefresher(st, estimatorBuilder(h, []graph.NodeID{0, 1}, pagerank.DefaultConfig()), RefresherConfig{})
	if err := ref.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ref.Run(ctx)
	ts := httptest.NewServer(NewServer(st, ref, Config{}).Handler())
	defer ts.Close()
	if code := postJSON(t, ts.URL+"/admin/refresh", nil, nil); code != http.StatusAccepted {
		t.Fatalf("async refresh status %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.Epoch() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("async refresh never published")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRefreshEndpointFailure(t *testing.T) {
	h := testHostGraph(t)
	st := NewStore()
	good := estimatorBuilder(h, []graph.NodeID{0, 1}, pagerank.DefaultConfig())
	fail := false
	ref := NewRefresher(st, func(ctx context.Context, prev *Snapshot, epoch int64) (*Snapshot, error) {
		if fail {
			return nil, errors.New("crawler offline")
		}
		return good(ctx, prev, epoch)
	}, RefresherConfig{})
	if err := ref.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(st, ref, Config{}).Handler())
	defer ts.Close()
	fail = true
	var eb errorBody
	if code := postJSON(t, ts.URL+"/admin/refresh?wait=1", nil, &eb); code != http.StatusInternalServerError {
		t.Fatalf("failed refresh status %d", code)
	}
	if !strings.Contains(eb.Error, "crawler offline") {
		t.Fatalf("failed refresh error body: %q", eb.Error)
	}
	// Reads keep working against the retained snapshot.
	if code := getJSON(t, ts.URL+"/v1/host/a.example", nil); code != http.StatusOK {
		t.Fatalf("lookup after failed refresh: %d", code)
	}
	var status StatusResponse
	getJSON(t, ts.URL+"/admin/status", &status)
	if status.RefreshFailures != 1 || !strings.Contains(status.LastError, "crawler offline") {
		t.Fatalf("status after failed refresh: %+v", status)
	}
}

func TestRefreshEndpointWithoutRefresher(t *testing.T) {
	h := testHostGraph(t)
	st := NewStore()
	snap, err := NewSnapshot(h, realEstimates(t, h, []graph.NodeID{0, 1}),
		SnapshotConfig{Detect: mass.DefaultDetectConfig()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Publish(snap); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(st, nil, Config{}).Handler())
	defer ts.Close()
	if code := postJSON(t, ts.URL+"/admin/refresh", nil, nil); code != http.StatusNotImplemented {
		t.Fatalf("refresh without refresher status %d", code)
	}
}

// TestShedding saturates the in-flight semaphore and asserts the next
// request is shed with 429 + Retry-After instead of queueing.
func TestShedding(t *testing.T) {
	srv, _, ts := newTestServer(t, Config{MaxInFlight: 2, Obs: obs.NewContext(obs.NewRegistry(), nil)})
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}
	resp, err := http.Get(ts.URL + "/v1/host/a.example")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated lookup status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if srv.shed.Value() != 1 {
		t.Fatalf("shed counter %d, want 1", srv.shed.Value())
	}
	// Health stays reachable under full load so operators can see in.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz under saturation: %d", code)
	}
	<-srv.sem
	<-srv.sem
	if code := getJSON(t, ts.URL+"/v1/host/a.example", nil); code != http.StatusOK {
		t.Fatalf("lookup after drain: %d", code)
	}
}

func TestRequestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	_, _, ts := newTestServer(t, Config{Obs: obs.NewContext(reg, nil)})
	for i := 0; i < 3; i++ {
		getJSON(t, ts.URL+"/v1/host/a.example", nil)
	}
	getJSON(t, ts.URL+"/v1/host/nosuch.example", nil)
	if got := reg.Counter("serve.requests_total").Value(); got != 4 {
		t.Fatalf("serve.requests_total = %d, want 4", got)
	}
	if got := reg.Counter("serve.lookup_misses_total").Value(); got != 1 {
		t.Fatalf("serve.lookup_misses = %d, want 1", got)
	}
	if got := reg.Histogram("serve.request_seconds").Count(); got != 4 {
		t.Fatalf("serve.request_seconds count = %d, want 4", got)
	}
}

func TestTraceRequests(t *testing.T) {
	root := obs.NewSpan("test")
	_, _, ts := newTestServer(t, Config{TraceRequests: true, Obs: obs.NewContext(nil, root)})
	getJSON(t, ts.URL+"/v1/host/a.example", nil)
	root.End()
	if root.Snapshot().Find("serve.host") == nil {
		t.Fatal("request span serve.host missing from trace")
	}
}

func TestMethodRouting(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/host/a.example", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST to GET route: %d, want 405", resp.StatusCode)
	}
}

func TestBatchDeadline(t *testing.T) {
	// A canceled request context must abort a long batch scan rather
	// than burn the worker; exercised via the handler directly with an
	// expired deadline.
	_, st, _ := newTestServer(t, Config{})
	srv := NewServer(st, nil, Config{Timeout: time.Nanosecond})
	hosts := make([]string, 600)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("missing%d.example", i)
	}
	raw, _ := json.Marshal(BatchRequest{Hosts: hosts})
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable && rec.Code != http.StatusOK {
		t.Fatalf("deadline batch status %d", rec.Code)
	}
}
