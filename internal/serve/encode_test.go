package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"spammass/internal/graph"
	"spammass/internal/mass"
)

// FuzzHostRecordJSON holds the append encoder to encoding/json:
// appendRecord must equal json.Marshal for any finite record, and the
// batch and top envelopes must equal json.Encoder's output (trailing
// newline included) with null records and with empty and nil slices.
func FuzzHostRecordJSON(f *testing.F) {
	negZero := math.Copysign(0, -1)
	for _, fl := range []float64{0, negZero, 5e-324, 2.2250738585072014e-308, 1e-6, math.Nextafter(1e-6, 0),
		1e-7, 1e21, math.Nextafter(1e21, 0), 1e20, -1e21, 0.1, 1.0 / 3, math.MaxFloat64, -123456.789e-12} {
		f.Add("a.example", "good", int64(0), int64(1), fl, -fl, fl/3, 1-fl, true, "relmass", 0, byte(0))
	}
	f.Add("a&b.example", ">", int64(2), int64(2), 0.5, 0.5, 0.0, 0.0, true, "a<b", 0, byte(3))
	f.Add("<b>&amp;", "spam", int64(-1), int64(math.MaxInt64), 1.0, 0.5, 0.5, 0.5, false, "absmass", 3, byte(1))
	f.Add("x\u2028y\u2029z", "\x00\x1f\x7f", int64(math.MinInt64), int64(0), 0.25, 0.0, 0.25, 1.0, true, "pagerank", 1, byte(2))
	f.Add("bad\xffutf8\xc3", "\"quoted\\\"", int64(42), int64(7), 1e-300, 1e300, -1e-300, -1e300, false, "", 2, byte(3))
	f.Add("ünïcødé.example", "日本", int64(9), int64(9), 3.0, 2.0, 1.0, 1.0/3, true, "<metric>", -5, byte(4))
	f.Fuzz(func(t *testing.T, host, label string, node, epoch int64, p, cp, am, rm float64,
		evaluated bool, metric string, misses int, shape byte) {
		rec := HostRecord{Host: host, Node: node, PageRank: p, CorePageRank: cp, AbsMass: am, RelMass: rm,
			Label: label, Evaluated: evaluated, Epoch: epoch}
		for _, f := range []float64{p, cp, am, rm} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return // encoding/json refuses it, and no snapshot holds it
			}
		}
		want, err := json.Marshal(&rec)
		if err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}
		if got := appendRecord(nil, &rec); !bytes.Equal(got, want) {
			t.Fatalf("appendRecord:\n got %s\nwant %s", got, want)
		}

		other := rec
		other.Host += "/2"
		var batch []*HostRecord
		var top []HostRecord
		switch shape % 4 {
		case 1:
			batch, top = []*HostRecord{}, []HostRecord{}
		case 2:
			batch, top = []*HostRecord{nil}, []HostRecord{rec}
		case 3:
			batch, top = []*HostRecord{&rec, nil, &other, nil}, []HostRecord{rec, other}
		}
		br := &BatchResponse{Epoch: epoch, Records: batch, Misses: misses}
		if got, want := appendBatch(nil, br), encodeOracle(t, br); !bytes.Equal(got, want) {
			t.Fatalf("appendBatch:\n got %s\nwant %s", got, want)
		}
		tr := &TopResponse{Epoch: epoch, Metric: metric, Records: top}
		if got, want := appendTop(nil, tr), encodeOracle(t, tr); !bytes.Equal(got, want) {
			t.Fatalf("appendTop:\n got %s\nwant %s", got, want)
		}
	})
}

// encodeOracle is what writeJSON writes for v.
func encodeOracle(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("json.Encoder: %v", err)
	}
	return buf.Bytes()
}

// TestAppendRecordMatchesMarshalWebgen renders every record of the
// 100k-host webgen world, the float values the server actually
// publishes, and compares each with json.Marshal.
func TestAppendRecordMatchesMarshalWebgen(t *testing.T) {
	snap := webFixture(t).snapshot(t, 1)
	var got []byte
	for i := range snap.NumHosts() {
		rec, _ := snap.LookupNode(graph.NodeID(i))
		want, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if got = appendRecord(got[:0], &rec); !bytes.Equal(got, want) {
			t.Fatalf("record %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

// batchOracle is what POST /v1/batch did with encoding/json
// alone: decode the body with json.Decoder, apply the same checks, and
// encode the answer with json.Encoder.
func batchOracle(t *testing.T, backend Backend, maxBatch int, body []byte) (int, []byte) {
	t.Helper()
	var req BatchRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return http.StatusBadRequest, encodeOracle(t, errorBody{Error: "bad request body: " + err.Error()})
	}
	if len(req.Hosts) == 0 {
		return http.StatusBadRequest, encodeOracle(t, errorBody{Error: "empty hosts list"})
	}
	if len(req.Hosts) > maxBatch {
		return http.StatusRequestEntityTooLarge, encodeOracle(t, errorBody{Error: "batch of " +
			strconv.Itoa(len(req.Hosts)) + " exceeds limit " + strconv.Itoa(maxBatch)})
	}
	resp, err := backend.Batch(context.Background(), req.Hosts)
	if err != nil {
		t.Fatalf("backend: %v", err)
	}
	return http.StatusOK, encodeOracle(t, resp)
}

// FuzzBatchRequest holds the batch decoder to encoding/json: for any
// body, POST /v1/batch must answer the status and bytes that decoding
// with json.Decoder gives, and whenever the strict fast path accepts a
// body, its hosts must be the decoder's.
func FuzzBatchRequest(f *testing.F) {
	names := testHostGraph(f).Names
	bench := []byte(`{"hosts":[`)
	for j := 0; j < 4; j++ {
		if j > 0 {
			bench = append(bench, ',')
		}
		bench = append(bench, '"')
		bench = append(bench, names[(j*7919)%len(names)]...)
		bench = append(bench, '"')
	}
	bench = append(bench, `]}`...)
	for _, seed := range []string{
		string(bench),
		" \t\n" + string(bench) + "\n ",
		`{ "hosts" : [ "a.example" , "b.example" ] }`,
		`{"HOSTS":["a.example"]}`,
		`{"Hosts":["a.example","zz"]}`,
		`"a"`,
		`{"hosts":["a.example"],"hosts":["b.example"]}`,
		`{"hosts":["a.example"]}garbage`,
		`{"hosts":["a.example"]}}`,
		`null`, `[]`, `{}`, ``,
		`{"hosts":null}`, `{"hosts":[]}`, `{"hosts":[""]}`,
		`{"hosts":["ünïcødé.example","a.example"]}`,
		`{"hosts":["bad\xffutf8"]}`,
		`{"hosts":["a\u002eexample","c.example"]}`,
		`{"hosts":["a.example",]}`,
		`{"hosts":["a.example","b.example","c.example","d.example","e.example"]}`,
		`{"hosts":["<a>&b","\u2028"]}`,
		`{"hosts":["a.example"`,
		`{"hosts":[1]}`,
	} {
		f.Add([]byte(seed))
	}
	h := testHostGraph(f)
	snap, err := NewSnapshot(h, realEstimates(f, h, []graph.NodeID{0, 1}), SnapshotConfig{Detect: mass.DefaultDetectConfig()}, 1)
	if err != nil {
		f.Fatal(err)
	}
	st := NewStore()
	if err := st.Publish(snap); err != nil {
		f.Fatal(err)
	}
	const maxBatch = 4
	handler := NewServer(st, nil, Config{MaxBatch: maxBatch}).Handler()
	backend := NewStoreBackend(st)
	f.Fuzz(func(t *testing.T, body []byte) {
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		code, want := batchOracle(t, backend, maxBatch, body)
		if rr.Code != code || !bytes.Equal(rr.Body.Bytes(), want) {
			t.Fatalf("body %q: got %d %s, encoding/json gives %d %s", body, rr.Code, rr.Body.Bytes(), code, want)
		}
		if hosts, ok := parseBatchHosts(body); ok {
			var req BatchRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("fast path accepted %q, json.Decoder refuses it: %v", body, err)
			}
			if !slices.Equal(hosts, req.Hosts) {
				t.Fatalf("fast path read %q as %q, json.Decoder as %q", body, hosts, req.Hosts)
			}
		}
	})
}

// assertJSONAnswer checks a recorded answer's status, its bytes
// against the encoding/json oracle, and its framing headers.
func assertJSONAnswer(t *testing.T, what string, rr *httptest.ResponseRecorder, code int, want []byte) {
	t.Helper()
	if rr.Code != code {
		t.Fatalf("%s: status %d, want %d", what, rr.Code, code)
	}
	if !bytes.Equal(rr.Body.Bytes(), want) {
		t.Fatalf("%s:\n got %s\nwant %s", what, rr.Body.Bytes(), want)
	}
	if ct := rr.Header().Values("Content-Type"); len(ct) != 1 || ct[0] != "application/json" {
		t.Errorf("%s: Content-Type %q", what, ct)
	}
	if cl := rr.Header().Values("Content-Length"); len(cl) != 1 || cl[0] != strconv.Itoa(len(want)) {
		t.Errorf("%s: Content-Length %q, body is %d bytes", what, cl, len(want))
	}
}

// TestHostEndpointMatchesOracleBytes holds GET /v1/host to
// json.Marshal + newline, for hits and for the 404 miss body.
func TestHostEndpointMatchesOracleBytes(t *testing.T) {
	w := webFixture(t)
	snap := w.snapshot(t, 3)
	st := NewStore()
	if err := st.Publish(snap); err != nil {
		t.Fatal(err)
	}
	handler := NewServer(st, nil, Config{}).Handler()
	for i := 0; i < len(w.hosts.Names); i += 997 {
		name := w.hosts.Names[i]
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/host/"+name, nil))
		rec, _ := snap.Lookup(name)
		want, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		assertJSONAnswer(t, "GET /v1/host/"+name, rr, http.StatusOK, append(want, '\n'))
	}
	rr := httptest.NewRecorder()
	handler.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/host/nosuch.example", nil))
	want, _ := json.Marshal(errorBody{Error: "unknown host"})
	assertJSONAnswer(t, "miss", rr, http.StatusNotFound, append(want, '\n'))
}

// TestBatchEndpointMatchesOracleBytes holds POST /v1/batch to
// json.Marshal + newline, with null slots for misses.
func TestBatchEndpointMatchesOracleBytes(t *testing.T) {
	w := webFixture(t)
	snap := w.snapshot(t, 3)
	st := NewStore()
	if err := st.Publish(snap); err != nil {
		t.Fatal(err)
	}
	handler := NewServer(st, nil, Config{}).Handler()
	for _, size := range []int{1, 64, 1000} {
		var names []string
		want := BatchResponse{Epoch: 3}
		for j := 0; j < size; j++ {
			name := w.hosts.Names[(j*7919)%len(w.hosts.Names)]
			if j%5 == 3 {
				name = "nosuch-" + strconv.Itoa(j) + ".example"
				want.Misses++
				want.Records = append(want.Records, nil)
			} else {
				rec, _ := snap.Lookup(name)
				want.Records = append(want.Records, &rec)
			}
			names = append(names, name)
		}
		body, _ := json.Marshal(BatchRequest{Hosts: names})
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		wantBody, err := json.Marshal(&want)
		if err != nil {
			t.Fatal(err)
		}
		assertJSONAnswer(t, "batch of "+strconv.Itoa(size), rr, http.StatusOK, append(wantBody, '\n'))
		if size > 3 && !bytes.Contains(rr.Body.Bytes(), []byte(`,null,`)) {
			t.Fatalf("batch of %d renders no null slot", size)
		}
	}
}

// TestBatchBodyTooLarge: a body past the 4 MiB read limit is answered
// 413, like a batch past MaxBatch, not 400.
func TestBatchBodyTooLarge(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	body := `{"hosts":["` + strings.Repeat("a", maxBatchBody) + `"]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(eb.Error, "exceeds limit") {
		t.Fatalf("oversize body: %d %q, want 413", resp.StatusCode, eb.Error)
	}
}

// TestPooledBuffersStayBounded: a buffer that grew past maxPooledBuf
// is not kept for the next request.
func TestPooledBuffersStayBounded(t *testing.T) {
	big := make([]byte, 0, maxPooledBuf+1)
	putBuf(&big)
	for i := 0; i < 8; i++ {
		if b := getBuf(); cap(*b) > maxPooledBuf {
			t.Fatalf("pool handed out a %d-byte buffer", cap(*b))
		}
	}
}

// discardWriter is a ResponseWriter that keeps only the status, so an
// allocation count covers the handler and nothing of the recorder.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

// rewindBody is a request body that can be served again.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// TestHandlerAllocBudget pins the allocations of one /v1 request
// through ServeHTTP with a pre-built request (Config{}: no registry, no
// tracing), so request construction is not counted. encoding/json
// rendering took 8 per /v1/host, 154 per 64-host /v1/batch and 16 per
// /v1/top?n=100; a ceiling only comes down.
func TestHandlerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	w := webFixture(t)
	st := NewStore()
	if err := st.Publish(w.snapshot(t, 1)); err != nil {
		t.Fatal(err)
	}
	handler := NewServer(st, nil, Config{}).Handler()
	names := w.hosts.Names
	hosts := make([]string, 64)
	for j := range hosts {
		hosts[j] = names[(j*7919)%len(names)]
	}
	body, _ := json.Marshal(BatchRequest{Hosts: hosts})
	rb := rewindBody{bytes.NewReader(body)}
	batch := httptest.NewRequest(http.MethodPost, "/v1/batch", nil)
	batch.Body = rb
	dw := &discardWriter{h: make(http.Header)}
	for _, c := range []struct {
		name   string
		req    *http.Request
		budget float64
	}{
		{"GET /v1/host", httptest.NewRequest(http.MethodGet, "/v1/host/"+names[7919], nil), 6},
		{"POST /v1/batch (64 hosts)", batch, 13},
		{"GET /v1/top?n=100", httptest.NewRequest(http.MethodGet, "/v1/top?metric=relmass&n=100", nil), 13},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			_, _ = rb.Seek(0, io.SeekStart)
			dw.status = 0
			handler.ServeHTTP(dw, c.req)
			if dw.status != http.StatusOK {
				t.Fatalf("%s: status %d", c.name, dw.status)
			}
		})
		t.Logf("%s: %v allocations (budget %v)", c.name, allocs, c.budget)
		if allocs > c.budget {
			t.Errorf("%s: %v allocations, budget %v", c.name, allocs, c.budget)
		}
	}
}
