package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"spammass/internal/delta"
	"spammass/internal/obs"
)

// Config tunes the HTTP query layer.
type Config struct {
	// MaxInFlight bounds the number of /v1/* requests served
	// concurrently; excess load is shed with 429 + Retry-After instead
	// of queueing into collapse. 0 means DefaultMaxInFlight.
	MaxInFlight int
	// Timeout is the per-request deadline attached to every /v1/*
	// request context. 0 means DefaultTimeout.
	Timeout time.Duration
	// MaxBatch bounds the number of hosts in one POST /v1/batch; 0
	// means DefaultMaxBatch.
	MaxBatch int
	// Obs receives request counters and latency histograms; the
	// handles are cached at construction so the hot path pays no
	// registry lookups. A nil Obs costs one nil check per request.
	Obs *obs.Context
	// TraceRequests additionally records one span per request under
	// the Obs root. Spans accumulate in the parent for the life of the
	// trace, so this is for bounded diagnostic runs, not always-on
	// production serving; metrics cover the steady state.
	TraceRequests bool
	// Tracing enables always-on production request tracing: every
	// request gets a trace ID echoed in X-Trace-Id and a
	// traceparent-style header, admin requests carry a full span tree
	// threaded through the refresher into the solver, and slow or
	// errored requests land in Flight. Unlike TraceRequests nothing
	// accumulates unboundedly: hot-path /v1 requests synthesize a
	// single-span trace only when they qualify for the flight
	// recorder.
	Tracing bool
	// Flight, if non-nil (and Tracing is on), receives the span trees
	// of the slowest and errored requests.
	Flight *obs.FlightRecorder
	// Recorder, if non-nil, is served on GET /admin/timeseries.
	Recorder *obs.Recorder
	// Watchdog, if non-nil, contributes the drift detail to
	// /readyz?verbose. (The refresher feeds it; the server only
	// reads.)
	Watchdog *Watchdog
	// Backend, if non-nil, is where /v1 answers come from instead of
	// the local store — a shard router, a disk-backed store. When nil,
	// NewServer wraps its store argument in a StoreBackend.
	Backend Backend
	// Routes adds or overrides mux routes (Go 1.22 patterns, e.g.
	// "POST /admin/delta"). An entry whose pattern matches a default
	// route replaces it; other entries are registered as-is. Handlers
	// installed here bypass the /v1 guardrails (admission control,
	// deadline, tracing) — they are for admin surfaces like the shard
	// router's delta and status endpoints, which own their semantics.
	Routes map[string]http.HandlerFunc
}

// Serving defaults.
const (
	DefaultMaxInFlight = 256
	DefaultTimeout     = 5 * time.Second
	DefaultMaxBatch    = 1000
)

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	return c
}

// Server answers spam-mass queries over HTTP against the current
// Store snapshot. Build one with NewServer and mount Handler on an
// http.Server; see cmd/spamserver for the full wiring including
// graceful shutdown.
//
// Endpoints:
//
//	GET  /v1/host/{name}            one host's record
//	POST /v1/batch                  {"hosts":[...]} → aligned records
//	GET  /v1/top?metric=relmass&n=  precomputed ranking
//	GET  /healthz                   process liveness
//	GET  /readyz[?verbose]          snapshot readiness (503 before first publish);
//	                                verbose adds the drift-watchdog detail
//	GET  /metrics                   Prometheus text exposition of the registry
//	POST /admin/refresh[?wait=1]    trigger (or run) a refresh
//	POST /admin/delta[?wait=1]      ingest one mutation batch
//	GET  /admin/status              epoch, age, refresh counters
//	GET  /admin/timeseries          bounded metric history (?metric=…&since=…)
//	GET  /admin/flightrecorder      slowest / errored span trees
type Server struct {
	store   *Store // nil when serving a non-local Backend
	ref     *Refresher
	backend Backend
	cfg     Config
	sem     chan struct{}
	mux     *http.ServeMux

	requests *obs.Counter
	shed     *obs.Counter
	misses   *obs.Counter
	latency  *obs.Histogram
	ageGauge *obs.Gauge
}

// NewServer builds the query layer over store. ref may be nil, which
// disables the refresh endpoint (refreshes then come only from
// whatever drives the store directly). store may be nil when
// cfg.Backend supplies the serving state — the shard router mode —
// in which case the snapshot-specific admin endpoints degrade to
// their backend-generic answers unless cfg.Routes overrides them.
func NewServer(store *Store, ref *Refresher, cfg Config) *Server {
	cfg = cfg.withDefaults()
	backend := cfg.Backend
	if backend == nil {
		if store == nil {
			panic("serve: NewServer needs a store or a Config.Backend")
		}
		backend = NewStoreBackend(store)
	}
	s := &Server{
		store:    store,
		ref:      ref,
		backend:  backend,
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxInFlight),
		mux:      http.NewServeMux(),
		requests: cfg.Obs.Counter("serve.requests_total"),
		shed:     cfg.Obs.Counter("serve.shed_total"),
		misses:   cfg.Obs.Counter("serve.lookup_misses_total"),
		latency:  cfg.Obs.Histogram("serve.request_seconds"),
		ageGauge: cfg.Obs.Gauge("serve.snapshot_age_seconds"),
	}
	routes := map[string]http.HandlerFunc{
		"GET /healthz":              s.handleHealthz,
		"GET /readyz":               s.handleReadyz,
		"GET /v1/host/{name}":       s.limited("host", s.handleHost),
		"POST /v1/batch":            s.limited("batch", s.handleBatch),
		"GET /v1/top":               s.limited("top", s.handleTop),
		"POST /admin/refresh":       s.traced("admin/refresh", s.handleRefresh),
		"POST /admin/delta":         s.traced("admin/delta", s.handleDelta),
		"GET /admin/status":         s.handleStatus,
		"GET /admin/timeseries":     s.handleTimeseries,
		"GET /admin/flightrecorder": s.handleFlight,
	}
	for pattern, h := range cfg.Routes {
		routes[pattern] = h
	}
	for pattern, h := range routes {
		s.mux.HandleFunc(pattern, h)
	}
	s.mux.Handle("GET /metrics", obs.PrometheusHandler(cfg.Obs.Registry()))
	return s
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// generation is the served generation: the local store's epoch, or
// the backend's generation when there is no local store.
func (s *Server) generation() int64 {
	if s.store != nil {
		return s.store.Epoch()
	}
	return s.backend.Generation()
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// An encode failure here means the client went away mid-write;
	// there is nobody left to tell.
	_ = json.NewEncoder(w).Encode(v)
}

// statusWriter captures the response status for tracing and flight
// qualification. The zero status means no WriteHeader call — an
// implicit 200. It also carries the request's rendered traceparent
// and the backing arrays for both trace header values, so the entire
// per-request tracing state is this one allocation.
type statusWriter struct {
	http.ResponseWriter
	status int
	tp     obs.Traceparent
	vals   [2]string
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// traceHeaders stamps the response with the request's trace ID — the
// X-Trace-Id echo and the W3C traceparent (00-<traceid>-<spanid>-01)
// — and returns the trace ID. Keys are pre-canonicalized and assigned
// directly, and the header values are zero-copy views of sw's
// embedded Traceparent: the whole stamp costs no allocation beyond sw
// itself, which is what keeps full tracing inside the lookup latency
// budget.
func traceHeaders(w http.ResponseWriter, sw *statusWriter) string {
	sw.tp.Render()
	tid := sw.tp.TraceID()
	sw.vals[0] = tid
	sw.vals[1] = sw.tp.String()
	h := w.Header()
	h["X-Trace-Id"] = sw.vals[0:1:1]
	h["Traceparent"] = sw.vals[1:2:2]
	return tid
}

// limited wraps a query handler with the serving guardrails: admission
// control (shed with 429 when MaxInFlight requests are already in
// flight), the per-request deadline, and request metrics. Health and
// admin endpoints bypass it so operators can always see in.
//
// Under Config.Tracing the request additionally gets a trace ID in
// the response headers, and slow or 5xx requests land in the flight
// recorder. The hot path never builds a live span tree: the trace ID
// is two PRNG draws, and a single-span trace is synthesized only
// after the fact for the rare request that qualifies — the 3%
// telemetry budget of a lookup the handler answers in a few
// microseconds leaves no room for more.
func (s *Server) limited(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
		default:
			s.shed.Inc()
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "overloaded, retry later"})
			return
		}
		defer func() { <-s.sem }()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		var sp *obs.Span
		if s.cfg.TraceRequests {
			sp = s.cfg.Obs.Span("serve." + route)
			defer sp.End()
		}
		if !s.cfg.Tracing {
			start := time.Now()
			h(w, r.WithContext(ctx))
			s.latency.ObserveSince(start)
			s.requests.Inc()
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		tid := traceHeaders(w, sw)
		start := time.Now()
		h(sw, r.WithContext(ctx))
		d := time.Since(start)
		s.latency.Observe(d.Seconds())
		s.requests.Inc()
		isErr := sw.status >= 500
		if s.cfg.Flight != nil && (isErr || s.cfg.Flight.QualifiesSlow(d)) {
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			s.cfg.Flight.Record(obs.FlightEntry{
				Kind:       "request",
				TraceID:    tid,
				Name:       "serve." + route,
				Status:     status,
				Err:        isErr,
				Start:      start,
				DurationNS: int64(d),
				Trace: &obs.SpanJSON{
					Name:       "serve." + route,
					Start:      start,
					DurationNS: int64(d),
					Ended:      true,
					Attrs:      map[string]any{"trace_id": tid, "path": r.URL.Path, "status": status},
				},
			})
		}
	}
}

// traced wraps an admin handler with full tracing: a real root span
// carried into the request context (obs.WithRequest), so a
// synchronous refresh or delta apply threads one coherent span tree
// from the HTTP request through the refresher into the solver. Admin
// traffic is rare; span cost is irrelevant here.
func (s *Server) traced(route string, h http.HandlerFunc) http.HandlerFunc {
	if !s.cfg.Tracing {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		tid := traceHeaders(w, sw)
		root := obs.NewSpan("serve." + route)
		root.SetAttr("trace_id", tid)
		root.SetAttr("method", r.Method)
		root.SetAttr("path", r.URL.Path)
		reqOctx := s.cfg.Obs
		if reqOctx == nil {
			reqOctx = obs.NewContext(nil, nil)
		}
		reqOctx = reqOctx.In(root).WithTraceID(tid)
		start := time.Now()
		h(sw, r.WithContext(obs.WithRequest(r.Context(), reqOctx)))
		root.End()
		d := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		isErr := status >= 500
		if s.cfg.Flight != nil && (isErr || s.cfg.Flight.QualifiesSlow(d)) {
			s.cfg.Flight.Record(obs.FlightEntry{
				Kind:       "request",
				TraceID:    tid,
				Name:       "serve." + route,
				Status:     status,
				Err:        isErr,
				Start:      start,
				DurationNS: int64(d),
				Trace:      root.Snapshot(),
			})
		}
	}
}

// backendError maps a Backend failure to its HTTP answer: no
// published state is 503 (retryable, same as before the first
// publish), an expired request deadline is 503, and anything else —
// which can only come from a remote backend, e.g. an unreachable
// shard — is 502.
func backendError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNoSnapshot):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: ErrNoSnapshot.Error()})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "request deadline exceeded"})
	default:
		writeJSON(w, http.StatusBadGateway, errorBody{Error: err.Error()})
	}
}

func (s *Server) handleHost(w http.ResponseWriter, r *http.Request) {
	rec, ok, err := s.backend.Lookup(r.Context(), r.PathValue("name"))
	if err != nil {
		backendError(w, err)
		return
	}
	if !ok {
		s.misses.Inc()
		writeBody(w, http.StatusNotFound, missBody)
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	*buf = append(appendRecord((*buf)[:0], &rec), '\n')
	writeBody(w, http.StatusOK, *buf)
}

// BatchRequest is the POST /v1/batch body.
type BatchRequest struct {
	Hosts []string `json:"hosts"`
}

// BatchResponse answers a batch lookup: Records is aligned with the
// request (null for unknown hosts), all records from one epoch.
type BatchResponse struct {
	Epoch   int64         `json:"epoch"`
	Records []*HostRecord `json:"records"`
	Misses  int           `json:"misses"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	buf := getBuf()
	defer putBuf(buf)
	body := bytes.NewBuffer((*buf)[:0])
	_, readErr := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBatchBody))
	*buf = body.Bytes()
	hosts, err := decodeBatchRequest(*buf, readErr)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: "request body exceeds limit of " + strconv.Itoa(maxBatchBody) + " bytes"})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	if len(hosts) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty hosts list"})
		return
	}
	if len(hosts) > s.cfg.MaxBatch {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorBody{Error: "batch of " + strconv.Itoa(len(hosts)) + " exceeds limit " + strconv.Itoa(s.cfg.MaxBatch)})
		return
	}
	resp, err := s.backend.Batch(r.Context(), hosts)
	if err != nil {
		backendError(w, err)
		return
	}
	s.misses.Add(int64(resp.Misses))
	*buf = appendBatch((*buf)[:0], resp)
	writeBody(w, http.StatusOK, *buf)
}

// TopResponse answers GET /v1/top.
type TopResponse struct {
	Epoch   int64        `json:"epoch"`
	Metric  string       `json:"metric"`
	Records []HostRecord `json:"records"`
}

func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	metric := query.Get("metric")
	if metric == "" {
		metric = MetricRelMass
	}
	if !ValidMetric(metric) {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf(
			"unknown ranking metric %q (want %s, %s, or %s)", metric, MetricRelMass, MetricAbsMass, MetricPageRank)})
		return
	}
	n := 50
	if raw := query.Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad n parameter"})
			return
		}
		n = v
	}
	resp, err := s.backend.Top(r.Context(), metric, n)
	if err != nil {
		backendError(w, err)
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	*buf = appendTop((*buf)[:0], resp)
	writeBody(w, http.StatusOK, *buf)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		// Non-local backend: ready once it serves a generation. A shard
		// router typically overrides this route with its fence-aware
		// answer; this is the generic fallback.
		gen := s.backend.Generation()
		if gen == 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no generation"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "generation": gen})
		return
	}
	snap := s.store.Load()
	if snap == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no snapshot"})
		return
	}
	age := snap.Age()
	s.ageGauge.Set(age.Seconds())
	body := map[string]any{
		"status":      "ready",
		"epoch":       snap.Epoch(),
		"age_seconds": age.Seconds(),
	}
	// The verbose detail includes the drift watchdog's view. A drifted
	// epoch degrades the status string but never the HTTP code: a
	// shifted operating point is an operator signal, while the
	// snapshot itself is still the best answer available — flipping
	// readiness would take a healthy serving path out of rotation.
	if r.URL.Query().Has("verbose") {
		if st := s.cfg.Watchdog.Status(); st != nil {
			body["drift"] = st
			if st.Degraded {
				body["status"] = "ready-degraded"
			}
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// TimeseriesResponse is the GET /admin/timeseries body when a metric
// is requested.
type TimeseriesResponse struct {
	Metric   string      `json:"metric"`
	Interval float64     `json:"interval_seconds"`
	Points   []obs.Point `json:"points"`
}

// handleTimeseries serves the bounded metric history. Without a
// ?metric= parameter it lists the known series names; with one it
// returns the points, optionally filtered by ?since= (RFC 3339 or
// Unix seconds).
func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	rec := s.cfg.Recorder
	if rec == nil {
		writeJSON(w, http.StatusNotImplemented, errorBody{Error: "no metric recorder configured"})
		return
	}
	metric := r.URL.Query().Get("metric")
	if metric == "" {
		writeJSON(w, http.StatusOK, map[string]any{"metrics": rec.Names()})
		return
	}
	var since time.Time
	if raw := r.URL.Query().Get("since"); raw != "" {
		if t, err := time.Parse(time.RFC3339, raw); err == nil {
			since = t
		} else if sec, err := strconv.ParseInt(raw, 10, 64); err == nil {
			since = time.Unix(sec, 0)
		} else {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad since parameter: want RFC 3339 or Unix seconds"})
			return
		}
	}
	writeJSON(w, http.StatusOK, &TimeseriesResponse{
		Metric:   metric,
		Interval: rec.Interval().Seconds(),
		Points:   rec.Series(metric, since),
	})
}

// handleFlight dumps the flight recorder: the slowest and errored
// request/refresh span trees.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Flight == nil {
		writeJSON(w, http.StatusNotImplemented, errorBody{Error: "no flight recorder configured"})
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Flight.Snapshot())
}

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if s.ref == nil {
		writeJSON(w, http.StatusNotImplemented, errorBody{Error: "no refresher configured"})
		return
	}
	if r.URL.Query().Get("wait") == "" {
		s.ref.Trigger()
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "refresh scheduled"})
		return
	}
	if err := s.ref.Refresh(r.Context()); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "refreshed", "epoch": s.generation()})
}

// maxDeltaBody bounds the POST /admin/delta request body.
const maxDeltaBody = 64 << 20

// handleDelta ingests one mutation batch in the delta text format.
// Every batch joins the refresher's one ordered queue. Without ?wait=1
// the response is 202 once it is queued — which, when a durability
// journal is configured, means the batch is fsynced to the WAL and
// survives a crash; with ?wait=1 the response waits, through
// SubmitDeltaWait, for the batch's own apply, after every batch queued
// before it, and carries the published epoch (with no Run loop running,
// the request applies the queue itself, up to its own batch). A parse
// or validation failure is the client's fault (400); a full ingest
// queue is backpressure (429 + Retry-After — ingest is outrunning
// refresh, back off and resubmit); other submit failures (e.g. a
// failed journal append or fsync) are 503; a request that ends while
// the Run loop has its batch queued is 202 — the batch will still be
// applied (and, if journaled, replayed after a crash); an apply failure
// (conflicting batch, non-convergence) is 409 — the serving snapshot
// is unchanged.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	if s.ref == nil || !s.ref.DeltaEnabled() {
		writeJSON(w, http.StatusNotImplemented, errorBody{Error: "no delta path configured"})
		return
	}
	b, err := delta.ReadText(http.MaxBytesReader(w, r.Body, maxDeltaBody))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad delta body: " + err.Error()})
		return
	}
	if r.URL.Query().Get("wait") == "" {
		if err := s.ref.SubmitDelta(b); err != nil {
			w.Header().Set("Retry-After", "1")
			code := http.StatusServiceUnavailable
			if errors.Is(err, ErrIngestBackpressure) {
				code = http.StatusTooManyRequests
			}
			writeJSON(w, code, errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{
			"status": "delta scheduled", "ops": b.NumOps(), "durable": s.ref.Journaled(),
		})
		return
	}
	err = s.ref.SubmitDeltaWait(r.Context(), b)
	switch {
	case errors.Is(err, ErrIngestBackpressure):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrJournal):
		// The batch was never acknowledged and will not be applied.
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		// The caller stopped waiting, but the batch is still queued: it
		// will be applied. Not a conflict — report it as accepted.
		writeJSON(w, http.StatusAccepted, map[string]any{
			"status": "delta queued, apply pending", "ops": b.NumOps(), "durable": s.ref.Journaled(),
		})
		return
	case err != nil:
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "delta applied", "epoch": s.generation(), "ops": b.NumOps()})
}

// StatusResponse is the GET /admin/status body.
type StatusResponse struct {
	Epoch           int64     `json:"epoch"`
	BuiltAt         time.Time `json:"built_at"`
	AgeSeconds      float64   `json:"age_seconds"`
	Hosts           int       `json:"hosts"`
	Gamma           float64   `json:"gamma"`
	CoreSize        int       `json:"core_size"`
	Refreshes       int64     `json:"refreshes"`
	RefreshFailures int64     `json:"refresh_failures"`
	// DeltaEnabled reports whether POST /admin/delta is wired;
	// DeltaBatches counts batches applied and published.
	DeltaEnabled bool  `json:"delta_enabled"`
	DeltaBatches int64 `json:"delta_batches"`
	// Durable reports whether an ingest journal (WAL) is configured;
	// IngestQueueDepth/Capacity expose the backpressure state, and
	// IngestRejected counts submissions turned away by it.
	Durable          bool   `json:"durable"`
	IngestQueueDepth int    `json:"ingest_queue_depth"`
	IngestQueueCap   int    `json:"ingest_queue_capacity"`
	IngestRejected   int64  `json:"ingest_rejected"`
	LastError        string `json:"last_error,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	var resp StatusResponse
	if s.store == nil {
		resp.Epoch = s.backend.Generation()
		writeJSON(w, http.StatusOK, &resp)
		return
	}
	if snap := s.store.Load(); snap != nil {
		resp.Epoch = snap.Epoch()
		resp.BuiltAt = snap.BuiltAt()
		resp.AgeSeconds = snap.Age().Seconds()
		resp.Hosts = snap.NumHosts()
		resp.Gamma = snap.Config().Gamma
		resp.CoreSize = snap.Config().CoreSize
		s.ageGauge.Set(resp.AgeSeconds)
	}
	if s.ref != nil {
		resp.Refreshes, resp.RefreshFailures = s.ref.Counts()
		resp.DeltaEnabled = s.ref.DeltaEnabled()
		resp.DeltaBatches = s.ref.DeltaCount()
		resp.Durable = s.ref.Journaled()
		resp.IngestQueueDepth, resp.IngestQueueCap = s.ref.QueueDepth()
		resp.IngestRejected = s.ref.RejectedCount()
		if err := s.ref.LastError(); err != nil {
			resp.LastError = err.Error()
		}
	}
	writeJSON(w, http.StatusOK, &resp)
}
