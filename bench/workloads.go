package main

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"spammass/internal/mass"
)

// runOpts selects one benchmark run.
type runOpts struct {
	workload string
	seed     int64
	// seconds is the length of the measured phase. The phases inside a
	// workload are fixed shares of it, identical on every commit.
	seconds float64
	// layers adds the traced pass: counters scraped from the servers
	// around the measured phase, and the in-process layer pass on the
	// same inputs.
	layers bool
	// tiny shrinks graphs and set-up repetitions for the smoke test.
	tiny bool
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	Checks    []check            `json:"checks"`
	Notes     []string           `json:"notes,omitempty"`
}

// Graph sizes per workload. The lookup pair shares one size so the
// router hop is the only difference between them; ingest runs on a
// smaller graph so a warm delta apply takes about a fifth of a second;
// solve-cold runs on the largest, where the sweeps dominate.
func hostsFor(workload string, tiny bool) int {
	if tiny {
		// webgen's default mix cannot split a good core over its twenty
		// countries below about five thousand hosts.
		if workload == "solve-cold" {
			return 10_000
		}
		return 6000
	}
	switch workload {
	case "ingest-fresh":
		return 100_000
	case "solve-cold":
		return 500_000
	}
	return 200_000
}

// run carries the state of one workload run.
type run struct {
	h    *harness
	opts runOpts
	res  *result
	tr   *tracer

	setupDurs  []float64
	bootDurs   []float64
	peakRSSKB  int64
	timerLate  []float64
	scrapeFrom []map[string]float64
	// estimates caches the reference solve of each world: the checks and
	// the layer pass need the same vectors.
	estimates map[*world]*mass.Estimates
}

// estimatesFor returns the harness's own solve of w, computed once.
func (r *run) estimatesFor(w *world) (*mass.Estimates, error) {
	if est, ok := r.estimates[w]; ok {
		return est, nil
	}
	est, err := referenceEstimates(w)
	if err != nil {
		return nil, fmt.Errorf("reference solve: %w", err)
	}
	if r.estimates == nil {
		r.estimates = make(map[*world]*mass.Estimates)
	}
	r.estimates[w] = est
	return est, nil
}

func (r *run) dur(share float64) time.Duration {
	return time.Duration(share * r.opts.seconds * float64(time.Second))
}

func (r *run) set(name string, v float64, samples int) {
	r.res.Metrics[name] = v
	if samples > 0 {
		r.res.Samples[name] = samples
	}
}

func (r *run) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.res.Notes = append(r.res.Notes, msg)
	logf("%s: %s", r.opts.workload, msg)
}

func (r *run) addCheck(c check) {
	r.res.Checks = append(r.res.Checks, c)
	state := "ok"
	if !c.OK {
		state = "FAILED"
		r.res.Correct = false
	}
	logf("%s: check %s %s: %s", r.opts.workload, c.Name, state, c.Detail)
}

func (r *run) count(attempted, failed int64) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

// topology is the set of server processes one workload talks to.
type topology struct {
	servers []*server // every process, shards before the router
	front   *server   // where /v1 traffic goes
	data    []*server // the servers that hold snapshots
	bootDur time.Duration
}

// bootSingle starts one spamserver on files and waits until it is
// ready.
func (r *run) bootSingle(name string, files fileSet, extra ...string) (*topology, error) {
	s, start, err := r.h.launch(name, append(files.args(), extra...)...)
	if err != nil {
		return nil, err
	}
	if err := s.ready(start); err != nil {
		return nil, err
	}
	return &topology{servers: []*server{s}, front: s, data: []*server{s}, bootDur: s.bootDur}, nil
}

// bootRouted starts one shard server per part side by side, then the
// router in front of them with its default hedge delay.
func (r *run) bootRouted(sw *shardedWorld) (*topology, error) {
	t := &topology{}
	var first time.Time
	starts := make([]time.Time, len(sw.parts))
	for s, part := range sw.parts {
		srv, start, err := r.h.launch(fmt.Sprintf("shard%d", s), part.files.args()...)
		if err != nil {
			return nil, err
		}
		if s == 0 {
			first = start
		}
		starts[s] = start
		t.servers = append(t.servers, srv)
		t.data = append(t.data, srv)
	}
	urls := make([]string, len(t.data))
	for s, srv := range t.data {
		if err := srv.ready(starts[s]); err != nil {
			return nil, err
		}
		urls[s] = "http://" + srv.addr
	}
	router, start, err := r.h.launch("router", "-role=router", "-shards", strings.Join(urls, ";"))
	if err != nil {
		return nil, err
	}
	if err := router.ready(start); err != nil {
		return nil, err
	}
	t.servers = append(t.servers, router)
	t.front = router
	t.bootDur = time.Since(first)
	return t, nil
}

// noteRSS folds the topology's memory high-water mark — the sum of
// VmHWM over its processes — into the run's peak.
func (r *run) noteRSS(t *topology) {
	var kb int64
	for _, s := range t.servers {
		kb += s.peakRSSKB()
	}
	if kb > r.peakRSSKB {
		r.peakRSSKB = kb
	}
}

// stop records the topology's memory high-water mark and kills it. A
// nil topology (a boot that failed) is nothing to stop.
func (r *run) stop(t *topology) {
	if t == nil {
		return
	}
	r.noteRSS(t)
	for _, s := range t.servers {
		s.kill()
	}
}

// scrapeAll reads /metrics of every server of the topology.
func scrapeAll(t *topology) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(t.servers))
	for i, s := range t.servers {
		m, err := s.scrape()
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// reportLookups reports the point-lookup latencies of one phase.
func (r *run) reportLookups(lookups []timed, phase time.Duration) {
	r.set("lookup_p50_us", percentile(micros(lookups), 50), len(lookups))
	r.set("lookup_p99_us", windowedPercentile(lookups, phase, tailWindows, 99), len(lookups))
}

// reportMix reports the throughput and the batch and ranking latencies
// of one closed-loop phase of the request mix.
func (r *run) reportMix(m *mixResult) {
	batches := m.ops[opBatch]
	r.set("requests_per_s", float64(m.completed())/m.phase.Seconds(), int(m.completed()))
	r.set("batch_p50_us", percentile(micros(batches), 50), len(batches))
	r.set("batch_p99_us", windowedPercentile(batches, m.phase, tailWindows, 99), len(batches))
	r.set("serve.top_p50_us", percentile(micros(m.ops[opTop]), 50), len(m.ops[opTop]))
	r.count(m.attempted, m.failed)
}

// tailWindows is how many windows a phase is cut into for its p99.
const tailWindows = 3

// refreshAll runs one full refresh on every snapshot-holding server of
// the topology, side by side, and returns how long the slowest took.
func refreshAll(t *topology) (time.Duration, error) {
	start := time.Now()
	errs := make(chan error, len(t.data))
	for _, s := range t.data {
		go func(s *server) {
			status, body, err := adminDo(http.MethodPost, s.url("/admin/refresh?wait=1"), nil)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("%s: refresh answered %d: %s", s.name, status, body)
			}
			errs <- err
		}(s)
	}
	var first error
	for range t.data {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return time.Since(start), first
}

// refreshTail times a few full refreshes of the topology after the
// measured phase, so refresh_p50_s exists on every workload — on the
// graph and topology that workload serves.
func (r *run) refreshTail(t *topology) error {
	var durs []float64
	for i := 0; i < r.repeats()+2; i++ {
		d, err := refreshAll(t)
		r.count(int64(len(t.data)), 0)
		if err != nil {
			r.count(0, 1)
			return err
		}
		durs = append(durs, d.Seconds())
	}
	r.set("refresh_p50_s", median(durs), len(durs))
	return nil
}

// finish fills the metrics every workload reports the same way; t is
// the topology still running.
func (r *run) finish(t *topology) {
	r.noteRSS(t)
	r.set("setup_s", median(r.setupDurs), len(r.setupDurs))
	r.set("boot_ready_s", median(r.bootDurs), len(r.bootDurs))
	r.set("peak_rss_mb", float64(r.peakRSSKB)/1024, 0)
	if len(r.timerLate) > 0 {
		r.set("loadgen.timer_late_p99_us", percentile(sortedCopy(r.timerLate), 99), len(r.timerLate))
	}
}

// warmUp sends the request mix for a moment so connections, the
// server's pools and the page cache are past their first use before
// anything is timed.
func (r *run) warmUp(addr string, names []string) {
	d := r.dur(0.05)
	if d < 200*time.Millisecond {
		d = 200 * time.Millisecond
	}
	m := runMix(addr, names, r.opts.seed+7919, 2, d)
	r.count(m.attempted, m.failed)
}

// probeLen is the length of the closed-loop lookup probe that
// ingest-fresh and solve-cold run after their own measured phases.
func (r *run) probeLen() time.Duration {
	d := r.dur(0.3)
	if d < 300*time.Millisecond {
		d = 300 * time.Millisecond
	}
	return d
}

// repeats is how often a run repeats each of its single-shot timings
// (set-up, boot, restart, tail refresh) to report their median.
func (r *run) repeats() int {
	if r.opts.tiny {
		return 1
	}
	return 3
}

// recoveries kills the topology the hard way and boots it again from
// the same inputs and state, a few times over, and reports the median
// as recovery_s. On the topologies that hold no WAL, recovering from a
// crash is a full boot; on ingest-fresh every restart replays the same
// WAL suffix, because each kill comes long before the compactor's next
// tick could fold it.
func (r *run) recoveries(t *topology, boot func() (*topology, error)) (*topology, error) {
	var durs []float64
	for i := 0; i < r.repeats(); i++ {
		r.stop(t)
		var err error
		if t, err = boot(); err != nil {
			return nil, err
		}
		durs = append(durs, t.bootDur.Seconds())
	}
	r.set("recovery_s", median(durs), len(durs))
	return t, nil
}

// quiesce collects the harness's own garbage before a measured phase,
// so a collection of the inputs it holds does not run beside the load
// generator on this two-core box.
func quiesce() { runtime.GC() }

// probe runs the closed-loop request mix against a server whose own
// measured phase is over, after a short warm-up.
func (r *run) probe(addr string, names []string) *mixResult {
	r.warmUp(addr, names)
	quiesce()
	return runMix(addr, names, r.opts.seed, 2, r.probeLen())
}

// setUp performs a workload's set-up repeats() times over and keeps the
// last: prepare generates and writes the inputs into a fresh directory
// and returns how to boot the topology on them; the topology is booted
// and warmed with the request mix. Each repetition's length feeds
// setup_s and its boot boot_ready_s; tearing the previous repetition
// down is not part of either.
func (r *run) setUp(prepare func(dir string) (boot func() (*topology, error), names []string, err error)) (topo *topology, boot func() (*topology, error), err error) {
	for i := 0; i < r.repeats(); i++ {
		r.stop(topo)
		start := time.Now()
		dir, err := r.h.dir("inputs")
		if err != nil {
			return nil, nil, err
		}
		var names []string
		if boot, names, err = prepare(dir); err != nil {
			return nil, nil, err
		}
		if topo, err = boot(); err != nil {
			return nil, nil, err
		}
		r.warmUp(topo.front.addr, names)
		r.setupDurs = append(r.setupDurs, time.Since(start).Seconds())
		r.bootDurs = append(r.bootDurs, topo.bootDur.Seconds())
	}
	return topo, boot, nil
}

// runLookup is lookup-direct and lookup-routed: the request mix in a
// closed loop on two connections against one server, or against a
// router over two shards of the same graph.
func (r *run) runLookup(routed bool) error {
	var w *world
	var sw *shardedWorld
	topo, boot, err := r.setUp(func(dir string) (func() (*topology, error), []string, error) {
		var err error
		if w, err = genWorld(hostsFor(r.opts.workload, r.opts.tiny), r.opts.seed); err != nil {
			return nil, nil, err
		}
		if !routed {
			if w.files, err = writeWorld(dir+"/web", w.hosts, w.core); err != nil {
				return nil, nil, err
			}
			files := w.files
			return func() (*topology, error) { return r.bootSingle("server", files) }, w.hosts.Names, nil
		}
		if sw, err = partitionWorld(w, 2); err != nil {
			return nil, nil, err
		}
		for s, part := range sw.parts {
			if part.files, err = writeWorld(fmt.Sprintf("%s/web.shard%d", dir, s), part.hosts, part.core); err != nil {
				return nil, nil, err
			}
		}
		parts := sw
		return func() (*topology, error) { return r.bootRouted(parts) }, w.hosts.Names, nil
	})
	if err != nil {
		return err
	}
	defer func() { r.stop(topo) }()

	if r.opts.layers {
		from, err := scrapeAll(topo)
		if err != nil {
			return err
		}
		r.scrapeFrom = from
	}
	quiesce()
	m := runMix(topo.front.addr, w.hosts.Names, r.opts.seed, 2, r.dur(1))
	r.reportLookups(m.ops[opLookup], m.phase)
	r.reportMix(m)
	if r.opts.layers {
		to, err := scrapeAll(topo)
		if err != nil {
			return err
		}
		r.set("serve.shed_total", counterDelta(r.scrapeFrom, to, "serve_shed_total"), 0)
		if routed {
			r.set("shard.hedges_total", counterDelta(r.scrapeFrom, to, "shard_hedges_total"), 0)
			r.set("shard.stale_retries_total", counterDelta(r.scrapeFrom, to, "shard_stale_retries_total"), 0)
			r.set("shard.errors_total", counterDelta(r.scrapeFrom, to, "shard_errors_total"), 0)
		}
	}

	// Correctness, outside the timing: every shard (or the one server)
	// against the harness's own solve of the graph it was given, and the
	// router against its shards.
	if routed {
		for s, part := range sw.parts {
			est, err := r.estimatesFor(part)
			if err != nil {
				return err
			}
			r.addCheck(checkReference(fmt.Sprintf("reference-scores-shard%d", s), topo.data[s], part, est, r.opts.seed))
		}
		est, err := r.estimatesFor(w)
		if err != nil {
			return err
		}
		r.addCheck(checkRouterTransparent(topo.front, topo.data, sw, w, sampleNodes(est, r.opts.seed, sampleSize)))
	} else {
		est, err := r.estimatesFor(w)
		if err != nil {
			return err
		}
		r.addCheck(checkReference("reference-scores", topo.front, w, est, r.opts.seed))
	}

	if err := r.refreshTail(topo); err != nil {
		return err
	}
	if topo, err = r.recoveries(topo, boot); err != nil {
		return err
	}
	r.finish(topo)
	if r.opts.layers {
		return r.layerPassLookup(w, sw)
	}
	return nil
}

// runSolveCold boots one server on the largest graph and refreshes it
// back to back: graph load, two cold solves to ε = 1e-10 and the
// snapshot build, with the request path idle. A short closed-loop probe
// of the refreshed snapshot follows, so the lookup metrics exist here
// too — on a working set two and a half times the lookup workloads'.
func (r *run) runSolveCold() error {
	var w *world
	for i := 0; i < r.repeats(); i++ {
		start := time.Now()
		dir, err := r.h.dir("inputs")
		if err != nil {
			return err
		}
		if w, err = genWorld(hostsFor(r.opts.workload, r.opts.tiny), r.opts.seed); err != nil {
			return err
		}
		if w.files, err = writeWorld(dir+"/web", w.hosts, w.core); err != nil {
			return err
		}
		r.setupDurs = append(r.setupDurs, time.Since(start).Seconds())
	}
	boot := func() (*topology, error) { return r.bootSingle("server", w.files) }

	// The measured phase: boot (a few times over, for a median), then
	// refresh until the time is up.
	phase := time.Now()
	var topo *topology
	defer func() { r.stop(topo) }()
	for i := 0; i < r.repeats(); i++ {
		r.stop(topo)
		var err error
		if topo, err = boot(); err != nil {
			return err
		}
		r.bootDurs = append(r.bootDurs, topo.bootDur.Seconds())
	}
	var durs []float64
	for len(durs) < 4 || time.Since(phase) < r.dur(1) {
		d, err := refreshAll(topo)
		r.count(1, 0)
		if err != nil {
			r.count(0, 1)
			return err
		}
		durs = append(durs, d.Seconds())
	}
	r.set("refresh_p50_s", median(durs), len(durs))

	m := r.probe(topo.front.addr, w.hosts.Names)
	r.reportLookups(m.ops[opLookup], m.phase)
	r.reportMix(m)

	est, err := r.estimatesFor(w)
	if err != nil {
		return err
	}
	r.addCheck(checkReference("reference-scores", topo.front, w, est, r.opts.seed))
	r.addCheck(checkEpoch(topo.front, int64(1+len(durs))))

	if topo, err = r.recoveries(topo, boot); err != nil {
		return err
	}
	r.finish(topo)
	if r.opts.layers {
		return r.layerPassRefresh(w)
	}
	return nil
}

// checkEpoch requires the server to report exactly the expected epoch.
func checkEpoch(s *server, want int64) check {
	c := check{Name: "epoch"}
	got, err := servedEpoch(s)
	if err != nil {
		c.Detail = err.Error()
		return c
	}
	c.OK = got == want
	c.Detail = fmt.Sprintf("serving epoch %d, expected %d", got, want)
	return c
}

// runWorkload runs one workload end to end and returns its result. A
// returned error means the harness could not measure (a server failed
// to boot, an admin request failed); a failed correctness check is not
// an error but Correct == false.
func runWorkload(h *harness, tr *tracer, opts runOpts) (*result, error) {
	r := &run{h: h, opts: opts, tr: tr,
		res: &result{Workload: opts.workload, Seed: opts.seed, Seconds: opts.seconds, Correct: true,
			Metrics: map[string]float64{}, Samples: map[string]int{}}}
	start := time.Now()
	var err error
	switch opts.workload {
	case "lookup-direct":
		err = r.runLookup(false)
	case "lookup-routed":
		err = r.runLookup(true)
	case "ingest-fresh":
		err = r.runIngest()
	case "solve-cold":
		err = r.runSolveCold()
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", opts.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", opts.workload, err)
	}
	if r.res.Failed > 0 {
		r.note("%d of %d operations failed", r.res.Failed, r.res.Attempted)
	}
	logf("%s: done in %.1fs", opts.workload, time.Since(start).Seconds())
	return r.res, nil
}
