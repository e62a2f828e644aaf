package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The ingest-fresh load. The delta stream is paced slower than the
// server can apply (a warm apply of one batch on the 100k-host graph
// takes about a fifth of a second), so freshness measures the apply
// path and not a growing queue; the canary is fast enough to see a
// sentinel within 5 ms of its publish.
const (
	deltaInterval  = 400 * time.Millisecond  // 2.5 batches/s
	canaryInterval = 2500 * time.Microsecond // 400 requests/s, every other one a sentinel poll
	pinnedReplay   = 10                      // batches between the last snapshot and the SIGKILL
	drainTimeout   = 20 * time.Second
)

// sentinel is an acknowledged batch whose host has not been served yet.
type sentinel struct {
	k     int
	acked time.Time
}

// ingestPhaseA runs the paced delta stream on one connection beside the
// paced canary on the other, for the given time, and returns what the
// two saw.
type phaseA struct {
	acks      []float64 // POST /admin/delta → 202, ms
	freshness []float64 // 202 of batch k → first 200 for its sentinel, ms
	lookups   []timed   // canary point lookups of Zipf hosts
	sent      int       // batches acknowledged, 1..sent
	attempted int64
	failed    int64
	late      []float64
}

func (r *run) ingestPhaseA(addr string, names []string, ds *deltaStream, dur time.Duration) *phaseA {
	out := &phaseA{}
	var mu sync.Mutex
	var outstanding []sentinel
	streamDone := false

	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(2)

	// Connection 1: the delta stream.
	var dAttempted, dFailed int64
	var dLate []float64
	go func() {
		defer wg.Done()
		c := newClient(addr)
		defer c.close()
		pc := newPacer(start, deltaInterval)
		for k := 1; k <= len(ds.bodies)-pinnedReplay; k++ {
			from, ok := pc.wait(end)
			if !ok {
				break
			}
			status, _, err := c.do(postReq("/admin/delta", "text/plain", ds.bodies[k-1]))
			done := time.Now()
			pc.done(done)
			dAttempted++
			if err != nil || status != http.StatusAccepted {
				dFailed++
				break // the stream is ordered: a lost batch invalidates every later one
			}
			mu.Lock()
			out.acks = append(out.acks, float64(done.Sub(from))/float64(time.Millisecond))
			out.sent = k
			outstanding = append(outstanding, sentinel{k: k, acked: done})
			mu.Unlock()
		}
		mu.Lock()
		streamDone = true
		mu.Unlock()
		dLate = pc.late
	}()

	// Connection 2: the canary. Every other request polls the oldest
	// sentinel not yet seen (404 until its batch is published is the
	// expected answer); the rest are Zipf lookups, timed as lookup_*.
	// Past the end of the phase it keeps polling, at the sentinel
	// cadence, until every acknowledged batch has been seen served.
	var cAttempted, cFailed int64
	var cLate []float64
	go func() {
		defer wg.Done()
		c := newClient(addr)
		defer c.close()
		rng := rand.New(rand.NewSource(r.opts.seed*1000003 + 1))
		pop := newPopularity(names, r.opts.seed, rng)
		pc := newPacer(start, canaryInterval)
		oldest := func() (s sentinel, ok, done bool) {
			mu.Lock()
			defer mu.Unlock()
			if len(outstanding) > 0 {
				return outstanding[0], true, false
			}
			return sentinel{}, false, streamDone
		}
		poll := func(s sentinel) {
			status, _, err := c.do(getReq("/v1/host/" + sentinelName(s.k)))
			seen := time.Now()
			pc.done(seen)
			cAttempted++
			switch {
			case err != nil || (status != http.StatusOK && status != http.StatusNotFound):
				cFailed++
			case status == http.StatusOK:
				mu.Lock()
				out.freshness = append(out.freshness, float64(seen.Sub(s.acked))/float64(time.Millisecond))
				outstanding = outstanding[1:]
				mu.Unlock()
			}
		}
		for i := 0; ; i++ {
			from, inPhase := pc.wait(end)
			if !inPhase {
				break
			}
			if s, ok, _ := oldest(); ok && i%2 == 1 {
				poll(s)
				continue
			}
			host := pop.next()
			status, body, err := c.do(getReq("/v1/host/" + host))
			done := time.Now()
			pc.done(done)
			cAttempted++
			if err != nil || !answerOK(opLookup, host, status, body) {
				cFailed++
				continue
			}
			out.lookups = append(out.lookups, timed{end: done.Sub(start), lat: done.Sub(from)})
		}
		for {
			s, ok, done := oldest()
			if done {
				break
			}
			if time.Since(end) > drainTimeout {
				mu.Lock()
				cAttempted += int64(len(outstanding))
				cFailed += int64(len(outstanding)) // acknowledged, never served
				mu.Unlock()
				break
			}
			if ok {
				poll(s)
			}
			time.Sleep(2 * canaryInterval)
		}
		cLate = pc.late
	}()
	wg.Wait()
	out.attempted = dAttempted + cAttempted
	out.failed = dFailed + cFailed
	out.late = append(dLate, cLate...)
	return out
}

// applyWait posts one batch with ?wait=1 and requires the published
// answer.
func applyWait(c *client, body []byte) error {
	status, reply, err := c.do(postReq("/admin/delta?wait=1", "text/plain", body))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("delta?wait=1 answered %d: %s", status, reply)
	}
	return nil
}

// waitSnapshot blocks until the WAL directory holds a snapshot file
// covering sequence seq — the compactor folded every batch so far.
func waitSnapshot(walDir string, seq int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		entries, err := os.ReadDir(walDir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
				continue
			}
			body := strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap")
			if i := strings.IndexByte(body, '-'); i > 0 {
				if got, err := strconv.Atoi(body[:i]); err == nil && got >= seq {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no snapshot covering seq %d appeared in %s within %s", seq, walDir, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// servedEpoch reads the epoch from /admin/status.
func servedEpoch(s *server) (int64, error) {
	status, body, err := adminDo(http.MethodGet, s.url("/admin/status"), nil)
	if err != nil {
		return 0, err
	}
	var st struct {
		Epoch int64 `json:"epoch"`
	}
	if status != http.StatusOK || json.Unmarshal(body, &st) != nil {
		return 0, fmt.Errorf("%s /admin/status: status %d, body %s", s.name, status, body)
	}
	return st.Epoch, nil
}

// runIngest is ingest-fresh: a durable server taking a paced delta
// stream beside a read canary (phase A), then back-to-back synchronous
// deltas (phase B), then a SIGKILL a pinned number of batches after a
// snapshot and a timed restart on the same WAL (phase C).
func (r *run) runIngest() error {
	aLen, bLen := r.dur(0.55), r.dur(0.2)
	// The compactor period must outlast the pinned batches of phase C,
	// so the replay count is the same on every run.
	compactEvery := 4 * time.Second
	if r.opts.tiny {
		compactEvery = time.Second
	}
	// Enough batches for the paced phase, the back-to-back phase at a
	// rate well above what the apply path reaches, and the pinned tail.
	count := int(aLen/deltaInterval) + 2 + int(bLen.Seconds()*25) + pinnedReplay

	var w *world
	var ds *deltaStream
	var walDir string
	topo, boot, err := r.setUp(func(dir string) (func() (*topology, error), []string, error) {
		var err error
		if w, err = genWorld(hostsFor(r.opts.workload, r.opts.tiny), r.opts.seed); err != nil {
			return nil, nil, err
		}
		if w.files, err = writeWorld(dir+"/web", w.hosts, w.core); err != nil {
			return nil, nil, err
		}
		if ds, err = genDeltaStream(w.hosts, r.opts.seed, count); err != nil {
			return nil, nil, err
		}
		if err = ds.writeDeltaFiles(dir); err != nil {
			return nil, nil, err
		}
		walDir = filepath.Join(dir, "wal")
		files, wal := w.files, walDir
		return func() (*topology, error) {
			return r.bootSingle("server", files, "-wal-dir", wal, "-compact-every", compactEvery.String())
		}, w.hosts.Names, nil
	})
	if err != nil {
		return err
	}
	defer func() { r.stop(topo) }()
	srv := topo.front
	if r.opts.layers {
		from, err := scrapeAll(topo)
		if err != nil {
			return err
		}
		r.scrapeFrom = from
	}

	// Phase A.
	quiesce()
	a := r.ingestPhaseA(srv.addr, w.hosts.Names, ds, aLen)
	r.count(a.attempted, a.failed)
	r.timerLate = a.late
	acks, fresh := sortedCopy(a.acks), sortedCopy(a.freshness)
	r.set("delta_ack_p50_ms", percentile(acks, 50), len(acks))
	r.set("delta_ack_p90_ms", percentile(acks, 90), len(acks))
	r.set("freshness_p50_ms", percentile(fresh, 50), len(fresh))
	r.set("freshness_p90_ms", percentile(fresh, 90), len(fresh))
	if !supported(len(acks), 90) {
		r.note("phase A acknowledged %d batches: p90 has fewer than %d samples beyond it at this run length", len(acks), minBeyond)
	}
	// lookup_* on this workload is the canary beside the writes.
	r.reportLookups(a.lookups, aLen)
	applied := a.sent
	streamOK := a.failed == 0 && len(a.freshness) == a.sent

	// Phase B: one connection, back to back.
	c := newClient(srv.addr)
	defer c.close()
	startB := time.Now()
	lastDone := startB
	inB := 0
	for time.Since(startB) < bLen && applied < len(ds.bodies)-pinnedReplay {
		r.count(1, 0)
		if err := applyWait(c, ds.bodies[applied]); err != nil {
			r.count(0, 1)
			r.note("phase B batch %d: %v", applied+1, err)
			streamOK = false
			break
		}
		applied++
		inB++
		lastDone = time.Now()
	}
	if inB > 0 {
		r.set("deltas_per_s", float64(inB)/lastDone.Sub(startB).Seconds(), inB)
	}

	// The served scores must equal a cold solve of the graph the
	// acknowledged batches leave behind.
	if streamOK {
		hosts, core, err := ds.shadowAfter(w.hosts, w.core, applied)
		if err != nil {
			return fmt.Errorf("shadow graph: %w", err)
		}
		shadow := &world{hosts: hosts, core: core}
		est, err := r.estimatesFor(shadow)
		if err != nil {
			return err
		}
		r.addCheck(checkReference("warm-scores-vs-cold-reference", srv, shadow, est, r.opts.seed))
	} else {
		r.addCheck(check{Name: "warm-scores-vs-cold-reference", Detail: "the delta stream had failed or unserved batches"})
	}

	// Phase C: wait for the compactor to fold everything so far, apply
	// the pinned batches, SIGKILL, restart on the same WAL.
	if err := waitSnapshot(walDir, applied, 3*compactEvery+10*time.Second); err != nil {
		return err
	}
	snapAt := time.Now()
	for i := 0; i < pinnedReplay && streamOK; i++ {
		r.count(1, 0)
		if err := applyWait(c, ds.bodies[applied]); err != nil {
			r.count(0, 1)
			r.note("phase C batch %d: %v", applied+1, err)
			streamOK = false
			break
		}
		applied++
	}
	if time.Since(snapAt) > compactEvery-compactEvery/8 {
		r.note("the %d pinned batches took %s, close to the compactor period %s: the replay count may differ",
			pinnedReplay, time.Since(snapAt).Round(time.Millisecond), compactEvery)
	}
	var scrapeTo []map[string]float64
	if r.opts.layers {
		if scrapeTo, err = scrapeAll(topo); err != nil {
			return err
		}
	}
	c.close()
	if topo, err = r.recoveries(topo, boot); err != nil {
		return err
	}
	srv = topo.front

	r.addCheck(checkEpoch(srv, int64(1+applied)))
	missing := 0
	for k := 1; k <= applied; k++ {
		if status, _, err := lookupRaw(srv, sentinelName(k)); err != nil || status != http.StatusOK {
			missing++
		}
	}
	r.addCheck(check{Name: "acknowledged-sentinels-survive-sigkill", OK: missing == 0 && streamOK,
		Detail: fmt.Sprintf("%d of %d acknowledged sentinels missing after restart", missing, applied)})

	after, err := srv.scrape()
	if err != nil {
		return err
	}
	replayed := after["ingest_recovered_batches_total"]
	if int(replayed) != pinnedReplay {
		r.note("recovery replayed %.0f batches, not the pinned %d", replayed, pinnedReplay)
	}
	if r.opts.layers {
		batches := counterDelta(r.scrapeFrom, scrapeTo, "delta_batches_total")
		if batches > 0 {
			r.set("pagerank.warm_iters_per_batch", counterDelta(r.scrapeFrom, scrapeTo, "serve_refresh_iterations_warm_total")/batches, int(batches))
			r.set("ingest.fsyncs_per_batch", counterDelta(r.scrapeFrom, scrapeTo, "ingest_wal_fsyncs_total")/batches, int(batches))
		}
		var userBytes float64
		for _, b := range ds.bodies[:int(batches)] {
			userBytes += float64(len(b))
		}
		if userBytes > 0 {
			r.set("ingest.wal_bytes_per_user_byte", counterDelta(r.scrapeFrom, scrapeTo, "ingest_wal_append_bytes_total")/userBytes, 0)
		}
		r.set("serve.ingest_rejected_total", counterDelta(r.scrapeFrom, scrapeTo, "serve_ingest_rejected_total"), 0)
		r.set("serve.shed_total", counterDelta(r.scrapeFrom, scrapeTo, "serve_shed_total"), 0)
		if replayed > 0 {
			r.set("ingest.replay_ms_per_batch", after["ingest_recovery_seconds_sum"]*1000/replayed, int(replayed))
		}
	}

	// The request mix against the recovered server, for the batch and
	// throughput figures; then the refresh tail.
	r.reportMix(r.probe(srv.addr, w.hosts.Names))
	if err := r.refreshTail(topo); err != nil {
		return err
	}
	r.finish(topo)
	if r.opts.layers {
		return r.layerPassDelta(w, ds)
	}
	return nil
}
