package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// requestTimeout bounds one request of the load; a request that runs
// into it counts as failed.
const requestTimeout = 5 * time.Second

// client is one load connection: a persistent HTTP/1.1 connection
// driven by the goroutine that owns it. It writes a pre-rendered
// request and parses the reply in place — no transport goroutines and
// no channel hand-offs sit between the send and the body read, so on
// this two-core box the generator's own scheduling stays out of the
// 100 µs being measured.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func newClient(addr string) *client { return &client{addr: addr} }

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends req and reads the whole reply. The returned body is valid
// until the next call. Any transport error drops the connection; the
// next call dials again.
func (c *client) do(req []byte) (status int, body []byte, err error) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return 0, nil, err
		}
		c.conn = conn
		c.br = bufio.NewReaderSize(conn, 64<<10)
	}
	if err := c.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		c.close()
		return 0, nil, err
	}
	if _, err := c.conn.Write(req); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// getReq renders a bodyless GET.
func getReq(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// postReq renders a POST with the given body.
func postReq(path, contentType string, body []byte) []byte {
	var b bytes.Buffer
	b.WriteString("POST " + path + " HTTP/1.1\r\nHost: bench\r\nContent-Type: " + contentType +
		"\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n")
	b.Write(body)
	return b.Bytes()
}

// The request mix of the lookup workloads, in percent. Callers are
// ranking and indexing pipelines: mostly point lookups with a popular
// head (Zipf), a steady share of 64-host batches, the occasional
// ranking page, and a trickle of hosts the snapshot does not know.
const (
	mixMissPct  = 1
	mixBatchPct = 9
	mixTopPct   = 1
	batchSize   = 64
	zipfS       = 1.1
)

type opKind int

const (
	opLookup opKind = iota
	opMiss
	opBatch
	opTop
	numKinds
)

// popularity draws host names with Zipf(s=1.1) popularity over a seeded
// permutation of the hosts, so the popular head is spread over the ID
// space (and over both shards) instead of sitting on webgen's
// lowest-numbered block.
type popularity struct {
	names []string
	perm  []int32
	zipf  *rand.Zipf
}

func newPopularity(names []string, permSeed int64, rng *rand.Rand) *popularity {
	perm := make([]int32, len(names))
	for i := range perm {
		perm[i] = int32(i)
	}
	rand.New(rand.NewSource(permSeed)).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return &popularity{names: names, perm: perm, zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(names)-1))}
}

func (p *popularity) next() string { return p.names[p.perm[p.zipf.Uint64()]] }

// mixGen produces the seeded request stream of one connection.
type mixGen struct {
	rng *rand.Rand
	pop *popularity
	buf bytes.Buffer
}

func newMixGen(names []string, seed int64, connIndex int) *mixGen {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(connIndex)))
	return &mixGen{rng: rng, pop: newPopularity(names, seed, rng)}
}

// next returns the next request of the mix, its kind, and — for a point
// lookup — the host asked for.
func (m *mixGen) next() (kind opKind, req []byte, host string) {
	switch r := m.rng.Intn(100); {
	case r < mixMissPct:
		return opMiss, getReq(fmt.Sprintf("/v1/host/unknown-%d.example", m.rng.Int63())), ""
	case r < mixMissPct+mixBatchPct:
		m.buf.Reset()
		m.buf.WriteString(`{"hosts":[`)
		for i := 0; i < batchSize; i++ {
			if i > 0 {
				m.buf.WriteByte(',')
			}
			m.buf.WriteByte('"')
			m.buf.WriteString(m.pop.next()) // generated host names need no JSON escaping
			m.buf.WriteByte('"')
		}
		m.buf.WriteString(`]}`)
		return opBatch, postReq("/v1/batch", "application/json", m.buf.Bytes()), ""
	case r < mixMissPct+mixBatchPct+mixTopPct:
		return opTop, getReq("/v1/top?metric=relmass&n=100"), ""
	}
	host = m.pop.next()
	return opLookup, getReq("/v1/host/" + host), host
}

// answerOK is the per-request check of the load loop: the right status
// and the cheap shape of the right answer. Scores are verified against
// the reference solve in a separate sampled pass, outside the timing.
func answerOK(kind opKind, host string, status int, body []byte) bool {
	switch kind {
	case opLookup:
		return status == http.StatusOK && bytes.HasPrefix(body, []byte(`{"host":"`+host+`"`))
	case opMiss:
		return status == http.StatusNotFound
	case opBatch:
		return status == http.StatusOK && bytes.HasSuffix(bytes.TrimSpace(body), []byte(`"misses":0}`))
	case opTop:
		return status == http.StatusOK && bytes.Contains(body[:min(len(body), 64)], []byte(`"metric":"relmass"`))
	}
	return false
}

// mixResult is what one closed-loop phase observed.
type mixResult struct {
	phase     time.Duration
	ops       [numKinds][]timed
	attempted int64
	failed    int64
}

func (r *mixResult) completed() int64 { return r.attempted - r.failed }

// runMix drives the request mix against addr in a closed loop — each
// connection sends its next request when the previous reply has been
// read, as a pipeline that waits for its answers does — for the given
// duration on conns connections.
func runMix(addr string, names []string, seed int64, conns int, dur time.Duration) *mixResult {
	parts := make([]*mixResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := &mixResult{}
			parts[i] = res
			gen := newMixGen(names, seed, i)
			c := newClient(addr)
			defer c.close()
			for {
				kind, req, host := gen.next()
				sent := time.Now()
				if sent.Sub(start) >= dur {
					return
				}
				status, body, err := c.do(req)
				done := time.Now()
				res.attempted++
				if err != nil || !answerOK(kind, host, status, body) {
					res.failed++
					continue
				}
				res.ops[kind] = append(res.ops[kind], timed{end: done.Sub(start), lat: done.Sub(sent)})
			}
		}(i)
	}
	wg.Wait()
	out := &mixResult{phase: dur}
	for _, p := range parts {
		out.attempted += p.attempted
		out.failed += p.failed
		for k := range p.ops {
			out.ops[k] = append(out.ops[k], p.ops[k]...)
		}
	}
	return out
}

// pacer schedules one connection's paced stream: request i is due at
// start + i·interval, whatever happened to the requests before it.
type pacer struct {
	start    time.Time
	interval time.Duration
	i        int
	prevDone time.Time
	late     []float64 // generator lateness per send, µs
}

func newPacer(start time.Time, interval time.Duration) *pacer {
	return &pacer{start: start, interval: interval, prevDone: start}
}

// wait blocks until the next request is due (or returns at once when
// it already is) and returns the time its latency counts from; see
// pacedStart for the rule. ok is false once the due time is at or past
// end.
func (p *pacer) wait(end time.Time) (from time.Time, ok bool) {
	due := p.start.Add(time.Duration(p.i) * p.interval)
	if !due.Before(end) {
		return time.Time{}, false
	}
	p.i++
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	sent := time.Now()
	from, lateBy := pacedStart(due, p.prevDone, sent)
	if !p.prevDone.After(due) {
		p.late = append(p.late, float64(lateBy)/float64(time.Microsecond))
	}
	return from, true
}

// done records when the connection finished the request.
func (p *pacer) done(t time.Time) { p.prevDone = t }
