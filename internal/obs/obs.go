// Package obs is the observability layer of the spam-mass pipeline:
// a concurrency-safe metrics registry (counters, gauges, log-bucket
// timing histograms) exposed via expvar and Prometheus text,
// lightweight hierarchical spans that serialize to a JSON trace, the
// per-host detection record the commands and the server emit, and an
// optional pprof/expvar debug HTTP endpoint.
//
// Everything is plumbed through a *Context, and a nil *Context (or a
// nil *Span, *Counter, …) is fully valid: every operation on a nil
// receiver is a no-op, so instrumented code pays a single pointer
// check when no sink is attached. The package depends only on the
// standard library; the rest of the system imports it, never the
// other way around.
package obs

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"time"
	"unsafe"
)

// Context carries the observability sinks through the pipeline: a
// metrics registry, a current root span that new spans attach to, and
// an optional line logger for verbose output. Any of the three may be
// absent. The zero Context and the nil *Context are both inert.
//
// A Context is safe for concurrent use except for SetRoot, which is
// meant for a single driving goroutine (a CLI switching between
// pipeline stages).
type Context struct {
	mu      sync.Mutex
	reg     *Registry
	root    *Span
	logf    func(format string, args ...any)
	traceID string
}

// NewContext builds a Context over a registry and a root span; either
// may be nil.
func NewContext(reg *Registry, root *Span) *Context {
	return &Context{reg: reg, root: root}
}

// WithLogf returns a copy of the context whose Logf forwards to f.
// The copy shares the registry and root span with the original.
func (c *Context) WithLogf(f func(format string, args ...any)) *Context {
	if c == nil {
		return &Context{logf: f}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return &Context{reg: c.reg, root: c.root, logf: f, traceID: c.traceID}
}

// In returns a context rooted at sp, so spans started through it
// become children of sp. Registry and logger are shared. In on a nil
// context returns nil; a nil sp returns c unchanged.
func (c *Context) In(sp *Span) *Context {
	if c == nil || sp == nil {
		return c
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return &Context{reg: c.reg, root: sp, logf: c.logf, traceID: c.traceID}
}

// WithTraceID returns a copy of the context tagged with a request
// trace ID; spans and metrics recorded through it can carry the ID so
// one slow request yields one coherent trace. On a nil context it
// returns nil — tracing never forces allocation into uninstrumented
// paths.
func (c *Context) WithTraceID(id string) *Context {
	if c == nil || id == "" {
		return c
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return &Context{reg: c.reg, root: c.root, logf: c.logf, traceID: id}
}

// TraceID returns the trace ID the context is tagged with, or "".
func (c *Context) TraceID() string {
	if c == nil {
		return ""
	}
	return c.traceID
}

// NewTraceID returns a 32-hex-digit trace ID (traceparent format).
// It is generated from math/rand/v2's process-global generator:
// collision-resistant for correlating logs and spans, not
// cryptographic — and ~20× cheaper than crypto/rand, which matters
// at six-figure request rates.
func NewTraceID() string {
	var b [32]byte
	hexEncode(b[:16], rand.Uint64())
	hexEncode(b[16:], rand.Uint64())
	return string(b[:])
}

// NewSpanID returns a 16-hex-digit span ID for traceparent headers.
func NewSpanID() string {
	var b [16]byte
	hexEncode(b[:], rand.Uint64())
	return string(b[:])
}

// TraceparentLen is the length of a W3C traceparent header value:
// "00-<32 hex trace id>-<16 hex span id>-01".
const TraceparentLen = 55

// Traceparent is a pre-rendered traceparent header value that a
// caller can embed in a per-request struct, so the header value, the
// trace ID, and the request bookkeeping all come out of one
// allocation. Render fills it; String and TraceID return views of the
// buffer without copying. The zero-copy contract: do not call Render
// again while strings from a previous Render are still in use — on
// the serving path the Traceparent lives and dies with its request,
// which satisfies this by construction.
//
// The root span ID reuses the low half of the trace ID: the trace ID
// is the correlation key, and spending a third PRNG draw plus sixteen
// more hex digits on an ID nothing dereferences would be pure
// hot-path tax.
type Traceparent [TraceparentLen]byte

// Render fills t with a fresh trace ID from math/rand/v2's global
// generator — collision-resistant for correlating logs and spans, not
// cryptographic, and far cheaper than crypto/rand at six-figure
// request rates.
func (t *Traceparent) Render() {
	copy(t[0:3], "00-")
	hexEncode(t[3:19], rand.Uint64())
	hexEncode(t[19:35], rand.Uint64())
	t[35] = '-'
	copy(t[36:52], t[19:35])
	copy(t[52:55], "-01")
}

// String returns the full header value, sharing t's storage.
func (t *Traceparent) String() string {
	return unsafe.String(&t[0], TraceparentLen)
}

// TraceID returns the embedded 32-hex-digit trace ID, sharing t's
// storage.
func (t *Traceparent) TraceID() string {
	return unsafe.String(&t[3], 32)
}

// hexPairs is the 256-entry table of two-digit lowercase hex
// renderings, so hexEncode emits a byte per iteration instead of a
// nibble — this runs once per served request.
var hexPairs = func() (t [256][2]byte) {
	const digits = "0123456789abcdef"
	for i := 0; i < 256; i++ {
		t[i] = [2]byte{digits[i>>4], digits[i&0xf]}
	}
	return
}()

func hexEncode(dst []byte, v uint64) {
	for i := len(dst) - 2; i >= 0; i -= 2 {
		p := hexPairs[byte(v)]
		dst[i], dst[i+1] = p[0], p[1]
		v >>= 8
	}
}

// reqKey keys the obs *Context smuggled through a context.Context.
type reqKey struct{}

// WithRequest attaches an obs context to a request context, so layers
// that only see a context.Context (refresh builds, delta appliers,
// solver calls) can pick up the request's trace root. A nil octx
// returns ctx unchanged.
func WithRequest(ctx context.Context, octx *Context) context.Context {
	if octx == nil {
		return ctx
	}
	return context.WithValue(ctx, reqKey{}, octx)
}

// RequestContext returns the obs context attached by WithRequest, or
// nil.
func RequestContext(ctx context.Context) *Context {
	if ctx == nil {
		return nil
	}
	octx, _ := ctx.Value(reqKey{}).(*Context)
	return octx
}

// RequestOr returns the obs context attached by WithRequest, or
// fallback when the request carries none: builders run under the
// caller's trace when there is one and under their own otherwise.
func RequestOr(ctx context.Context, fallback *Context) *Context {
	if ro := RequestContext(ctx); ro != nil {
		return ro
	}
	return fallback
}

// SetRoot swaps the span that new spans attach to and returns the
// previous one, for stage-scoped re-rooting:
//
//	prev := octx.SetRoot(stage)
//	defer octx.SetRoot(prev)
func (c *Context) SetRoot(sp *Span) (prev *Span) {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, c.root = c.root, sp
	return prev
}

// Registry returns the metrics registry, or nil.
func (c *Context) Registry() *Registry {
	if c == nil {
		return nil
	}
	return c.reg
}

// Root returns the span new spans currently attach to, or nil.
func (c *Context) Root() *Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.root
}

// Span starts a new span as a child of the current root. Without a
// root (but a non-nil context) it starts a detached span, so timings
// are still collected; on a nil context it returns nil.
func (c *Context) Span(name string) *Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	root := c.root
	c.mu.Unlock()
	if root == nil {
		return NewSpan(name)
	}
	return root.Child(name)
}

// Counter returns the named counter, or nil without a registry.
func (c *Context) Counter(name string) *Counter { return c.Registry().Counter(name) }

// Gauge returns the named gauge, or nil without a registry.
func (c *Context) Gauge(name string) *Gauge { return c.Registry().Gauge(name) }

// Histogram returns the named timing histogram, or nil without a
// registry.
func (c *Context) Histogram(name string) *Histogram { return c.Registry().Histogram(name) }

// Logging reports whether a line logger is attached.
func (c *Context) Logging() bool { return c != nil && c.logf != nil }

// Logf emits one line to the attached logger, if any.
func (c *Context) Logf(format string, args ...any) {
	if c == nil || c.logf == nil {
		return
	}
	c.logf(format, args...)
}

// StderrLogf returns a Logf sink writing one line per call to w.
func StderrLogf(w io.Writer) func(format string, args ...any) {
	var mu sync.Mutex
	return func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// CountingReader wraps an io.Reader and counts the bytes delivered,
// for I/O instrumentation of streaming graph loads and sweeps. N is
// owned by the reading goroutine; read it only after reading stops.
type CountingReader struct {
	R io.Reader
	N int64
}

func (c *CountingReader) Read(p []byte) (int, error) {
	n, err := c.R.Read(p)
	c.N += int64(n)
	return n, err
}

// now is stubbed in tests that need deterministic span timings.
var now = time.Now
