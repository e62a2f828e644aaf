package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer serves the runtime-introspection endpoints while a run
// is in flight: /debug/vars (expvar, including a published Registry),
// /metrics (Prometheus text exposition of the same registry), and
// /debug/pprof/ (CPU, heap, goroutine, … profiles). It is
// spamserver's -debug-addr endpoint.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// StartDebug listens on addr (e.g. "localhost:6060"; use ":0" for an
// ephemeral port) and serves the debug endpoints in a background
// goroutine. reg, if non-nil, is published to expvar under
// "spammass" first so it shows up on /debug/vars.
func StartDebug(addr string, reg *Registry) (*DebugServer, error) {
	reg.PublishExpvar("spammass")
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", PrometheusHandler(reg))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	d := &DebugServer{ln: ln, srv: srv}
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	return d, nil
}

// Addr returns the address the server is listening on.
func (d *DebugServer) Addr() string {
	if d == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Close stops the server immediately, aborting in-flight requests and
// releasing the listener (and therefore the port).
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	return d.srv.Close()
}
