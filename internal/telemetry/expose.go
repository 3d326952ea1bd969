package telemetry

import (
	"context"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// WriteText writes every registered metric in the Prometheus text
// exposition format (v0.0.4): # HELP / # TYPE headers, one line per
// sample, histograms as cumulative _bucket series plus _sum and _count.
// The output never contains exemplar annotations — v0.0.4 parsers
// reject them.
func (r *Registry) WriteText(w io.Writer) error {
	bw := &errWriter{w: w}
	for _, m := range r.metricsInOrder() {
		m.expose(bw, false)
	}
	return bw.err
}

// WriteText writes the Default registry; see Registry.WriteText.
func WriteText(w io.Writer) error { return defaultRegistry.WriteText(w) }

// WriteOpenMetrics writes the registry in the OpenMetrics-flavored text
// form: same series as WriteText plus `# {trace_id="..."} v ts`
// exemplar annotations on histogram bucket lines that have one, and the
// required `# EOF` terminator.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	bw := &errWriter{w: w}
	for _, m := range r.metricsInOrder() {
		m.expose(bw, true)
	}
	fmt.Fprint(bw, "# EOF\n")
	return bw.err
}

// errWriter remembers the first write error so expose implementations
// can stay error-blind.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, err
}

// Handler returns the observability mux for r:
//
//	/metrics       Prometheus text exposition of the registry
//	/debug/vars    expvar JSON (Go runtime memstats, cmdline)
//	/debug/pprof/  the standard pprof index, profiles and traces
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		// Exemplars ride only on the OpenMetrics rendering: scrapers opt
		// in via Accept content negotiation (or ?exemplars=1 for humans),
		// and classic v0.0.4 clients keep getting output their parsers
		// accept.
		if strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") ||
			req.URL.Query().Get("exemplars") == "1" {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			_ = r.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprintln(w, "trickledown telemetry: /metrics /debug/vars /debug/pprof/")
	})
	return mux
}

// Handler returns the Default registry's observability mux.
func Handler() http.Handler { return defaultRegistry.Handler() }

// ObsServer is a running observability listener returned by Serve. It
// exists so long-lived processes (tdserve) can drain the metrics
// endpoint on SIGTERM instead of leaking the listener until exit.
type ObsServer struct {
	addr net.Addr
	srv  *http.Server
}

// Addr returns the bound listen address.
func (o *ObsServer) Addr() net.Addr { return o.addr }

// Shutdown gracefully drains the observability server: in-flight
// scrapes finish, new connections are refused.
func (o *ObsServer) Shutdown(ctx context.Context) error { return o.srv.Shutdown(ctx) }

// Close abruptly closes the listener and any active connections.
func (o *ObsServer) Close() error { return o.srv.Close() }

// Serve starts the observability server for r on addr (":0" picks a free
// port) in a background goroutine. Short-lived CLI runs may discard the
// handle; daemons keep it and call Shutdown during drain.
func (r *Registry) Serve(addr string) (*ObsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: r.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &ObsServer{addr: ln.Addr(), srv: srv}, nil
}

// Serve starts the Default registry's observability server; see
// Registry.Serve.
func Serve(addr string) (*ObsServer, error) { return defaultRegistry.Serve(addr) }
