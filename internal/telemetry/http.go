package telemetry

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
)

// Handler returns an http.Handler serving this registry:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  JSON snapshot
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
	return mux
}

// extraHandlers are the process-wide routes other observability
// subsystems (internal/flight /spans, internal/health /healthz)
// contribute to every future Serve mux, registered before Serve is
// called so the cmd wiring stays one flag check per subsystem.
var (
	extraMu       sync.Mutex
	extraHandlers = map[string]http.Handler{}
)

// RegisterHandler contributes a route to every subsequently started
// Serve endpoint (a nil handler removes the route). Core routes
// (/metrics, /debug/...) cannot be overridden.
func RegisterHandler(pattern string, h http.Handler) {
	extraMu.Lock()
	defer extraMu.Unlock()
	if h == nil {
		delete(extraHandlers, pattern)
		return
	}
	extraHandlers[pattern] = h
}

// registeredPatterns lists the contributed routes, sorted (shown on
// the dashboard's endpoint list).
func registeredPatterns() []string {
	extraMu.Lock()
	defer extraMu.Unlock()
	out := make([]string, 0, len(extraHandlers))
	for p := range extraHandlers {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// serveMux builds the full introspection mux used by Serve: the
// registry endpoints, the live dashboard, expvar and pprof (the core
// routes), plus any registered extra handlers. A registered handler at
// a core route's pattern is skipped.
func serveMux(r *Registry) *http.ServeMux {
	h := r.Handler()
	core := map[string]http.Handler{
		"/metrics":             h,
		"/metrics.json":        h,
		"/dashboard":           DashboardHandler(),
		"/debug/vars":          expvar.Handler(),
		"/debug/pprof/":        http.HandlerFunc(pprof.Index),
		"/debug/pprof/cmdline": http.HandlerFunc(pprof.Cmdline),
		"/debug/pprof/profile": http.HandlerFunc(pprof.Profile),
		"/debug/pprof/symbol":  http.HandlerFunc(pprof.Symbol),
		"/debug/pprof/trace":   http.HandlerFunc(pprof.Trace),
	}
	mux := http.NewServeMux()
	for pattern, ch := range core {
		mux.Handle(pattern, ch)
	}
	// Deferred: mux.Handle panics on a malformed or conflicting
	// pattern, and the lock must not outlive that.
	extraMu.Lock()
	defer extraMu.Unlock()
	for pattern, eh := range extraHandlers {
		if core[pattern] == nil {
			mux.Handle(pattern, eh)
		}
	}
	return mux
}

// Server is a live introspection endpoint started by Serve.
type Server struct {
	// Addr is the bound address (useful with ":0" listeners).
	Addr string
	ln   net.Listener
	srv  *http.Server
}

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }

// Serve starts an HTTP endpoint on addr exposing the registry plus the
// standard Go introspection handlers, for watching long scaling or
// solver runs live:
//
//	/metrics, /metrics.json  the registry (see Handler)
//	/dashboard               self-contained auto-refreshing HTML view
//	/debug/vars              expvar
//	/debug/pprof/...         net/http/pprof
//
// plus any routes contributed via RegisterHandler (e.g. /spans when
// the flight recorder is enabled, /healthz when the health engine
// runs). It returns once the listener is bound; serving continues in
// the background until Close.
func Serve(addr string, r *Registry) (*Server, error) {
	mux := serveMux(r)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{Addr: ln.Addr().String(), ln: ln, srv: &http.Server{Handler: mux}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}
