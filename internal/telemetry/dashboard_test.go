package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestDashboardShape pins the dashboard page's structure: every
// section the in-page script renders into must exist, and the
// registered extra endpoints must be injected so the script knows
// which optional feeds (/healthz, /spans, /tenants.json) to poll.
func TestDashboardShape(t *testing.T) {
	RegisterHandler("/tenants.json", http.NotFoundHandler())
	defer RegisterHandler("/tenants.json", nil)

	rec := httptest.NewRecorder()
	DashboardHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/dashboard", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/dashboard status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("/dashboard content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`id="status"`,
		`id="health"`,
		`id="ranks"`,
		`id="solver"`,
		`id="events"`,
		`id="tenants"`,
		`id="metrics"`,
		"const EXTRA_ENDPOINTS",
		`"/tenants.json"`,
		`fetch("/metrics.json"`,
		`fetch("/tenants.json"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/dashboard missing %q", want)
		}
	}
	if !strings.HasPrefix(body, "<!DOCTYPE html>") {
		t.Errorf("/dashboard does not start with a doctype")
	}
}

// TestMetricsJSONGoldenShape pins the /metrics.json wire format field
// by field — the dashboard's JS, spmvtop, and ReadSnapshot all parse
// this shape, so a rename here is a cross-tool break.
func TestMetricsJSONGoldenShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total", L("rank", "0")).Add(2)
	r.Gauge("depth").Set(1.5)
	r.Histogram("sizes", []float64{10, 100}).Observe(42)

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics.json", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics.json status %d", rec.Code)
	}
	var doc struct {
		Metrics []map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/metrics.json not JSON: %v", err)
	}
	if len(doc.Metrics) != 3 {
		t.Fatalf("%d series, want 3", len(doc.Metrics))
	}
	byName := map[string]map[string]json.RawMessage{}
	for _, m := range doc.Metrics {
		var name string
		if err := json.Unmarshal(m["name"], &name); err != nil {
			t.Fatalf("series without a name field: %v", m)
		}
		byName[name] = m
	}

	counter := byName["runs_total"]
	for _, field := range []string{"name", "type", "value", "labels"} {
		if _, ok := counter[field]; !ok {
			t.Errorf("counter series missing %q: %v", field, counter)
		}
	}
	var labels map[string]string
	if err := json.Unmarshal(counter["labels"], &labels); err != nil || labels["rank"] != "0" {
		t.Errorf("counter labels = %s (err %v), want rank=0", counter["labels"], err)
	}

	hist := byName["sizes"]
	for _, field := range []string{"buckets", "sum", "count"} {
		if _, ok := hist[field]; !ok {
			t.Errorf("histogram series missing %q: %v", field, hist)
		}
	}
	var typ string
	if err := json.Unmarshal(hist["type"], &typ); err != nil || typ != "histogram" {
		t.Errorf("histogram type = %s, want \"histogram\"", hist["type"])
	}

	// The snapshot must round-trip through the reader every consumer
	// uses.
	snap, err := ReadSnapshot(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if len(snap) != 3 {
		t.Fatalf("round-trip kept %d series, want 3", len(snap))
	}
}

// TestServeMuxIncludesRegisteredRoutes: a route registered before
// Serve shows up on the mux, so /tenants.json from internal/service
// reaches the page.
func TestServeMuxIncludesRegisteredRoutes(t *testing.T) {
	RegisterHandler("/tenants.json", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`[]`))
	}))
	defer RegisterHandler("/tenants.json", nil)

	mux := serveMux(NewRegistry())
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/tenants.json", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/tenants.json status %d", rec.Code)
	}
	var rows []any
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
		t.Fatalf("/tenants.json not JSON: %v", err)
	}
}

// TestRegisterHandlerNilRemovesRoute: registering a nil handler takes
// the route off later muxes and off the dashboard's endpoint list.
func TestRegisterHandlerNilRemovesRoute(t *testing.T) {
	RegisterHandler("/probe.json", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {}))
	RegisterHandler("/probe.json", nil)
	rec := httptest.NewRecorder()
	serveMux(NewRegistry()).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/probe.json", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("removed route status %d, want 404", rec.Code)
	}
	for _, p := range registeredPatterns() {
		if p == "/probe.json" {
			t.Fatal("removed route still listed")
		}
	}
}

// shadowHandler is a registered route that must never answer at a
// core route's pattern.
type shadowHandler struct{}

func (shadowHandler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	_, _ = w.Write([]byte("shadow"))
}

// TestRegisteredRouteCannotShadowCoreRoute: a handler registered at a
// core route's pattern is ignored, so the registry, the dashboard,
// expvar and pprof keep answering there, and Serve starts.
func TestRegisteredRouteCannotShadowCoreRoute(t *testing.T) {
	for _, pattern := range []string{
		"/metrics", "/metrics.json", "/dashboard", "/debug/vars",
		"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/profile", "/debug/pprof/symbol", "/debug/pprof/trace",
	} {
		t.Run(pattern, func(t *testing.T) {
			RegisterHandler(pattern, shadowHandler{})
			// Not deferred: were serveMux to mount the handler, the
			// mux's duplicate-pattern panic would leave extraMu held.
			mux := serveMux(NewRegistry())
			srv, err := Serve("127.0.0.1:0", NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			_ = srv.Close()
			RegisterHandler(pattern, nil)
			req := httptest.NewRequest(http.MethodGet, pattern, nil)
			if h, _ := mux.Handler(req); h == (shadowHandler{}) {
				t.Fatalf("%s routed to the registered handler", pattern)
			}
			if strings.HasPrefix(pattern, "/debug/pprof/") {
				return // serving would run a CPU profile or trace
			}
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK || rec.Body.String() == "shadow" {
				t.Fatalf("%s answered %d %q, want the core handler", pattern, rec.Code, rec.Body.String())
			}
		})
	}
}

// TestServeMuxPanicReleasesLock: a registered pattern the mux refuses
// makes serveMux panic, and RegisterHandler still returns afterwards.
func TestServeMuxPanicReleasesLock(t *testing.T) {
	const bad = "/{"
	RegisterHandler(bad, shadowHandler{})
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("serveMux accepted the malformed pattern %q", bad)
			}
		}()
		serveMux(NewRegistry())
	}()
	done := make(chan struct{})
	go func() {
		RegisterHandler(bad, nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RegisterHandler blocked after serveMux panicked")
	}
}
