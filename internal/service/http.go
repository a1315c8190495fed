package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"pjds/internal/telemetry"
)

// Request headers understood by the service API.
const (
	// HeaderTenant names the caller; requests without it share the
	// "anonymous" tenant (and its quota).
	HeaderTenant = "X-Tenant"
	// HeaderDeadlineMs bounds the request end to end, queue wait
	// included. The value propagates into the per-application context,
	// so an expired deadline cancels a solve between kernel replays.
	HeaderDeadlineMs = "X-Deadline-Ms"
)

// maxBodyBytes bounds one request body (vectors are O(n) float64s).
const maxBodyBytes = 64 << 20

// maxDeadlineMs is the largest X-Deadline-Ms that still fits a
// time.Duration; larger values, infinities and NaN are rejected.
const maxDeadlineMs = float64(math.MaxInt64 / int64(time.Millisecond))

// APIHandler returns the service API:
//
//	POST /v1/matrices  upload a MatrixMarket body, returns MatrixInfo
//	GET  /v1/matrices  list stored matrices
//	POST /v1/spmv      {"matrix": id, "x": [...] | "seed": n} → SpMVResult
//	POST /v1/solve     {"matrix": id, "b"|"seed", "tol", "max_iter"} → SolveResult
//	GET  /v1/status    service-wide state (tier, queue, latency, drain)
//	GET  /tenants.json per-tenant table for the dashboard and spmvtop
func (s *Server) APIHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/matrices", s.handleMatrices)
	mux.HandleFunc("/v1/spmv", s.handleSpMV)
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/tenants.json", s.handleTenants)
	return mux
}

// RegisterHTTP contributes the API to every telemetry.Serve endpoint,
// so the service shares one port with /metrics, /dashboard, /healthz,
// /spans and the rest of the observability surface.
func (s *Server) RegisterHTTP() {
	h := s.APIHandler()
	telemetry.RegisterHandler("/v1/", h)
	telemetry.RegisterHandler("/tenants.json", h)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error        string  `json:"error"`
	Reason       string  `json:"reason"`
	RetryAfterMs float64 `json:"retry_after_ms,omitempty"`
}

// reject sheds one request: counts it, stamps Retry-After (whole
// seconds, as HTTP requires, never below 1) plus the precise
// X-Retry-After-Ms, and writes the JSON error body.
func (s *Server) reject(w http.ResponseWriter, t *tenant, kind, reason string, code int, retryAfter time.Duration) {
	t.rejected.Add(1)
	s.reg.Counter("service_rejections_total",
		telemetry.L("tenant", t.name), telemetry.L("reason", reason)).Inc()
	s.reg.Counter("service_requests_total",
		telemetry.L("tenant", t.name), telemetry.L("kind", kind), telemetry.Li("code", code)).Inc()
	if retryAfter > 0 {
		secs := int(math.Ceil(retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		w.Header().Set("X-Retry-After-Ms", strconv.FormatFloat(retryAfter.Seconds()*1000, 'f', 3, 64))
	}
	writeJSON(w, code, errorBody{Error: http.StatusText(code), Reason: reason, RetryAfterMs: retryAfter.Seconds() * 1000})
}

// admitted is a live, admitted request: the context carries the
// deadline and the server drain signal, finish must be called exactly
// once.
type admitted struct {
	t      *tenant
	ctx    context.Context
	finish func()
}

// admit walks one request through the whole admission gate — drain
// check, circuit breaker, tenant quota, bounded queue — and reports
// whether it holds an execution slot. On shed it has already written
// the response.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, kind string) (admitted, bool) {
	t := s.tenantFor(tenantName(r))
	now := s.cfg.Now()
	if s.draining.Load() {
		s.reject(w, t, kind, "draining", http.StatusServiceUnavailable, 5*time.Second)
		return admitted{}, false
	}
	if s.lad.tier(now) == TierReject {
		s.reject(w, t, kind, "breaker_open", http.StatusServiceUnavailable, 5*time.Second)
		return admitted{}, false
	}
	if ok, wait := t.bucket.take(now); !ok {
		s.reject(w, t, kind, "quota", http.StatusTooManyRequests, wait)
		return admitted{}, false
	}
	deadline := s.cfg.DefaultDeadline
	if h := r.Header.Get(HeaderDeadlineMs); h != "" {
		ms, err := strconv.ParseFloat(h, 64)
		if err != nil || !(ms > 0 && ms <= maxDeadlineMs) {
			s.reg.Counter("service_requests_total",
				telemetry.L("tenant", t.name), telemetry.L("kind", kind), telemetry.Li("code", http.StatusBadRequest)).Inc()
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "Bad Request", Reason: "invalid " + HeaderDeadlineMs})
			return admitted{}, false
		}
		deadline = time.Duration(ms * float64(time.Millisecond))
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	stop := context.AfterFunc(s.baseCtx, cancel) // drain cancellation reaches every request
	release := func() {
		stop()
		cancel()
	}
	full, err := s.adm.admit(ctx.Done())
	if full {
		release()
		s.reject(w, t, kind, "queue_full", http.StatusTooManyRequests, 500*time.Millisecond)
		return admitted{}, false
	}
	if err != nil {
		release()
		s.reject(w, t, kind, "deadline_in_queue", http.StatusGatewayTimeout, 0)
		return admitted{}, false
	}
	t.admitted.Add(1)
	t.inflight.Add(1)
	return admitted{t: t, ctx: ctx, finish: func() {
		t.inflight.Add(-1)
		s.adm.release()
		release()
	}}, true
}

// finishOK records one successful request.
func (s *Server) finishOK(a admitted, kind string, elapsed time.Duration) {
	sec := elapsed.Seconds()
	a.t.lat.observe(sec)
	s.lat.observe(sec)
	s.served.Add(1)
	s.reg.Counter("service_requests_total",
		telemetry.L("tenant", a.t.name), telemetry.L("kind", kind), telemetry.Li("code", http.StatusOK)).Inc()
	s.reg.Gauge("service_request_seconds").Set(sec)
}

func tenantName(r *http.Request) string {
	if t := r.Header.Get(HeaderTenant); t != "" {
		return t
	}
	return "anonymous"
}

func (s *Server) handleMatrices(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		infos := s.Matrices()
		sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
		writeJSON(w, http.StatusOK, infos)
	case http.MethodPost:
		if s.draining.Load() {
			t := s.tenantFor(tenantName(r))
			s.reject(w, t, "upload", "draining", http.StatusServiceUnavailable, 5*time.Second)
			return
		}
		name := r.URL.Query().Get("name")
		if name == "" {
			name = "unnamed"
		}
		info, err := s.AddMatrix(name, r.Body)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "Bad Request", Reason: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, info)
	default:
		w.Header().Set("Allow", "GET, POST")
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "Method Not Allowed"})
	}
}

// SpMVRequest is the /v1/spmv body. Exactly one of X or Seed supplies
// the input vector: Seed generates it deterministically server-side
// (see SeedVector), which keeps swarm payloads O(1) instead of O(n).
type SpMVRequest struct {
	Matrix string    `json:"matrix"`
	X      []float64 `json:"x,omitempty"`
	Seed   uint64    `json:"seed,omitempty"`
	WantY  bool      `json:"want_y,omitempty"`
}

// SolveRequest is the /v1/solve body.
type SolveRequest struct {
	Matrix  string    `json:"matrix"`
	B       []float64 `json:"b,omitempty"`
	Seed    uint64    `json:"seed,omitempty"`
	Tol     float64   `json:"tol,omitempty"`
	MaxIter int       `json:"max_iter,omitempty"`
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "Method Not Allowed"})
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "Bad Request", Reason: err.Error()})
		return false
	}
	return true
}

func (s *Server) handleSpMV(w http.ResponseWriter, r *http.Request) {
	var req SpMVRequest
	if !decodeBody(w, r, &req) {
		return
	}
	a, ok := s.admit(w, r, "spmv")
	if !ok {
		return
	}
	defer a.finish()
	e, err := s.lookup(req.Matrix)
	if err != nil {
		s.writeErr(w, a, "spmv", err)
		return
	}
	t0 := time.Now()
	res, err := s.SpMV(a.ctx, e, req)
	if err != nil {
		s.writeErr(w, a, "spmv", err)
		return
	}
	s.finishOK(a, "spmv", time.Since(t0))
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if !decodeBody(w, r, &req) {
		return
	}
	a, ok := s.admit(w, r, "solve")
	if !ok {
		return
	}
	defer a.finish()
	e, err := s.lookup(req.Matrix)
	if err != nil {
		s.writeErr(w, a, "solve", err)
		return
	}
	t0 := time.Now()
	res, err := s.Solve(a.ctx, e, req)
	if err != nil {
		if res.Checkpointed {
			// Cancelled cooperatively (deadline or drain): hand the
			// caller the checkpointed iterate state instead of
			// discarding the work.
			s.reg.Counter("service_requests_total",
				telemetry.L("tenant", a.t.name), telemetry.L("kind", "solve"),
				telemetry.Li("code", http.StatusServiceUnavailable)).Inc()
			writeJSON(w, http.StatusServiceUnavailable, res)
			return
		}
		s.writeErr(w, a, "solve", err)
		return
	}
	s.finishOK(a, "solve", time.Since(t0))
	writeJSON(w, http.StatusOK, res)
}

// writeErr maps an execution error to its HTTP shape.
func (s *Server) writeErr(w http.ResponseWriter, a admitted, kind string, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownMatrix):
		code = http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		code = http.StatusServiceUnavailable
	}
	s.reg.Counter("service_requests_total",
		telemetry.L("tenant", a.t.name), telemetry.L("kind", kind), telemetry.Li("code", code)).Inc()
	writeJSON(w, code, errorBody{Error: http.StatusText(code), Reason: err.Error()})
}

// Status is the /v1/status document.
type Status struct {
	UptimeSeconds  float64      `json:"uptime_seconds"`
	Draining       bool         `json:"draining"`
	Tier           string       `json:"tier"`
	Devices        int          `json:"devices"`
	DevicesHealthy int          `json:"devices_healthy"`
	InFlight       int64        `json:"in_flight"`
	QueueDepth     int64        `json:"queue_depth"`
	QueueMax       int          `json:"queue_max"`
	Served         int64        `json:"served"`
	Checkpointed   int64        `json:"checkpointed"`
	HostFallbacks  int64        `json:"host_fallbacks"`
	P50Seconds     float64      `json:"p50_seconds"`
	P99Seconds     float64      `json:"p99_seconds"`
	Matrices       []MatrixInfo `json:"matrices"`
	Tenants        int          `json:"tenants"`
}

// StatusNow snapshots the service state (also the /v1/status body).
func (s *Server) StatusNow() Status {
	p50, p99 := s.lat.quantiles()
	infos := s.Matrices()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	s.mu.RLock()
	tenants := len(s.tenants)
	s.mu.RUnlock()
	return Status{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Draining:       s.draining.Load(),
		Tier:           s.lad.tier(s.cfg.Now()).String(),
		Devices:        len(s.devices),
		DevicesHealthy: int(s.healthy.Load()),
		InFlight:       s.adm.inFlight(),
		QueueDepth:     s.adm.queueDepth(),
		QueueMax:       s.cfg.QueueDepth,
		Served:         s.served.Load(),
		Checkpointed:   s.checkpointed.Load(),
		HostFallbacks:  s.fallbacks.Load(),
		P50Seconds:     p50,
		P99Seconds:     p99,
		Matrices:       infos,
		Tenants:        tenants,
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatusNow())
}

// TenantStatus is one row of /tenants.json.
type TenantStatus struct {
	Tenant     string  `json:"tenant"`
	Admitted   int64   `json:"admitted"`
	Rejected   int64   `json:"rejected"`
	InFlight   int64   `json:"in_flight"`
	Tokens     float64 `json:"tokens"`
	P50Seconds float64 `json:"p50_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// TenantsNow snapshots the per-tenant table, sorted by name.
func (s *Server) TenantsNow() []TenantStatus {
	s.mu.RLock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.RUnlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })
	out := make([]TenantStatus, 0, len(ts))
	for _, t := range ts {
		p50, p99 := t.lat.quantiles()
		out = append(out, TenantStatus{
			Tenant:     t.name,
			Admitted:   t.admitted.Load(),
			Rejected:   t.rejected.Load(),
			InFlight:   t.inflight.Load(),
			Tokens:     t.bucket.level(),
			P50Seconds: p50,
			P99Seconds: p99,
		})
	}
	return out
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.TenantsNow())
}

// SeedVector generates the deterministic request vector shared by
// server and swarm: splitmix64 per element, mapped into [0.5, 1.5) so
// entries are well away from zero. The swarm's digest gate relies on
// both sides generating bit-identical vectors from (n, seed).
func SeedVector(n int, seed uint64) []float64 {
	x := make([]float64, n)
	seedFill(x, seed)
	return x
}

// seedFill overwrites x with SeedVector(len(x), seed).
func seedFill(x []float64, seed uint64) {
	for i := range x {
		z := seed + uint64(i+1)*0x9e3779b97f4a7c15
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		// z>>11 < 2⁵³ converts exactly either way; the signed
		// conversion is one instruction, the unsigned one a branch.
		x[i] = 0.5 + float64(int64(z>>11))/(1<<53)
	}
}
