package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pjds/internal/core"
	"pjds/internal/gpu"
	"pjds/internal/health"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/solver"
	"pjds/internal/telemetry"
)

// testMatrixBody renders the standard test matrix (an SPD 2D Laplacian
// stencil) as a MatrixMarket body.
func testMatrixBody(t *testing.T) (*matrix.CSR[float64], []byte) {
	t.Helper()
	m := matgen.Stencil2D(8, 8)
	var buf bytes.Buffer
	if err := matrix.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatalf("WriteMatrixMarket: %v", err)
	}
	return m, buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.APIHandler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func upload(t *testing.T, ts *httptest.Server, name string, body []byte) MatrixInfo {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/matrices?name="+name, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: HTTP %d", resp.StatusCode)
	}
	var info MatrixInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("upload decode: %v", err)
	}
	return info
}

// post sends one API request and decodes the JSON response into out.
func post(t *testing.T, ts *httptest.Server, path string, hdr map[string]string, req, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("do %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp
}

// referenceDigest computes the digest of y = A·x through a private
// fault-free host-kernel pipeline — the bit-exact reference every
// service tier (device or host, faulted or not) must reproduce. The
// pJDS layout fixes its own in-row summation order, so the reference
// is the host kernel, not a naive CSR loop.
func referenceDigest(t *testing.T, m *matrix.CSR[float64], x []float64) string {
	t.Helper()
	op, err := solver.NewPermutedPJDS(m, core.Options{})
	if err != nil {
		t.Fatalf("reference operator: %v", err)
	}
	defer op.Close()
	n := m.NRows
	xp := op.Enter(make([]float64, n), x)
	yp := make([]float64, n)
	if err := op.Apply(yp, xp); err != nil {
		t.Fatalf("reference apply: %v", err)
	}
	return DigestVector(op.Leave(make([]float64, n), yp))
}

func TestUploadDedupAndSpMVDigest(t *testing.T) {
	m, body := testMatrixBody(t)
	_, ts := newTestServer(t, Config{Devices: 2})

	info := upload(t, ts, "first", body)
	if info.Shared {
		t.Fatalf("first upload reported Shared")
	}
	if info.Rows != m.NRows || info.Nnz != int64(len(m.Val)) {
		t.Fatalf("info = %+v, want %dx%d nnz %d", info, m.NRows, m.NCols, len(m.Val))
	}
	dup := upload(t, ts, "second", body)
	if !dup.Shared || dup.ID != info.ID {
		t.Fatalf("duplicate upload not deduplicated: %+v vs %+v", dup, info)
	}

	var res SpMVResult
	resp := post(t, ts, "/v1/spmv", nil, SpMVRequest{Matrix: info.ID, Seed: 7}, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spmv: HTTP %d", resp.StatusCode)
	}
	if res.Tier != "device" {
		t.Fatalf("tier = %q, want device", res.Tier)
	}
	if want := referenceDigest(t, m, SeedVector(m.NRows, 7)); res.Digest != want {
		t.Fatalf("digest %s != reference %s", res.Digest, want)
	}

	// Unknown matrix → 404.
	resp = post(t, ts, "/v1/spmv", nil, SpMVRequest{Matrix: "nope"}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown matrix: HTTP %d, want 404", resp.StatusCode)
	}
}

// eccAt fires an uncorrectable ECC event at one launch index.
type eccAt struct {
	mu sync.Mutex
	n  int
	at int
}

func (e *eccAt) ECCEvent(string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	l := e.n
	e.n++
	return l == e.at
}

func TestECCDowngradeBitIdentical(t *testing.T) {
	m, body := testMatrixBody(t)
	// Every device takes an ECC hit on its first launch: the ladder
	// must walk device→host mid-request without changing one bit.
	s, ts := newTestServer(t, Config{
		Devices:      2,
		DeviceFaults: func(int) gpu.ECCInjector { return &eccAt{at: 0} },
	})
	info := upload(t, ts, "m", body)

	var res SpMVResult
	resp := post(t, ts, "/v1/spmv", nil, SpMVRequest{Matrix: info.ID, Seed: 3}, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spmv under ECC: HTTP %d", resp.StatusCode)
	}
	if res.Tier != "host" {
		t.Fatalf("tier = %q, want host after mid-request ECC downgrade", res.Tier)
	}
	if want := referenceDigest(t, m, SeedVector(m.NRows, 3)); res.Digest != want {
		t.Fatalf("ECC downgrade changed bits: digest %s != reference %s", res.Digest, want)
	}

	var solve SolveResult
	resp = post(t, ts, "/v1/solve", nil, SolveRequest{Matrix: info.ID, Seed: 5}, &solve)
	if resp.StatusCode != http.StatusOK || !solve.Converged {
		t.Fatalf("solve under ECC: HTTP %d, %+v", resp.StatusCode, solve)
	}

	// Burn through the remaining device (pool order is not fixed), then
	// confirm the fleet is fully downgraded.
	for i := 0; i < 2; i++ {
		post(t, ts, "/v1/spmv", nil, SpMVRequest{Matrix: info.ID, Seed: 3}, nil)
	}
	st := s.StatusNow()
	if st.DevicesHealthy != 0 || st.Tier != "host" {
		t.Fatalf("after ECC on all boards: healthy=%d tier=%s, want 0/host", st.DevicesHealthy, st.Tier)
	}
	if st.HostFallbacks == 0 {
		t.Fatalf("host fallbacks not counted")
	}

	// The fault-free control must agree bit for bit on the solve too.
	_, ctrl := newTestServer(t, Config{Devices: 2})
	cinfo := upload(t, ctrl, "m", body)
	var want SolveResult
	if resp := post(t, ctrl, "/v1/solve", nil, SolveRequest{Matrix: cinfo.ID, Seed: 5}, &want); resp.StatusCode != http.StatusOK {
		t.Fatalf("control solve: HTTP %d", resp.StatusCode)
	}
	if want.Digest != solve.Digest {
		t.Fatalf("faulted solve digest %s != fault-free %s", solve.Digest, want.Digest)
	}
}

// TestECCDegradationBitExact: a device that takes an uncorrectable ECC
// error on its fourth launch, mid-solve, hands the rest of the solve to
// the host rung, and the CG trajectory does not move: the iteration
// count and the solution digest equal a fault-free server's.
func TestECCDegradationBitExact(t *testing.T) {
	_, body := testMatrixBody(t)
	solve := func(cfg Config) (SolveResult, Status) {
		s, ts := newTestServer(t, cfg)
		info := upload(t, ts, "m", body)
		var res SolveResult
		resp := post(t, ts, "/v1/solve", nil, SolveRequest{Matrix: info.ID, Seed: 5, Tol: 1e-11}, &res)
		if resp.StatusCode != http.StatusOK || !res.Converged {
			t.Fatalf("solve: HTTP %d, %+v", resp.StatusCode, res)
		}
		return res, s.StatusNow()
	}
	want, _ := solve(Config{Devices: 1})
	got, st := solve(Config{Devices: 1, DeviceFaults: func(int) gpu.ECCInjector { return &eccAt{at: 3} }})
	if want.Tier != "device" || got.Tier != "host" {
		t.Fatalf("tiers: fault-free %s, faulted %s; want device, host", want.Tier, got.Tier)
	}
	// Launches 0–2 ran on the device; the ECC launch and every later
	// application (one per iteration plus the initial residual) on the host.
	if wantFallbacks := int64(got.Iterations + 1 - 3); st.HostFallbacks != wantFallbacks {
		t.Fatalf("host fallbacks %d, want %d: the ECC did not land mid-solve", st.HostFallbacks, wantFallbacks)
	}
	if got.Iterations != want.Iterations {
		t.Errorf("degraded CG took %d iterations, fault-free %d", got.Iterations, want.Iterations)
	}
	if got.Digest != want.Digest {
		t.Errorf("degraded solve digest %s != fault-free %s", got.Digest, want.Digest)
	}
}

func TestQuotaShedsWith429(t *testing.T) {
	_, body := testMatrixBody(t)
	_, ts := newTestServer(t, Config{Devices: 1, TenantRate: 0.001, TenantBurst: 1})
	info := upload(t, ts, "m", body)

	hdr := map[string]string{HeaderTenant: "alice"}
	if resp := post(t, ts, "/v1/spmv", hdr, SpMVRequest{Matrix: info.ID, Seed: 1}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: HTTP %d", resp.StatusCode)
	}
	var eb errorBody
	resp := post(t, ts, "/v1/spmv", hdr, SpMVRequest{Matrix: info.ID, Seed: 1}, &eb)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over quota: HTTP %d, want 429", resp.StatusCode)
	}
	if eb.Reason != "quota" || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("over quota: reason=%q Retry-After=%q", eb.Reason, resp.Header.Get("Retry-After"))
	}
	// Another tenant's bucket is untouched.
	if resp := post(t, ts, "/v1/spmv", map[string]string{HeaderTenant: "bob"}, SpMVRequest{Matrix: info.ID, Seed: 1}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant: HTTP %d, want 200", resp.StatusCode)
	}
}

// waitFor polls until cond holds or the test times out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestQueueFullShedsWith429(t *testing.T) {
	_, body := testMatrixBody(t)
	s, ts := newTestServer(t, Config{Devices: 1, MaxInFlight: 1, QueueDepth: 1, ApplyDelay: 300 * time.Millisecond})
	info := upload(t, ts, "m", body)

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := post(t, ts, "/v1/spmv", nil, SpMVRequest{Matrix: info.ID, Seed: 1}, nil)
			codes[i] = resp.StatusCode
		}()
		if i == 0 {
			waitFor(t, "request executing", func() bool { return s.adm.inFlight() == 1 })
		} else {
			waitFor(t, "request queued", func() bool { return s.adm.queueDepth() == 1 })
		}
	}
	// Slot busy, queue full: the third request is shed immediately.
	var eb errorBody
	resp := post(t, ts, "/v1/spmv", nil, SpMVRequest{Matrix: info.ID, Seed: 1}, &eb)
	if resp.StatusCode != http.StatusTooManyRequests || eb.Reason != "queue_full" {
		t.Fatalf("full queue: HTTP %d reason %q, want 429 queue_full", resp.StatusCode, eb.Reason)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: HTTP %d, want 200", i, c)
		}
	}
}

func TestDeadlineCheckpointsSolve(t *testing.T) {
	_, body := testMatrixBody(t)
	_, ts := newTestServer(t, Config{Devices: 1, ApplyDelay: 30 * time.Millisecond})
	info := upload(t, ts, "m", body)

	var res SolveResult
	resp := post(t, ts, "/v1/solve",
		map[string]string{HeaderDeadlineMs: "120"},
		SolveRequest{Matrix: info.ID, Seed: 2, Tol: 1e-300, MaxIter: 100000}, &res)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline mid-solve: HTTP %d, want 503", resp.StatusCode)
	}
	if !res.Checkpointed || res.Converged {
		t.Fatalf("deadline mid-solve: %+v, want checkpointed", res)
	}
	if res.Digest == "" {
		t.Fatalf("checkpoint carries no digest")
	}
}

// TestInvalidDeadlineRejected: a deadline that is not a positive
// duration Go can represent is a 400, never a request that expires
// before it starts.
func TestInvalidDeadlineRejected(t *testing.T) {
	_, body := testMatrixBody(t)
	_, ts := newTestServer(t, Config{Devices: 1})
	info := upload(t, ts, "m", body)

	for _, h := range []string{"0", "-5", "abc", "NaN", "Inf", "-Inf", "1e300", "1e13"} {
		var eb errorBody
		resp := post(t, ts, "/v1/solve", map[string]string{HeaderDeadlineMs: h},
			SolveRequest{Matrix: info.ID, Seed: 2, Tol: 1e-8, MaxIter: 5}, &eb)
		if resp.StatusCode != http.StatusBadRequest || eb.Reason != "invalid "+HeaderDeadlineMs {
			t.Errorf("%s: %s: HTTP %d reason %q, want 400 invalid %s",
				HeaderDeadlineMs, h, resp.StatusCode, eb.Reason, HeaderDeadlineMs)
		}
	}
	var res SolveResult
	resp := post(t, ts, "/v1/solve", map[string]string{HeaderDeadlineMs: "9e12"},
		SolveRequest{Matrix: info.ID, Seed: 2, Tol: 1e-8, MaxIter: 5}, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: 9e12: HTTP %d, want 200", HeaderDeadlineMs, resp.StatusCode)
	}
}

func TestDrainCheckpointsInFlightAndRejectsNew(t *testing.T) {
	_, body := testMatrixBody(t)
	s, ts := newTestServer(t, Config{Devices: 1, ApplyDelay: 50 * time.Millisecond})
	info := upload(t, ts, "m", body)

	type result struct {
		code int
		res  SolveResult
	}
	ch := make(chan result, 1)
	go func() {
		var res SolveResult
		resp := post(t, ts, "/v1/solve", nil, SolveRequest{Matrix: info.ID, Seed: 9, Tol: 1e-300, MaxIter: 100000}, &res)
		ch <- result{resp.StatusCode, res}
	}()
	waitFor(t, "solve executing", func() bool { return s.adm.inFlight() == 1 })

	rep := s.Drain(30 * time.Millisecond)
	if rep.Graceful {
		t.Fatalf("drain reported graceful with a long solve in flight")
	}
	if rep.Checkpointed != 1 {
		t.Fatalf("drain checkpointed %d solves, want 1", rep.Checkpointed)
	}
	r := <-ch
	if r.code != http.StatusServiceUnavailable || !r.res.Checkpointed {
		t.Fatalf("drained solve: HTTP %d %+v, want 503 checkpointed", r.code, r.res)
	}

	var eb errorBody
	resp := post(t, ts, "/v1/spmv", nil, SpMVRequest{Matrix: info.ID, Seed: 1}, &eb)
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Reason != "draining" {
		t.Fatalf("post-drain request: HTTP %d reason %q, want 503 draining", resp.StatusCode, eb.Reason)
	}
	if !s.Draining() {
		t.Fatalf("Draining() = false after Drain")
	}
}

func TestDrainGracefulWhenIdle(t *testing.T) {
	s := New(Config{Devices: 1, Registry: telemetry.NewRegistry()})
	defer s.Close()
	rep := s.Drain(time.Second)
	if !rep.Graceful || rep.Checkpointed != 0 {
		t.Fatalf("idle drain: %+v, want graceful", rep)
	}
}

func TestBreakerRejectsOnHealthFail(t *testing.T) {
	_, body := testMatrixBody(t)
	reg := telemetry.NewRegistry()
	eng := health.New(reg, health.Options{Window: 5})
	eng.Tick(0)
	reg.Counter("mpi_failures_detected_total").Inc()
	rep := eng.Tick(1)
	if rep.Status != health.Fail {
		t.Fatalf("health engine: %v, want fail", rep.Status)
	}

	_, ts := newTestServer(t, Config{Devices: 1, Registry: reg, Health: eng})
	info := upload(t, ts, "m", body)
	var eb errorBody
	resp := post(t, ts, "/v1/spmv", nil, SpMVRequest{Matrix: info.ID, Seed: 1}, &eb)
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Reason != "breaker_open" {
		t.Fatalf("fail-grade health: HTTP %d reason %q, want 503 breaker_open", resp.StatusCode, eb.Reason)
	}
}

func TestStatusAndTenantsViews(t *testing.T) {
	_, body := testMatrixBody(t)
	_, ts := newTestServer(t, Config{Devices: 2})
	info := upload(t, ts, "m", body)
	for _, tenant := range []string{"alice", "bob"} {
		post(t, ts, "/v1/solve", map[string]string{HeaderTenant: tenant}, SolveRequest{Matrix: info.ID, Seed: 1}, nil)
	}

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	resp.Body.Close()
	if st.Served != 2 || st.Devices != 2 || st.Tier != "device" || len(st.Matrices) != 1 {
		t.Fatalf("status = %+v", st)
	}

	resp, err = http.Get(ts.URL + "/tenants.json")
	if err != nil {
		t.Fatalf("tenants: %v", err)
	}
	var rows []TenantStatus
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatalf("tenants decode: %v", err)
	}
	resp.Body.Close()
	if len(rows) != 2 || rows[0].Tenant != "alice" || rows[1].Tenant != "bob" {
		t.Fatalf("tenants = %+v", rows)
	}
	for _, r := range rows {
		if r.Admitted != 1 || r.P50Seconds <= 0 {
			t.Fatalf("tenant row = %+v", r)
		}
	}
}

// TestConcurrentMixedLoad is the race-detector workout: many tenants,
// mixed spmv/solve, a faulted device, all over one shared matrix.
func TestConcurrentMixedLoad(t *testing.T) {
	m, body := testMatrixBody(t)
	_, ts := newTestServer(t, Config{
		Devices:      2,
		MaxInFlight:  4,
		QueueDepth:   64,
		DeviceFaults: func(i int) gpu.ECCInjector { return &eccAt{at: 5} },
	})
	info := upload(t, ts, "m", body)
	wantDigest := referenceDigest(t, m, SeedVector(m.NRows, 11))

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			hdr := map[string]string{HeaderTenant: fmt.Sprintf("tenant-%d", g%4)}
			for i := 0; i < 8; i++ {
				if i%2 == 0 {
					var res SpMVResult
					resp := post(t, ts, "/v1/spmv", hdr, SpMVRequest{Matrix: info.ID, Seed: 11}, &res)
					if resp.StatusCode == http.StatusOK && res.Digest != wantDigest {
						errs <- fmt.Errorf("goroutine %d: digest %s != %s", g, res.Digest, wantDigest)
						return
					}
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
						errs <- fmt.Errorf("goroutine %d: HTTP %d", g, resp.StatusCode)
						return
					}
				} else {
					var res SolveResult
					resp := post(t, ts, "/v1/solve", hdr, SolveRequest{Matrix: info.ID, Seed: 11}, &res)
					if resp.StatusCode == http.StatusOK && !res.Converged {
						errs <- fmt.Errorf("goroutine %d: solve did not converge", g)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRejectsNonSquareUpload(t *testing.T) {
	s := New(Config{Devices: 1, Registry: telemetry.NewRegistry()})
	defer s.Close()
	mm := "%%MatrixMarket matrix coordinate real general\n2 3 2\n1 1 1.0\n2 3 2.0\n"
	if _, err := s.AddMatrix("rect", strings.NewReader(mm)); err == nil {
		t.Fatalf("non-square upload accepted")
	}
}

// TestTuneOnUpload: with Config.TuningDB set, the first upload of a
// matrix sweeps the (C, σ) grid and persists the winner; re-uploads
// (same tenant or dedup-shared), and a fresh server against the same
// DB, answer from the cache without re-sweeping.
func TestTuneOnUpload(t *testing.T) {
	db := filepath.Join(t.TempDir(), "tuning.jsonl")
	reg := telemetry.NewRegistry()
	_, body := testMatrixBody(t)
	s, ts := newTestServer(t, Config{Devices: 1, TuningDB: db, Registry: reg})

	info := upload(t, ts, "a", body)
	if info.TunedFormat == "" || info.TunedNsPerNnz <= 0 {
		t.Fatalf("upload carried no tuning result: %+v", info)
	}
	if info.TuningCacheHit {
		t.Fatal("first upload claimed a tuning cache hit")
	}
	switch info.TunedFormat {
	case "CRS", "CMRS-h8", "CMRS-h32":
	default:
		if info.TunedC <= 0 || info.TunedSigma <= 0 {
			t.Fatalf("sliced winner %s lost its (C, σ): %+v", info.TunedFormat, info)
		}
	}

	// Dedup path: a second tenant's identical upload shares the sweep.
	shared := upload(t, ts, "b", body)
	if !shared.Shared || !shared.TuningCacheHit {
		t.Fatalf("dedup upload did not reuse the sweep: %+v", shared)
	}

	// A fresh server (simulated restart) against the same DB answers
	// from the persisted entry: cache hit, identical winner, and its
	// registry never counts a sweep.
	reg2 := telemetry.NewRegistry()
	s2, ts2 := newTestServer(t, Config{Devices: 1, TuningDB: db, Registry: reg2})
	info2 := upload(t, ts2, "a-again", body)
	if !info2.TuningCacheHit || info2.TunedFormat != info.TunedFormat {
		t.Fatalf("restart re-swept or changed winner: %+v vs %+v", info2, info)
	}
	for _, mt := range reg2.Snapshot() {
		if mt.Name == "tuner_sweeps_total" && mt.Value != 0 {
			t.Fatalf("restart ran %g sweeps, want 0", mt.Value)
		}
	}
	_ = s
	_ = s2
}

// TestTuningLagHostRungOnly: the lag gauge divides a request's
// wall-clock by the tuner's host measurement, so a request served on a
// healthy device (a simulated replay, plan compile included) publishes
// no lag series and the health engine's tuning_lag stays Pass, while a
// request an ECC trip moved to the host rung publishes one under the
// matrix name.
func TestTuningLagHostRungOnly(t *testing.T) {
	db := filepath.Join(t.TempDir(), "tuning.jsonl")
	reg := telemetry.NewRegistry()
	eng := health.New(reg, health.Options{Window: 5})
	_, body := testMatrixBody(t)
	_, ts := newTestServer(t, Config{
		Devices: 1, TuningDB: db, Registry: reg,
		DeviceFaults: func(int) gpu.ECCInjector { return &eccAt{at: 1} },
	})
	info := upload(t, ts, "a", body)
	lag := func() (float64, bool) {
		for _, mt := range reg.Snapshot() {
			if mt.Name == "service_tuning_lag_ratio" && mt.Labels["matrix"] == "a" {
				return mt.Value, true
			}
		}
		return 0, false
	}

	var res SpMVResult
	post(t, ts, "/v1/spmv", nil, SpMVRequest{Matrix: info.ID, Seed: 7}, &res)
	if res.Tier != "device" {
		t.Fatalf("first request ran on the %s tier, want device", res.Tier)
	}
	if v, ok := lag(); ok {
		t.Fatalf("device request published service_tuning_lag_ratio %g", v)
	}
	for _, sig := range eng.Tick(1).Signals {
		if sig.Name == "tuning_lag" && sig.Status != health.Pass {
			t.Fatalf("tuning_lag %v after one device request: %s", sig.Status, sig.Cause)
		}
	}

	post(t, ts, "/v1/spmv", nil, SpMVRequest{Matrix: info.ID, Seed: 7}, &res)
	if res.Tier != "host" {
		t.Fatalf("request after the ECC trip ran on the %s tier, want host", res.Tier)
	}
	if v, ok := lag(); !ok || v <= 0 {
		t.Fatalf("host-rung request published lag %g (present %v), want > 0", v, ok)
	}
}

// TestTuningDisabledWithoutDB: the zero Config never tunes — no tuned
// fields on upload, no lag gauge on serve.
func TestTuningDisabledWithoutDB(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, body := testMatrixBody(t)
	_, ts := newTestServer(t, Config{Devices: 1, Registry: reg})
	info := upload(t, ts, "a", body)
	if info.TunedFormat != "" || info.TunedNsPerNnz != 0 || info.TuningCacheHit {
		t.Fatalf("tuning fields set without a TuningDB: %+v", info)
	}
	var res SpMVResult
	post(t, ts, "/v1/spmv", nil, SpMVRequest{Matrix: info.ID, Seed: 7}, &res)
	for _, mt := range reg.Snapshot() {
		if mt.Name == "service_tuning_lag_ratio" {
			t.Fatal("lag gauge published without tuning")
		}
	}
}

// TestDeviceApplyAllocs: a warm device-tier apply allocates only the
// kernel statistics gpu.RunPJDS returns; the device's labels, the plan
// lookup and its telemetry handles are all built once.
func TestDeviceApplyAllocs(t *testing.T) {
	_, body := testMatrixBody(t)
	s := New(Config{Registry: telemetry.NewRegistry(), Devices: 1})
	defer s.Close()
	info, err := s.AddMatrix("allocs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	op := s.newApplyOp(context.Background(), e)
	defer op.close()
	if op.d == nil {
		t.Fatal("no device acquired")
	}
	xp := make([]float64, op.Dim())
	for i := range xp {
		xp[i] = float64(i%5) - 2
	}
	yp := make([]float64, op.Dim())
	if err := op.Apply(yp, xp); err != nil { // compiles the plan, resolves the handles
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := op.Apply(yp, xp); err != nil {
			t.Fatal(err)
		}
	})
	if op.tierName() != "device" {
		t.Fatalf("apply ran on the %s tier", op.tierName())
	}
	if allocs > 1 {
		t.Errorf("%v allocs per warm device apply, want ≤ 1 (the returned stats)", allocs)
	}
}

// allocServer stores a ~10⁴-row SPD stencil in a one-device server.
func allocServer(t *testing.T) (*Server, *matrixEntry, *matrix.CSR[float64]) {
	t.Helper()
	m := matgen.Stencil2D(100, 100)
	var buf bytes.Buffer
	if err := matrix.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Registry: telemetry.NewRegistry(), Devices: 1})
	t.Cleanup(s.Close)
	info, err := s.AddMatrix("allocs", &buf)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	return s, e, m
}

// bytesPerCall is the mean TotalAlloc growth over runs warm calls of f.
func bytesPerCall(t *testing.T, runs int, f func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestSpMVVectorAllocs: a warm seeded SpMV holds two permuted-basis
// vectors, xp and yp, both from the matrix's pool, so it allocates far
// less than one n-vector.
func TestSpMVVectorAllocs(t *testing.T) {
	s, e, m := allocServer(t)
	req := SpMVRequest{Matrix: e.info.ID, Seed: 3}
	per := bytesPerCall(t, 100, func() {
		if _, err := s.SpMV(context.Background(), e, req); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 8 * float64(m.NRows); per >= limit {
		t.Errorf("warm seeded SpMV allocates %.0f B per call, want < 8·n = %.0f", per, limit)
	}
}

// TestSolveVectorAllocs: a warm seeded Solve allocates less than one
// n-vector beyond the CG loop it runs (whose r, p and A·p stay its
// own), because its two permuted-basis vectors, b and x, come from the
// pool.
func TestSolveVectorAllocs(t *testing.T) {
	s, e, m := allocServer(t)
	n := m.NRows
	const iters = 20 // far from converged: every call runs all of them
	req := SolveRequest{Matrix: e.info.ID, Seed: 3, MaxIter: iters}
	solve := bytesPerCall(t, 100, func() {
		res, err := s.Solve(context.Background(), e, req)
		if err != nil || res.Iterations != iters {
			t.Fatalf("solve: %+v, %v", res, err)
		}
	})
	bp := e.op.Enter(make([]float64, n), SeedVector(n, 3))
	xp := make([]float64, n)
	cg := bytesPerCall(t, 100, func() {
		op := s.newApplyOp(context.Background(), e)
		defer op.close()
		clear(xp)
		if _, err := solver.CG(op, xp, bp, 1e-10, iters); !errors.Is(err, solver.ErrNotConverged) {
			t.Fatalf("bare CG: %v", err)
		}
	})
	if extra, limit := solve-cg, 8*float64(n); extra >= limit {
		t.Errorf("warm seeded Solve allocates %.0f B per call beyond its CG loop (%.0f B), want < 8·n = %.0f", extra, cg, limit)
	}
}

// TestSpMVWantY: a want_y response carries its own y, bit-identical to
// the naive product and digested as sent. The entries are small
// integers, so every summation order gives the same bits.
func TestSpMVWantY(t *testing.T) {
	s, e, m := allocServer(t)
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = float64(i%7 - 3)
	}
	want := make([]float64, m.NRows)
	if err := m.MulVec(want, x); err != nil {
		t.Fatal(err)
	}
	var first []float64
	for i := 0; i < 2; i++ {
		res, err := s.SpMV(context.Background(), e, SpMVRequest{Matrix: e.info.ID, X: x, WantY: true})
		if err != nil {
			t.Fatal(err)
		}
		for r := range want {
			if math.Float64bits(res.Y[r]) != math.Float64bits(want[r]) {
				t.Fatalf("call %d: y[%d] = %v, naive %v", i, r, res.Y[r], want[r])
			}
		}
		if res.Digest != DigestVector(want) {
			t.Fatalf("call %d: digest %s, want %s", i, res.Digest, DigestVector(want))
		}
		if first == nil {
			first = res.Y
		} else if &first[0] == &res.Y[0] {
			t.Fatal("two want_y responses share one y")
		}
	}
}

// TestUploadLimit: a body exactly MaxUploadBytes long is accepted, and
// one 6 bytes longer is rejected with an error naming the limit rather
// than parsed as if it ended there (its last value cut short).
func TestUploadLimit(t *testing.T) {
	m := matgen.Stencil2D(4, 4)
	var buf bytes.Buffer
	if err := matrix.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()

	s := New(Config{Devices: 1, Registry: telemetry.NewRegistry(), MaxUploadBytes: int64(len(body))})
	defer s.Close()
	if _, err := s.AddMatrix("at-limit", bytes.NewReader(body)); err != nil {
		t.Fatalf("body of exactly MaxUploadBytes: %v", err)
	}

	limit := int64(len(body) - 6)
	over := New(Config{Devices: 1, Registry: telemetry.NewRegistry(), MaxUploadBytes: limit})
	defer over.Close()
	info, err := over.AddMatrix("over-limit", bytes.NewReader(body))
	if err == nil {
		t.Fatalf("body 6 bytes over the limit accepted as %+v", info)
	}
	if want := fmt.Sprintf("%d-byte upload limit", limit); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the limit (%q)", err, want)
	}
}

// TestSeededSolvesPinned pins the digest and iteration count of seeded
// /v1/solve requests on the solve benchmark's system, Stencil2D(96,96)
// to 1e-10, on CG's SIMD vector passes and on its Go loops. The
// benchmark checks its solves against solver.CG built from the same
// code, so only pinned values catch a change in the CG trajectory.
func TestSeededSolvesPinned(t *testing.T) {
	m := matgen.Stencil2D(96, 96)
	var buf bytes.Buffer
	if err := matrix.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Devices: 1})
	info := upload(t, ts, "stencil", buf.Bytes())
	for _, mode := range []string{"simd", "go"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "go" {
				old := solver.SetVectorKernels(false)
				t.Cleanup(func() { solver.SetVectorKernels(old) })
			}
			for _, tc := range []struct {
				seed   uint64
				digest string
				iters  int
			}{
				{0, "fefbe19edca9d03f", 327},
				{1, "4e4c8e32646cecf2", 329},
				{42, "67ea4d63785958bb", 325},
			} {
				var res SolveResult
				resp := post(t, ts, "/v1/solve", nil, SolveRequest{Matrix: info.ID, Seed: tc.seed, Tol: 1e-10}, &res)
				if resp.StatusCode != http.StatusOK || !res.Converged {
					t.Fatalf("seed %d: HTTP %d, %+v", tc.seed, resp.StatusCode, res)
				}
				if res.Digest != tc.digest || res.Iterations != tc.iters {
					t.Errorf("seed %d: digest %s after %d iterations, want %s after %d",
						tc.seed, res.Digest, res.Iterations, tc.digest, tc.iters)
				}
			}
		})
	}
}
