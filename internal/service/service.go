// Package service is the multi-tenant spMVM/solve service in front of
// the simulated GPU fleet: a long-running server that accepts matrix
// uploads (streamed through the parallel MatrixMarket reader) and
// spMVM / CG-solve requests from many concurrent tenants over a pool
// of simulated devices with a shared cross-tenant plan cache.
//
// The robustness core is the request lifecycle:
//
//   - admission: per-tenant token-bucket quotas and a bounded waiter
//     queue; both shed with 429 + Retry-After instead of letting
//     backlog grow without bound (backpressure, not collapse);
//   - deadlines: the client deadline travels from the HTTP header
//     through the context into every kernel application — solves are
//     cancelled cooperatively between iterations, never mid-kernel;
//   - degradation ladder: device → hostkernel → reject (see Tier),
//     driven by the ECC fault signals and the rolling-window health
//     engine. The device and host paths sum each row in stored column
//     order, so a downgrade never changes a single result bit;
//   - graceful drain: stop admitting (503 + Retry-After), let
//     in-flight work finish inside a grace window, checkpoint and
//     cancel what remains, then flush telemetry/flight state.
//
// Every quantity the policies act on maps back to the paper: the
// device pool's aggregate Eq. 1 bandwidth bounds useful concurrency
// (admission), exposed wait beyond it is the §III-A overlap question
// (queueing), and the host fallback is the hybrid CPU path of
// Schubert et al. See DESIGN.md for the full map.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pjds/internal/core"
	"pjds/internal/flight"
	"pjds/internal/gpu"
	"pjds/internal/health"
	"pjds/internal/hostkernel"
	"pjds/internal/matrix"
	"pjds/internal/solver"
	"pjds/internal/telemetry"
	"pjds/internal/tuner"
)

// errAdmissionAborted reports a request whose deadline expired (or
// whose client vanished) while it was still queued for an execution
// slot.
var errAdmissionAborted = errors.New("service: request aborted while queued")

// ErrUnknownMatrix reports a request naming a matrix that was never
// uploaded.
var ErrUnknownMatrix = errors.New("service: unknown matrix")

// Config parameterizes a Server. The zero value of every field
// selects a sensible default (see New).
type Config struct {
	// Devices is the simulated accelerator pool size (default 4);
	// Device is the board prototype (default gpu.TeslaC2070()).
	Devices int
	Device  *gpu.Device
	// MaxInFlight bounds concurrently executing requests (default
	// Devices — one request per board keeps each kernel replay at full
	// Eq. 1 bandwidth instead of timesharing it). QueueDepth bounds
	// the admission backlog beyond that (default 4×MaxInFlight).
	MaxInFlight int
	QueueDepth  int
	// TenantRate / TenantBurst parameterize every tenant's token
	// bucket (default 100 req/s, burst 200).
	TenantRate  float64
	TenantBurst float64
	// DefaultDeadline applies when a request carries no deadline of
	// its own (default 30s).
	DefaultDeadline time.Duration
	// MaxUploadBytes bounds one matrix upload (default 1 GiB).
	MaxUploadBytes int64
	// DeviceFaults returns the ECC injector for device i (nil = all
	// boards healthy). faults.Plan.DeviceFor is the standard source.
	DeviceFaults func(device int) gpu.ECCInjector
	// ApplyDelay adds synthetic per-application latency (cancellation-
	// aware). Zero in production; the chaos swarm and the drain tests
	// use it to create controllable overload.
	ApplyDelay time.Duration
	// TuningDB, when non-empty, enables tune-on-upload: the first
	// upload of each distinct matrix (by content fingerprint) runs the
	// (C, σ) auto-tuner and persists the winner at this JSONL path;
	// re-uploads and restarts answer from the DB without re-sweeping.
	// Empty disables tuning entirely.
	TuningDB string
	// Registry receives the service telemetry (nil = telemetry.Default()).
	Registry *telemetry.Registry
	// Health, when set, drives the reject rung of the ladder.
	Health *health.Engine
}

// MatrixInfo describes one stored matrix.
type MatrixInfo struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
	Nnz  int64  `json:"nnz"`
	// Shared reports that an upload deduplicated against an existing
	// entry (same content fingerprint): the tenants share one pJDS
	// layout and one cached kernel plan.
	Shared bool `json:"shared,omitempty"`
	// Tuning results (present only when Config.TuningDB is set):
	// the auto-tuned winner's label (e.g. "SELL-8-256"), its layout
	// parameters, the ns/nnz the tuner measured for it, and whether
	// the answer came from the persisted DB instead of a fresh sweep.
	TunedFormat    string  `json:"tuned_format,omitempty"`
	TunedC         int     `json:"tuned_c,omitempty"`
	TunedSigma     int     `json:"tuned_sigma,omitempty"`
	TunedHeight    int     `json:"tuned_height,omitempty"`
	TunedNsPerNnz  float64 `json:"tuned_ns_per_nnz,omitempty"`
	TuningCacheHit bool    `json:"tuning_cache_hit,omitempty"`
}

// matrixEntry is one stored matrix: the pJDS-permuted operator shared
// by every tenant, the inverse of its permutation, a freelist of pJDS
// host kernels (a kernel carries per-call state, so concurrent
// requests must not share one) and a pool of request vectors. The
// vectors sit in a sync.Pool, not a retained freelist, so a matrix no
// request touches gives them back at the next GCs instead of keeping
// its busiest moment's vectors alive.
type matrixEntry struct {
	info  MatrixInfo
	op    *solver.PermutedPJDS
	inv   []int32      // op.Perm inverted: original row i is permuted row inv[i]
	tuned *tuner.Entry // nil unless Config.TuningDB tuned this matrix
	kmu   sync.Mutex
	ks    []hostkernel.Kernel
	vecs  sync.Pool // *reqVectors
}

// reqVectors are one request's n-length vectors, both in the permuted
// basis: the input (a seeded request fills it in place) and the
// result. They hold whatever the previous request left.
type reqVectors struct {
	in, out []float64
}

// vectors takes a request's vectors from the pool, allocating one
// block of 2·n floats when it is empty; return them with e.vecs.Put.
func (e *matrixEntry) vectors() *reqVectors {
	if v, ok := e.vecs.Get().(*reqVectors); ok {
		return v
	}
	n := e.info.Rows
	b := make([]float64, 2*n)
	return &reqVectors{in: b[:n:n], out: b[n:]}
}

// enter writes the permuted-basis request vector into v.in and returns
// it: x gathered through the permutation, or, when x is nil, the
// seeded vector filled straight into that basis.
func (e *matrixEntry) enter(v *reqVectors, x []float64, seed uint64) []float64 {
	if x == nil {
		seedFill(v.in, seed, e.op.Perm)
		return v.in
	}
	return e.op.Enter(v.in, x)
}

// kernel takes a host kernel from the freelist, building one when the
// list is empty (bounded in practice by MaxInFlight).
func (e *matrixEntry) kernel() hostkernel.Kernel {
	e.kmu.Lock()
	if n := len(e.ks); n > 0 {
		k := e.ks[n-1]
		e.ks = e.ks[:n-1]
		e.kmu.Unlock()
		return k
	}
	e.kmu.Unlock()
	return hostkernel.NewPJDS(e.op.P, hostkernel.Options{})
}

func (e *matrixEntry) releaseKernel(k hostkernel.Kernel) {
	e.kmu.Lock()
	e.ks = append(e.ks, k)
	e.kmu.Unlock()
}

// tenant is one caller's live state.
type tenant struct {
	name     string
	bucket   *tokenBucket
	lat      *latRing
	admitted atomic.Int64
	rejected atomic.Int64
	inflight atomic.Int64
}

// Server is the multi-tenant spMVM service.
type Server struct {
	cfg   Config
	reg   *telemetry.Registry
	plans *gpu.PlanCache
	adm   *admission
	lad   *ladder

	devPool chan *device
	devices []*device
	healthy atomic.Int32

	mu       sync.RWMutex
	matrices map[string]*matrixEntry
	tenants  map[string]*tenant

	draining  atomic.Bool
	baseCtx   context.Context
	cancelAll context.CancelFunc

	start        time.Time
	lat          *latRing
	served       atomic.Int64
	checkpointed atomic.Int64
	fallbacks    atomic.Int64
}

// New builds a Server. It is ready to serve immediately; call Drain
// before process exit for a graceful stop.
func New(cfg Config) *Server {
	if cfg.Devices <= 0 {
		cfg.Devices = 4
	}
	if cfg.Device == nil {
		cfg.Device = gpu.TeslaC2070()
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = cfg.Devices
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.MaxInFlight
	}
	if cfg.TenantRate <= 0 {
		cfg.TenantRate = 100
	}
	if cfg.TenantBurst <= 0 {
		cfg.TenantBurst = 200
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 30 * time.Second
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 1 << 30
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default()
	}
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		plans:    gpu.NewPlanCache(0),
		adm:      newAdmission(cfg.MaxInFlight, cfg.QueueDepth),
		matrices: map[string]*matrixEntry{},
		tenants:  map[string]*tenant{},
		start:    time.Now(),
		lat:      newLatRing(),
	}
	s.baseCtx, s.cancelAll = context.WithCancel(context.Background())
	s.devPool = make(chan *device, cfg.Devices)
	for i := 0; i < cfg.Devices; i++ {
		d := &device{id: i, dev: cfg.Device, labels: []telemetry.Label{telemetry.Li("rank", i)}}
		if cfg.DeviceFaults != nil {
			d.inj = cfg.DeviceFaults(i)
		}
		s.devices = append(s.devices, d)
		s.devPool <- d
	}
	s.healthy.Store(int32(cfg.Devices))
	s.lad = newLadder(cfg.Health, &s.healthy)
	s.reg.Help("service_requests_total", "service requests by tenant, kind and HTTP code")
	s.reg.Help("service_rejections_total", "requests shed at admission by reason")
	s.reg.Help("service_request_seconds", "end-to-end latency of successful requests")
	s.reg.Help("service_device_lost_total", "devices latched lost after an uncorrectable ECC error")
	s.reg.Help("service_host_fallbacks_total", "applications served by the host kernel instead of a device")
	s.reg.Help("service_checkpoints_total", "in-flight solves checkpointed by drain or deadline")
	s.reg.Help("service_tuning_lag_ratio", "measured spMVM ns/nnz over the tuning-DB prediction, per matrix")
	return s
}

// Close releases pooled resources after the server is fully drained.
func (s *Server) Close() {
	s.cancelAll()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.matrices {
		for _, k := range e.ks {
			k.Close()
		}
		e.ks = nil
		e.op.Close()
	}
}

// tenantFor returns (creating on first sight) the named tenant.
func (s *Server) tenantFor(name string) *tenant {
	s.mu.RLock()
	t := s.tenants[name]
	s.mu.RUnlock()
	if t != nil {
		return t
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t = s.tenants[name]; t != nil {
		return t
	}
	t = &tenant{
		name:   name,
		bucket: newTokenBucket(s.cfg.TenantRate, s.cfg.TenantBurst, time.Now()),
		lat:    newLatRing(),
	}
	s.tenants[name] = t
	return t
}

// AddMatrix streams a MatrixMarket body into the store and returns
// its descriptor. Uploads deduplicate on a content fingerprint, so
// two tenants uploading the same matrix share one pJDS layout and one
// compiled kernel plan (the cross-tenant plan cache of ROADMAP #2).
// Only square matrices are accepted — the permuted-basis operator and
// the CG solver require them, and a body longer than MaxUploadBytes is
// rejected rather than parsed up to the limit.
func (s *Server) AddMatrix(name string, r io.Reader) (MatrixInfo, error) {
	// One byte past the limit tells a body that ends at the limit from
	// one that goes on.
	lr := &io.LimitedReader{R: r, N: min(s.cfg.MaxUploadBytes, math.MaxInt64-1) + 1}
	csr, _, err := matrix.ReadMatrixMarketOpt[float64](lr, matrix.ConvertOptions{})
	if lr.N == 0 {
		return MatrixInfo{}, fmt.Errorf("service: upload %q: body exceeds the %d-byte upload limit", name, s.cfg.MaxUploadBytes)
	}
	if err != nil {
		return MatrixInfo{}, fmt.Errorf("service: upload %q: %w", name, err)
	}
	if csr.NRows != csr.NCols {
		return MatrixInfo{}, fmt.Errorf("service: upload %q: %dx%d matrix is not square", name, csr.NRows, csr.NCols)
	}
	id := contentFingerprint(csr)
	s.mu.Lock()
	if e, ok := s.matrices[id]; ok {
		info := e.info
		s.mu.Unlock()
		info.Shared = true
		if e.tuned != nil {
			info.TuningCacheHit = true // the shared entry's sweep is reused
		}
		return info, nil
	}
	s.mu.Unlock()
	// Build outside the lock: pJDS construction is the expensive part
	// and concurrent distinct uploads should not serialize.
	op, err := solver.NewPermutedPJDS(csr, core.Options{})
	if err != nil {
		return MatrixInfo{}, fmt.Errorf("service: upload %q: %w", name, err)
	}
	e := &matrixEntry{
		info: MatrixInfo{ID: id, Name: name, Rows: csr.NRows, Cols: csr.NCols, Nnz: int64(len(csr.Val))},
		op:   op,
		inv:  make([]int32, len(op.Perm)),
	}
	for j, i := range op.Perm {
		e.inv[i] = int32(j) // rows fit int32, as column indices do
	}
	if s.cfg.TuningDB != "" {
		// Tune once per content fingerprint: re-uploads of the same
		// matrix (and restarts against the same DB) answer from the
		// persisted winner instead of re-sweeping the (C, σ) grid.
		te, hit, terr := tuner.TuneOrLookup(csr, name, s.cfg.TuningDB, tuner.Config{
			Device:  s.cfg.Device,
			Workers: 1,
			Metrics: s.reg,
		})
		if terr != nil {
			op.Close()
			return MatrixInfo{}, fmt.Errorf("service: upload %q: tuning: %w", name, terr)
		}
		e.tuned = te
		e.info.TunedFormat = te.Winner.Label()
		e.info.TunedC = te.Winner.C
		e.info.TunedSigma = te.Winner.Sigma
		e.info.TunedHeight = te.Winner.Height
		e.info.TunedNsPerNnz = te.Winner.MeasuredNsPerNnz
		e.info.TuningCacheHit = hit
	}
	e.ks = append(e.ks, op.K) // seed the freelist with the operator's own kernel
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.matrices[id]; ok { // lost the build race
		info := prev.info
		info.Shared = true
		if prev.tuned != nil {
			info.TuningCacheHit = true
		}
		op.Close()
		return info, nil
	}
	s.matrices[id] = e
	s.reg.Gauge("service_matrices").Set(float64(len(s.matrices)))
	return e.info, nil
}

// lookup resolves a matrix ID.
func (s *Server) lookup(id string) (*matrixEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.matrices[id]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownMatrix, id)
}

// Matrices lists the store in upload order (by name, for status views).
func (s *Server) Matrices() []MatrixInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]MatrixInfo, 0, len(s.matrices))
	for _, e := range s.matrices {
		out = append(out, e.info)
	}
	return out
}

// acquireDevice takes a healthy device from the pool without
// blocking; nil means run on the host tier (all devices lost, or all
// busy beyond MaxInFlight).
func (s *Server) acquireDevice() *device {
	for {
		select {
		case d := <-s.devPool:
			if d.lost.Load() {
				// A board that died while pooled: drop it on the floor.
				continue
			}
			return d
		default:
			return nil
		}
	}
}

// releaseDevice returns a surviving device to the pool.
func (s *Server) releaseDevice(d *device) {
	if d == nil || d.lost.Load() {
		return
	}
	s.devPool <- d
}

// tripDevice latches d lost after an uncorrectable ECC error.
func (s *Server) tripDevice(d *device) {
	if d.lost.Swap(true) {
		return
	}
	n := s.healthy.Add(-1)
	s.reg.Counter("service_device_lost_total", telemetry.Li("device", d.id)).Inc()
	flight.Record(flight.Error, "service.device_lost", d.id, 0,
		"uncorrectable ECC error poisoned the device context; requests fall back to the host kernel", float64(n))
}

// applyOp is the per-request operator: device while one is held and
// healthy, host kernel after ECC loss — bit-identical either way. The
// context is consulted before every application, so a deadline or a
// drain cancels a solve cooperatively between kernel replays.
type applyOp struct {
	ctx context.Context
	s   *Server
	e   *matrixEntry
	d   *device
	k   hostkernel.Kernel
}

// Dim implements solver.Operator.
func (o *applyOp) Dim() int { return o.e.info.Rows }

// Apply implements solver.Operator in the permuted basis.
func (o *applyOp) Apply(yp, xp []float64) error {
	if err := o.ctx.Err(); err != nil {
		return err
	}
	if d := o.s.cfg.ApplyDelay; d > 0 {
		t := time.NewTimer(d)
		select {
		case <-o.ctx.Done():
			t.Stop()
			return o.ctx.Err()
		case <-t.C:
		}
	}
	if o.d != nil && !o.d.lost.Load() {
		_, err := gpu.RunPJDS(o.d.dev, o.e.op.P, yp, xp, gpu.RunOptions{
			Workers:      1,
			Plans:        o.s.plans,
			Metrics:      o.s.reg,
			MetricLabels: o.d.labels,
			Faults:       o.d.inj,
		})
		if err == nil {
			o.d.applies.Add(1)
			return nil
		}
		var ecc *gpu.ECCError
		if !errors.As(err, &ecc) {
			return err
		}
		// Walk one rung down the ladder and keep going: both paths sum
		// each row in stored column order, so the result bits are
		// unchanged (verified by the swarm's digest gate).
		o.s.tripDevice(o.d)
		o.d = nil
	}
	o.s.fallbacks.Add(1)
	o.s.reg.Counter("service_host_fallbacks_total").Inc()
	return o.k.MulVec(yp, xp)
}

// tierName reports the rung the request ended on ("host" when the
// device was lost mid-request and the host kernel finished the work).
func (o *applyOp) tierName() string {
	if o.d != nil {
		return "device"
	}
	return "host"
}

// close releases the operator's held resources.
func (o *applyOp) close() {
	o.s.releaseDevice(o.d)
	o.e.releaseKernel(o.k)
	o.d, o.k = nil, nil
}

// newApplyOp assembles the per-request operator at the current ladder
// tier.
func (s *Server) newApplyOp(ctx context.Context, e *matrixEntry) *applyOp {
	op := &applyOp{ctx: ctx, s: s, e: e, k: e.kernel()}
	if s.lad.tier(time.Now()) == TierDevice {
		op.d = s.acquireDevice()
	}
	return op
}

// SpMVResult is one y = A·x outcome.
type SpMVResult struct {
	Digest string    `json:"digest"`
	Tier   string    `json:"tier"`
	Y      []float64 `json:"y,omitempty"`
}

// SpMV computes y = A·x for a stored matrix, x being req.X or, when
// that is nil, SeedVector(n, req.Seed). The caller owns the admission
// slot already. The product runs in the pJDS-permuted basis on the
// matrix's two pooled vectors: a seeded x is filled straight into that
// basis, and y is digested through the inverse permutation, so only a
// want_y result is ever built in the original basis.
func (s *Server) SpMV(ctx context.Context, e *matrixEntry, req SpMVRequest) (SpMVResult, error) {
	n := e.info.Rows
	if req.X != nil && len(req.X) != n {
		return SpMVResult{}, fmt.Errorf("service: |x|=%d on %dx%d matrix", len(req.X), n, n)
	}
	v := e.vectors()
	defer e.vecs.Put(v)
	xp := e.enter(v, req.X, req.Seed)
	op := s.newApplyOp(ctx, e)
	defer op.close()
	t0 := time.Now()
	if err := op.Apply(v.out, xp); err != nil {
		return SpMVResult{}, err
	}
	if op.d == nil {
		s.recordTuningLag(e, time.Since(t0))
	}
	res := SpMVResult{Tier: op.tierName()}
	if req.WantY {
		res.Y = e.op.Leave(make([]float64, n), v.out) // the response keeps it
		res.Digest = DigestVector(res.Y)
	} else {
		res.Digest = digestGather(v.out, e.inv)
	}
	return res, nil
}

// SolveResult is one CG solve outcome. When a deadline or drain
// cancelled the solve, Checkpointed is true and the result carries
// the state of the interrupted iteration (the client can verify a
// resumed solve against Digest).
type SolveResult struct {
	Digest       string  `json:"digest"`
	Tier         string  `json:"tier"`
	Iterations   int     `json:"iterations"`
	Residual     float64 `json:"residual"`
	Converged    bool    `json:"converged"`
	Checkpointed bool    `json:"checkpointed,omitempty"`
}

// Solve runs CG from x = 0 on a stored matrix, b being req.B or, when
// that is nil, SeedVector(n, req.Seed); a tolerance or iteration
// budget ≤ 0 selects 1e-10 or 10·n. On cooperative cancellation
// (deadline, client gone, drain) it returns the checkpointed state of
// the current iterate instead of an error, so the work done is not
// discarded. The solve runs in the pJDS-permuted basis on the
// matrix's two pooled vectors, b and x: a seeded b is filled straight
// into that basis and x is digested through the inverse permutation.
func (s *Server) Solve(ctx context.Context, e *matrixEntry, req SolveRequest) (SolveResult, error) {
	n := e.info.Rows
	b := req.B
	if b != nil && len(b) != n {
		return SolveResult{}, fmt.Errorf("service: |b|=%d on %dx%d matrix", len(b), n, n)
	}
	tol, maxIter := req.Tol, req.MaxIter
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	v := e.vectors()
	defer e.vecs.Put(v)
	bp := e.enter(v, b, req.Seed)
	op := s.newApplyOp(ctx, e)
	defer op.close()
	xp := v.out
	clear(xp)
	cg, err := solver.CG(op, xp, bp, tol, maxIter)
	res := SolveResult{
		Digest:     digestGather(xp, e.inv),
		Tier:       op.tierName(),
		Iterations: cg.Iterations,
		Residual:   cg.Residual,
		Converged:  err == nil,
	}
	if res.Residual == 0 && len(cg.History) > 0 {
		res.Residual = cg.History[len(cg.History)-1]
	}
	if err != nil {
		if ctx.Err() != nil {
			// Cooperative cancellation: checkpoint the interrupted
			// iterate rather than discarding the work. The digest lets
			// the client verify a resumed solve bit-for-bit.
			res.Checkpointed = true
			s.checkpointed.Add(1)
			s.reg.Counter("service_checkpoints_total").Inc()
			flight.Record(flight.Warn, "service.solve_checkpoint", -1, 0,
				"in-flight solve checkpointed on cancellation", float64(res.Iterations))
			return res, ctx.Err()
		}
		if errors.Is(err, solver.ErrNotConverged) {
			// Hitting the client's iteration budget is a bounded-work
			// outcome, not a failure: the body says Converged=false and
			// the iterate is still the deterministic result of exactly
			// maxIter steps.
			return res, nil
		}
		return res, err
	}
	return res, nil
}

// recordTuningLag publishes how far a served application ran from its
// tuning-DB prediction: measured ns/nnz over the winner's tuned
// ns/nnz, as the per-matrix gauge service_tuning_lag_ratio. The
// health engine warns past 1.2× (signal "tuning_lag"), catching both
// stale DB entries and slowdowns the tuner never saw (contention,
// ApplyDelay). SpMV calls it only for requests that ended on the host
// rung: the tuner's figure is a host measurement, and a device
// request's wall-clock is simulation cost (replay, plan compile).
// No-op when the matrix was not tuned.
func (s *Server) recordTuningLag(e *matrixEntry, elapsed time.Duration) {
	if e.tuned == nil || e.tuned.Winner.MeasuredNsPerNnz <= 0 || e.info.Nnz <= 0 {
		return
	}
	measured := float64(elapsed.Nanoseconds()) / float64(e.info.Nnz)
	s.reg.Gauge("service_tuning_lag_ratio", telemetry.L("matrix", e.info.Name)).
		Set(measured / e.tuned.Winner.MeasuredNsPerNnz)
}

// Draining reports whether the server has stopped admitting.
func (s *Server) Draining() bool { return s.draining.Load() }

// StartDrain stops admission (idempotent). In-flight requests keep
// running; new ones get 503 + Retry-After.
func (s *Server) StartDrain() {
	if s.draining.Swap(true) {
		return
	}
	flight.Record(flight.Warn, "service.drain_start", -1, 0, "drain started: admission closed", float64(s.adm.inFlight()))
}

// DrainReport summarizes a completed drain.
type DrainReport struct {
	InFlightAtStart int64         `json:"in_flight_at_start"`
	Checkpointed    int64         `json:"checkpointed"`
	Graceful        bool          `json:"graceful"`
	Waited          time.Duration `json:"-"`
	WaitedSeconds   float64       `json:"waited_seconds"`
}

// busy reports whether any request is executing or queued.
func (s *Server) busy() bool {
	return s.adm.inFlight() > 0 || s.adm.queueDepth() > 0
}

// Drain performs the full graceful stop: close admission, wait up to
// grace for in-flight requests, then cancel the stragglers (they
// checkpoint cooperatively) and wait for them to unwind. After Drain
// returns no request is running and the caller can flush
// flight-recorder artifacts and exit 0.
func (s *Server) Drain(grace time.Duration) DrainReport {
	t0 := time.Now()
	rep := DrainReport{InFlightAtStart: s.adm.inFlight() + s.adm.queueDepth()}
	s.StartDrain()
	if grace <= 0 {
		grace = 5 * time.Second
	}
	deadline := t0.Add(grace)
	for s.busy() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if s.busy() {
		before := s.checkpointed.Load()
		s.cancelAll()
		for s.busy() {
			time.Sleep(2 * time.Millisecond)
		}
		rep.Checkpointed = s.checkpointed.Load() - before
	} else {
		rep.Graceful = true
	}
	rep.Waited = time.Since(t0)
	rep.WaitedSeconds = rep.Waited.Seconds()
	flight.Record(flight.Info, "service.drain_done", -1, 0, "drain complete", rep.WaitedSeconds)
	return rep
}

// Served returns the number of successful requests.
func (s *Server) Served() int64 { return s.served.Load() }
