package main

import (
	"encoding/json"
	"fmt"
	"time"

	"pjds/internal/core"
	"pjds/internal/gpu"
	"pjds/internal/matrix"
	"pjds/internal/service"
	"pjds/internal/solver"
	"pjds/internal/telemetry"
)

// The serve workload: steady-state /v1/spmv traffic from four tenants
// against three pre-uploaded Table I matrices. Every request hits a
// compiled kernel plan, so service, gpu replay, permutation and digest
// do all the work; ingest, tuner and hostkernel are bypassed.
const (
	serveTenants = 4
	// serveRate is the open-loop arrival rate. It is fixed rather than
	// derived from the measured capacity, so both sides of a comparison
	// see the same load; it keeps the service well below saturation.
	serveRate = 50.0
	// serveClosedShare is the part of the run spent in the closed loop
	// that measures capacity; the open loop gets the rest.
	serveClosedShare = 0.3
)

// serveMatrices are the Table I matrices served, chosen for their
// spread of row lengths (Nnzr 7, 144 and 15) and scaled to ~0.5 M nnz
// each, so every request costs about the same and the latency median
// reflects all three.
var serveMatrices = []struct {
	name  string
	scale float64
}{{"sAMG", 0.02}, {"DLR1", 0.012}, {"HMEp", 0.005}}

// served is one matrix with the bench-side reference operator its
// results are checked and replayed against.
type served struct {
	name    string
	m       *matrix.CSR[float64]
	op      *solver.PermutedPJDS
	digests []string // y = A·x per vector seed
}

// newServed builds the reference operator of m and the digest of A·x
// for every vector seed, through a private host pipeline.
func newServed(name string, m *matrix.CSR[float64], vseeds []uint64) (*served, error) {
	op, err := solver.NewPermutedPJDS(m, core.Options{})
	if err != nil {
		return nil, err
	}
	s := &served{name: name, m: m, op: op}
	n := m.NRows
	for _, v := range vseeds {
		xp := op.Enter(make([]float64, n), service.SeedVector(n, v))
		yp := make([]float64, n)
		if err := op.Apply(yp, xp); err != nil {
			op.Close()
			return nil, err
		}
		s.digests = append(s.digests, service.DigestVector(op.Leave(make([]float64, n), yp)))
	}
	return s, nil
}

// upload posts body as a new matrix and returns its descriptor.
func (s *server) upload(name, tenant string, body []byte) (service.MatrixInfo, error) {
	var info service.MatrixInfo
	err := s.post("/v1/matrices?name="+name, tenant, body, &info)
	return info, err
}

// spmv posts one /v1/spmv request.
func (s *server) spmv(id, tenant string, vseed uint64) (service.SpMVResult, error) {
	body, err := json.Marshal(service.SpMVRequest{Matrix: id, Seed: vseed})
	if err != nil {
		return service.SpMVResult{}, err
	}
	var res service.SpMVResult
	err = s.post("/v1/spmv", tenant, body, &res)
	return res, err
}

func tenant(i int) string { return fmt.Sprintf("tenant-%d", i%serveTenants) }

func runServe(e env) (*result, error) {
	vseeds := vectorSeeds(e.seed)
	var mats []*served
	var bodies [][]byte
	defer func() {
		for _, s := range mats {
			s.op.Close()
		}
	}()
	for _, sm := range serveMatrices {
		m, err := paperMatrix(sm.name, sm.scale, derive(e.seed, sm.name, 0))
		if err != nil {
			return nil, err
		}
		s, err := newServed(sm.name, m, vseeds)
		if err != nil {
			return nil, err
		}
		mats = append(mats, s)
		body, err := mmBody(m)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}

	// Setup: server start, one upload per matrix, and one warm-up
	// request per matrix so its kernel plan is compiled.
	ids := make([]string, len(mats))
	cfg := service.Config{TenantRate: 1e6, TenantBurst: 1e6, ApplyDelay: e.applyDelay}
	srv, setup, err := repeatSetup(func() (*server, error) {
		s, err := startServer(cfg)
		if err != nil {
			return nil, err
		}
		for k, m := range mats {
			info, err := s.upload(m.name, tenant(k), bodies[k])
			if err == nil {
				ids[k] = info.ID
				_, err = s.spmv(info.ID, tenant(k), vseeds[0])
			}
			if err != nil {
				s.close()
				return nil, fmt.Errorf("%s: %w", m.name, err)
			}
		}
		return s, nil
	}, (*server).close)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	bodies = nil
	r := &result{setup: setup, heapMB: heapMB(), workers: maxConns, block: len(mats)}

	// pick maps request i of a phase to its matrix, in rotation, and a
	// seeded choice of vector.
	pick := func(phase string, i int) (k, v int) {
		return i % len(mats), int(derive(e.seed, phase, i) % uint64(len(vseeds)))
	}
	send := func(phase string) func(i, w int) op {
		return func(i, w int) op {
			k, v := pick(phase, i)
			o := op{start: time.Now()}
			res, err := srv.spmv(ids[k], tenant(i), vseeds[v])
			o.end = time.Now()
			o.status = classify(err, func() bool { return res.Digest == mats[k].digests[v] })
			return o
		}
	}

	before := counters(srv.reg)
	var queue *queueSampler
	if e.trace {
		queue = startQueueSampler(srv.svc)
	}
	r.closed = closedLoop(maxConns, e.dur(serveClosedShare), send("closed"))
	r.timed = openLoop(maxConns, poissonSchedule(e.seed, serveRate, e.dur(1-serveClosedShare)), send("open"))
	r.tally.add(r.closed)
	r.tally.add(r.timed)
	if !e.trace {
		return r, nil
	}
	depth := queue.finish()
	loop := since(before, counters(srv.reg))

	// Replay each sampled request's layer calls: the server-side vector
	// generation, permutation into the pJDS basis, the kernel replay on
	// a warm plan, the permutation back, and the digest.
	dev := gpu.TeslaC2070()
	plans := gpu.NewPlanCache(0)
	opt := gpu.RunOptions{Workers: 1, Plans: plans, Metrics: telemetry.NewRegistry()}
	for _, m := range mats {
		n := m.m.NRows
		if _, err := gpu.RunPJDS(dev, m.op.P, make([]float64, n), make([]float64, n), opt); err != nil {
			return nil, err
		}
	}
	err = replaySample(r.timed, r.block, func(o *op, rec *recorder) error {
		k, v := pick("open", o.id)
		m := mats[k]
		n := m.m.NRows
		var x, xp, yp, y []float64
		err := rec.span("service", "SeedVector", -1, func() error {
			x = service.SeedVector(n, vseeds[v])
			return nil
		})
		if err == nil {
			err = rec.span("solver", "PermutedPJDS.Enter", -1, func() error {
				xp = m.op.Enter(make([]float64, n), x)
				return nil
			})
		}
		if err == nil {
			err = rec.span("gpu", "RunPJDS", -1, func() error {
				yp = make([]float64, n)
				_, err := gpu.RunPJDS(dev, m.op.P, yp, xp, opt)
				return err
			})
		}
		if err == nil {
			err = rec.span("solver", "PermutedPJDS.Leave", -1, func() error {
				y = m.op.Leave(make([]float64, n), yp)
				return nil
			})
		}
		if err == nil {
			err = rec.span("service", "DigestVector", -1, func() error {
				if service.DigestVector(y) != m.digests[v] {
					return fmt.Errorf("replayed digest of %s differs", m.name)
				}
				return nil
			})
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	all := make([]*matrix.CSR[float64], len(mats))
	for k, m := range mats {
		all[k] = m.m
	}
	if r.layers, err = layerCosts(all, e.tmp); err != nil {
		return nil, err
	}
	for k, v := range counterMetrics(loop) {
		r.layers[k] = v
	}
	r.layers["service.queue_depth_max"] = float64(depth)
	return r, nil
}
