package main

import (
	"encoding/json"
	"fmt"
	"time"

	"pjds/internal/core"
	"pjds/internal/gpu"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/service"
	"pjds/internal/solver"
	"pjds/internal/telemetry"
)

// The solve workload: one client solves an SPD 2D Poisson system to a
// fixed tolerance through /v1/solve. Each solve makes hundreds of
// kernel replays, so per-request HTTP and JSON cost is negligible and
// kernel-replay changes show here without the request overhead that
// dominates serve.
const (
	// solveGrid sizes Stencil2D(solveGrid, solveGrid) so one solve
	// (~330 iterations) takes ~0.1 s on two CPUs: a 20 s run collects
	// well over 100 solves, enough for a p90 with ten samples beyond it.
	solveGrid = 96
	solveTol  = 1e-10
)

// solution is the bench-side reference solve for one right-hand side.
type solution struct {
	digest string
	iters  int
}

// referenceSolves solves A·x = b for every vector seed on the
// reference operator, with the service's default iteration budget.
func referenceSolves(op *solver.PermutedPJDS, vseeds []uint64) ([]solution, error) {
	n := op.Dim()
	var out []solution
	for _, v := range vseeds {
		bp := op.Enter(make([]float64, n), service.SeedVector(n, v))
		xp := make([]float64, n)
		res, err := solver.CG(op, xp, bp, solveTol, 10*n)
		if err != nil {
			return nil, fmt.Errorf("reference solve: %w", err)
		}
		out = append(out, solution{service.DigestVector(op.Leave(make([]float64, n), xp)), res.Iterations})
	}
	return out, nil
}

// solve posts one /v1/solve request.
func (s *server) solve(id string, vseed uint64) (service.SolveResult, error) {
	body, err := json.Marshal(service.SolveRequest{Matrix: id, Seed: vseed, Tol: solveTol})
	if err != nil {
		return service.SolveResult{}, err
	}
	var res service.SolveResult
	err = s.post("/v1/solve", "solve", body, &res)
	return res, err
}

// gpuOperator applies a pJDS matrix through the simulated device, as
// the service does, recording each application as a span.
type gpuOperator struct {
	dev    *gpu.Device
	p      *core.PJDS[float64]
	opt    gpu.RunOptions
	rec    *recorder
	parent int
}

func (g *gpuOperator) Dim() int { return g.p.N }

func (g *gpuOperator) Apply(y, x []float64) error {
	return g.rec.span("gpu", "RunPJDS", g.parent, func() error {
		_, err := gpu.RunPJDS(g.dev, g.p, y, x, g.opt)
		return err
	})
}

func runSolve(e env) (*result, error) {
	m := matgen.Stencil2D(solveGrid, solveGrid)
	vseeds := vectorSeeds(e.seed)
	ref, err := solver.NewPermutedPJDS(m, core.Options{})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	want, err := referenceSolves(ref, vseeds)
	if err != nil {
		return nil, err
	}
	body, err := mmBody(m)
	if err != nil {
		return nil, err
	}

	var id string
	srv, setup, err := repeatSetup(func() (*server, error) {
		s, err := startServer(service.Config{ApplyDelay: e.applyDelay})
		if err != nil {
			return nil, err
		}
		info, err := s.upload("stencil", "solve", body)
		if err == nil {
			id = info.ID
			_, err = s.spmv(id, "solve", vseeds[0])
		}
		if err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}, (*server).close)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	body = nil
	// Right-hand sides rotate, so each statistics block solves each once.
	r := &result{setup: setup, heapMB: heapMB(), workers: 1, block: len(vseeds)}
	pick := func(i int) int { return i % len(vseeds) }
	before := counters(srv.reg)
	var queue *queueSampler
	if e.trace {
		queue = startQueueSampler(srv.svc)
	}
	r.closed = closedLoop(1, e.dur(1), func(i, _ int) op {
		v := pick(i)
		o := op{start: time.Now()}
		res, err := srv.solve(id, vseeds[v])
		o.end = time.Now()
		o.status = classify(err, func() bool {
			return res.Converged && res.Digest == want[v].digest && res.Iterations == want[v].iters
		})
		return o
	})
	r.timed = r.closed
	r.tally.add(r.closed)
	if !e.trace {
		return r, nil
	}
	depth := queue.finish()
	loop := since(before, counters(srv.reg))

	// Replay each sampled solve: permutation in, CG with every
	// application on the simulated device, permutation out, digest.
	plans := gpu.NewPlanCache(0)
	g := &gpuOperator{
		dev: gpu.TeslaC2070(), p: ref.P, rec: &recorder{},
		opt: gpu.RunOptions{Workers: 1, Plans: plans, Metrics: telemetry.NewRegistry()},
	}
	n := m.NRows
	if err := g.Apply(make([]float64, n), make([]float64, n)); err != nil { // compiles the plan
		return nil, err
	}
	err = replaySample(r.timed, r.block, func(o *op, rec *recorder) error {
		v := pick(o.id)
		g.rec = rec
		var bp, xp, x []float64
		err := rec.span("service", "SeedVector", -1, func() error {
			bp = service.SeedVector(n, vseeds[v])
			return nil
		})
		if err == nil {
			err = rec.span("solver", "PermutedPJDS.Enter", -1, func() error {
				bp = ref.Enter(make([]float64, n), bp)
				return nil
			})
		}
		if err == nil {
			g.parent = len(rec.spans) // the CG span encloses every application
			err = rec.span("solver", "CG", -1, func() error {
				xp = make([]float64, n)
				_, err := solver.CG(g, xp, bp, solveTol, 10*n)
				return err
			})
		}
		if err == nil {
			err = rec.span("solver", "PermutedPJDS.Leave", -1, func() error {
				x = ref.Leave(make([]float64, n), xp)
				return nil
			})
		}
		if err == nil {
			err = rec.span("service", "DigestVector", -1, func() error {
				if service.DigestVector(x) != want[v].digest {
					return fmt.Errorf("replayed solve digest differs")
				}
				return nil
			})
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	if r.layers, err = layerCosts([]*matrix.CSR[float64]{m}, e.tmp); err != nil {
		return nil, err
	}
	for k, v := range counterMetrics(loop) {
		r.layers[k] = v
	}
	r.layers["service.queue_depth_max"] = float64(depth)
	iters := 0
	for _, w := range want {
		iters += w.iters
	}
	r.layers["solver.cg_iters"] = float64(iters)
	return r, nil
}
