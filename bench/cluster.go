package main

import (
	"errors"
	"fmt"
	"time"

	"pjds/internal/distmv"
	"pjds/internal/distsolver"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/mpi"
	"pjds/internal/service"
	"pjds/internal/simnet"
	"pjds/internal/telemetry"
)

// The cluster workload: a batch queue of distributed jobs, the paper's
// §III workload. It cycles through the 18 points of a Fig. 5 strong-
// scaling sweep (every rank count × every §III-A communication mode)
// and one distributed CG solve. distmv partitioning, mpi/simnet halo
// exchange and collectives, the per-rank GPU-simulator profiles and the
// per-rank host kernels do the work; service and tuner are bypassed.
const (
	// DLR1 at ~0.2 M nnz: one Fig. 5 point takes ~12 ms. Working sets
	// this small ride out other tenants' memory traffic better: against
	// twice the size, the run-to-run spread halved.
	clusterScale = 0.005
	// The distributed CG runs a fixed number of iterations on
	// Stencil2D(clusterGrid, clusterGrid) over clusterRanks ranks, so
	// its virtual-time and message counts are exact. It takes about 40%
	// of a job rotation, so host-kernel and mpi changes show in
	// ops_per_s.
	clusterGrid    = 256
	clusterRanks   = 8
	clusterCGIters = 200
	// clusterMaxRelErr bounds a Fig. 5 point's deviation from the
	// serial product.
	clusterMaxRelErr = 1e-9
)

// fig5Ranks are the rank counts of the Fig. 5 sweep.
var fig5Ranks = []int{1, 2, 4, 8, 16, 32}

// clusterCycle is the number of job kinds: the sweep points plus CG.
var clusterCycle = len(fig5Ranks)*len(distmv.Modes()) + 1

// clusterJob returns the rank count and mode of job i; cg reports the
// distributed CG solve.
func clusterJob(i int) (ranks int, mode distmv.Mode, cg bool) {
	j := i % clusterCycle
	modes := distmv.Modes()
	if j == clusterCycle-1 {
		return clusterRanks, 0, true
	}
	return fig5Ranks[j/len(modes)], modes[j%len(modes)], false
}

// distCG is one distributed CG solve.
type distCG struct {
	digest string             // of the assembled iterate
	clocks []float64          // final virtual clock per rank
	counts map[string]float64 // the run's mpi counters, when it had a registry
}

// runDistCG solves A·x = b from x = 0 for exactly clusterCGIters
// iterations over the distributed problems, publishing the message-
// passing counters into reg unless it is nil. (Publishing costs a
// third of the solve's wall time, so the timed solves run without.)
func runDistCG(problems []*distmv.RankProblem, b []float64, reg *telemetry.Registry) (distCG, error) {
	x := make([]float64, len(b))
	clocks, err := mpi.RunWithOptions(len(problems), simnet.QDRInfiniBand(), mpi.Options{Metrics: reg}, func(c *mpi.Comm) error {
		rp := problems[c.Rank()]
		_, err := distsolver.CG(c, rp, x[rp.RowLo:rp.RowHi], b[rp.RowLo:rp.RowHi], 0, clusterCGIters)
		if errors.Is(err, distsolver.ErrNotConverged) {
			err = nil // tolerance 0: the fixed iteration count ends the solve
		}
		return err
	})
	if err != nil {
		return distCG{}, err
	}
	sol := distCG{digest: service.DigestVector(x), clocks: clocks}
	if reg != nil {
		sol.counts = counters(reg)
	}
	return sol, nil
}

func runCluster(e env) (*result, error) {
	dlr, err := paperMatrix("DLR1", clusterScale, derive(e.seed, "DLR1", 0))
	if err != nil {
		return nil, err
	}
	x := service.SeedVector(dlr.NCols, derive(e.seed, "x", 0))
	stencil := matgen.Stencil2D(clusterGrid, clusterGrid)
	b := service.SeedVector(stencil.NRows, derive(e.seed, "b", 0))

	// Setup: partition and distribute the CG problem, plus one warm-up
	// Fig. 5 point.
	problems, setup, err := repeatSetup(func() ([]*distmv.RankProblem, error) {
		pt, err := distmv.PartitionByNnz(stencil, clusterRanks)
		if err != nil {
			return nil, err
		}
		problems, err := distmv.DistributeOpt(stencil, pt, matrix.ConvertOptions{})
		if err != nil {
			return nil, err
		}
		_, err = distmv.RunSpMVM(dlr, x, 1, distmv.VectorMode, distmv.Config{Iterations: 1, Telemetry: telemetry.NewRegistry()})
		return problems, err
	}, func([]*distmv.RankProblem) {})
	if err != nil {
		return nil, err
	}
	r := &result{setup: setup, heapMB: heapMB(), workers: 1, block: clusterCycle}
	// The reference solve every timed one must reproduce bit for bit;
	// its message-passing counters are the mpi metrics.
	ref, err := runDistCG(problems, b, telemetry.NewRegistry())
	if err != nil {
		return nil, err
	}

	// first holds each Fig. 5 point's first run: virtual results are
	// exact, so every later run of the point must reproduce them.
	type firstRun struct {
		gflops float64
		counts map[string]float64
	}
	first := make([]*firstRun, clusterCycle)
	r.closed = closedLoop(1, e.dur(1), func(i, _ int) op {
		ranks, mode, cg := clusterJob(i)
		var rec recorder
		var fig5 *distmv.Result
		var sol distCG
		reg := telemetry.NewRegistry()
		o := op{start: time.Now()}
		var err error
		if cg {
			err = rec.span("mpi", fmt.Sprintf("distributed CG P=%d", ranks), -1, func() (err error) {
				sol, err = runDistCG(problems, b, nil)
				return err
			})
		} else {
			err = rec.span("distmv", fmt.Sprintf("RunSpMVM P=%d %s", ranks, mode.Slug()), -1, func() (err error) {
				fig5, err = distmv.RunSpMVM(dlr, x, ranks, mode, distmv.Config{Iterations: 1, Telemetry: reg})
				return err
			})
		}
		o.end = time.Now()
		if e.trace {
			o.spans = rec.spans
		}
		if err != nil {
			fmt.Fprintf(e.log, "cluster: job %d: %v\n", i, err)
			o.status = opFailed
			return o
		}
		if cg {
			o.status = classify(nil, func() bool { return sol.digest == ref.digest })
			return o
		}
		j := i % clusterCycle
		if first[j] == nil {
			first[j] = &firstRun{gflops: fig5.GFlops, counts: counters(reg)}
		}
		o.status = classify(nil, func() bool {
			rel, err := distmv.VerifyAgainstSerial(dlr, x, fig5.Y)
			return err == nil && rel <= clusterMaxRelErr && fig5.GFlops == first[j].gflops
		})
		return o
	})
	r.timed = r.closed
	r.tally.add(r.closed)
	if !e.trace {
		return r, nil
	}

	if r.layers, err = layerCosts([]*matrix.CSR[float64]{dlr, stencil}, e.tmp); err != nil {
		return nil, err
	}
	sweep := map[string]float64{}
	var gflops []float64
	for _, f := range first {
		if f == nil {
			continue
		}
		for k, v := range f.counts {
			sweep[k] += v
		}
		gflops = append(gflops, f.gflops)
	}
	for k, v := range counterMetrics(sweep) {
		r.layers[k] = v
	}
	r.layers["distmv.sim_gflops"] = geomean(gflops)
	virtual := 0.0
	for _, t := range ref.clocks {
		virtual = max(virtual, t)
	}
	c := ref.counts
	r.layers["mpi.sends_per_iter"] = c["mpi_sends_total"] / clusterCGIters
	r.layers["mpi.send_bytes_per_iter"] = c["mpi_send_bytes_total"] / clusterCGIters
	r.layers["mpi.collectives_per_iter"] = c["mpi_collectives_total"] / clusterCGIters
	r.layers["mpi.recv_wait_share"] = c["mpi_recv_wait_seconds_total"] / (virtual * float64(len(ref.clocks)))
	return r, nil
}
