package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"time"

	"pjds/internal/core"
	"pjds/internal/distmv"
	"pjds/internal/gpu"
	"pjds/internal/hostkernel"
	"pjds/internal/matrix"
	"pjds/internal/service"
	"pjds/internal/telemetry"
	"pjds/internal/tuner"
)

// layerReps is how many timed calls each layer measurement takes the
// best of, after one untimed warm-up call where the layer has one.
const layerReps = 3

// best runs f reps times and returns the fastest run in seconds.
func best(reps int, f func() error) (float64, error) {
	b := math.Inf(1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		b = min(b, time.Since(t0).Seconds())
	}
	return b, nil
}

// partitionRanks is the rank count the partitioning cost is taken at.
const partitionRanks = 8

// layerCosts times each layer's public entry point on the workload's
// own matrices, whether or not the workload's loop crosses that layer.
// A change to a layer should move its cost here on every workload, and
// the end-to-end metrics only on the workloads whose loop crosses it.
// All host kernels run on one worker, so the numbers do not depend on
// how busy the second CPU is.
func layerCosts(mats []*matrix.CSR[float64], tmp string) (map[string]float64, error) {
	dev := gpu.TeslaC2070()
	scratch := telemetry.NewRegistry()
	var nnz, mb, parse, build, compile, replay, partition float64
	kernel := map[string]float64{}
	var gflops []float64
	for _, m := range mats {
		nnz += float64(m.Nnz())
		body, err := mmBody(m)
		if err != nil {
			return nil, err
		}
		mb += float64(len(body)) / 1e6
		t, err := best(1, func() error {
			_, _, err := matrix.ReadMatrixMarketOpt[float64](bytes.NewReader(body), matrix.ConvertOptions{})
			return err
		})
		if err != nil {
			return nil, err
		}
		parse += t
		body = nil

		var p *core.PJDS[float64]
		t, err = best(1, func() (err error) {
			p, err = core.NewPJDS(m, core.Options{})
			return err
		})
		if err != nil {
			return nil, err
		}
		build += t

		plans := gpu.NewPlanCache(0)
		xp := service.SeedVector(p.NCols, 1)
		yp := make([]float64, p.NPad)
		opt := gpu.RunOptions{Workers: 1, Plans: plans, Metrics: scratch}
		st, err := gpu.RunPJDS(dev, p, yp, xp, opt)
		if err != nil {
			return nil, err
		}
		compile += plans.Stats().CompileSeconds
		gflops = append(gflops, st.GFlops)
		t, err = best(layerReps, func() error {
			_, err := gpu.RunPJDS(dev, p, yp, xp, opt)
			return err
		})
		if err != nil {
			return nil, err
		}
		replay += t

		pk := hostkernel.NewPJDS(p, hostkernel.Options{Workers: 1})
		t, err = timeKernel(pk, yp, xp)
		pk.Close()
		if err != nil {
			return nil, err
		}
		kernel["pjds"] += t
		x := service.SeedVector(m.NCols, 1)
		y := make([]float64, m.NRows)
		for _, kind := range hostkernel.Kinds() {
			k, err := hostkernel.New(kind, m, hostkernel.Options{Workers: 1})
			if err != nil {
				return nil, err
			}
			t, err := timeKernel(k, y, x)
			k.Close()
			if err != nil {
				return nil, err
			}
			kernel[string(kind)] += t
		}

		t, err = best(1, func() error {
			pt, err := distmv.PartitionByNnz(m, partitionRanks)
			if err != nil {
				return err
			}
			_, err = distmv.DistributeOpt(m, pt, matrix.ConvertOptions{})
			return err
		})
		if err != nil {
			return nil, err
		}
		partition += t
	}

	// One tuning sweep, on the workload's first matrix, against an
	// empty DB so it always sweeps.
	db := filepath.Join(tmp, "layers-tuning.jsonl")
	var entry *tuner.Entry
	sweep, err := best(1, func() (err error) {
		entry, _, err = tuner.TuneOrLookup(mats[0], "layers", db, tuner.Config{Device: dev, Workers: 1, Metrics: scratch})
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := os.Remove(db); err != nil {
		return nil, err
	}

	out := map[string]float64{
		"matrix.parse_ms_per_mb":      1e3 * parse / mb,
		"core.pjds_build_ns_per_nnz":  1e9 * build / nnz,
		"gpu.compile_ns_per_nnz":      1e9 * compile / nnz,
		"gpu.replay_ns_per_nnz":       1e9 * replay / nnz,
		"gpu.model_gflops":            geomean(gflops),
		"tuner.sweep_ns_per_nnz":      1e9 * sweep / float64(mats[0].Nnz()),
		"distmv.partition_ns_per_nnz": 1e9 * partition / nnz,
	}
	for kind, t := range kernel {
		out["hostkernel.ns_per_nnz."+kind] = 1e9 * t / nnz
	}
	// Eq. 1 traffic per non-zero as the tuner's model computes it:
	// the best cell of each format on the first matrix.
	for _, c := range entry.Cells {
		name := "hostkernel.model_bytes_per_nnz." + c.Format
		if v, ok := out[name]; !ok || c.ModelBytesPerNnz < v {
			out[name] = c.ModelBytesPerNnz
		}
	}
	return out, nil
}

// timeKernel returns the best of layerReps timed applications after a
// warm-up.
func timeKernel(k interface{ MulVec(y, x []float64) error }, y, x []float64) (float64, error) {
	if err := k.MulVec(y, x); err != nil {
		return 0, err
	}
	return best(layerReps, func() error { return k.MulVec(y, x) })
}

// pathCounters are the per-layer metrics read from a workload's own
// loop; a workload whose loop bypasses the layer reports 0.
var pathCounters = []string{
	"service.queue_depth_max",
	"service.rejections",
	"service.host_fallbacks",
	"service.dedup_ratio",
	"gpu.plan_hit_ratio",
	"tuner.cells_per_sweep",
	"tuner.cache_hit_ratio",
	"solver.cg_iters",
	"distmv.sim_gflops",
	"mpi.sends_per_iter",
	"mpi.send_bytes_per_iter",
	"mpi.collectives_per_iter",
	"mpi.recv_wait_share",
}

// counterMetrics derives the per-layer counter metrics from the growth
// of the program's own telemetry counters over a loop.
func counterMetrics(c map[string]float64) map[string]float64 {
	out := map[string]float64{
		"service.rejections":     c["service_rejections_total"],
		"service.host_fallbacks": c["service_host_fallbacks_total"],
		"gpu.plan_hit_ratio":     ratio(c["gpu_plan_cache_hits_total"], c["gpu_plan_cache_misses_total"]),
		"tuner.cache_hit_ratio":  ratio(c["tuner_cache_hits_total"], c["tuner_cache_misses_total"]),
	}
	if sweeps := c["tuner_sweeps_total"]; sweeps > 0 {
		out["tuner.cells_per_sweep"] = c["tuner_candidates_measured_total"] / sweeps
	}
	return out
}
