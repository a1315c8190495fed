package gpu_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pjds/internal/core"
	"pjds/internal/experiments"
	"pjds/internal/gpu"
	"pjds/internal/matrix"
	"pjds/internal/telemetry"
)

// largestTable1 returns the largest (by non-zeros) Table I matrix at
// the benchmark scale (PJDS_SCALE, default 0.1) — the workload the
// acceptance criteria measure the worker-pool speedup on.
func largestTable1(b *testing.B) *matrix.CSR[float64] {
	b.Helper()
	var best *matrix.CSR[float64]
	for _, name := range experiments.Table1Matrices() {
		m, err := experiments.Matrix(name, experiments.ScaleFromEnv())
		if err != nil {
			b.Fatal(err)
		}
		if best == nil || m.Nnz() > best.Nnz() {
			best = m
		}
	}
	return best
}

func benchVec(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// benchWorkers runs one kernel replay per iteration at each worker
// count, against a pre-compiled plan (the cache is warmed before the
// timer starts, so compile time is excluded — that is what
// BenchmarkPlanCompile measures).
func benchWorkers(b *testing.B, rows int, run func(y []float64, opt gpu.RunOptions) error) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opt := gpu.RunOptions{
				Workers: w,
				Plans:   gpu.NewPlanCache(0),
				Metrics: telemetry.NewRegistry(),
			}
			y := make([]float64, rows)
			if err := run(y, opt); err != nil { // warm the plan cache
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(y, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunPJDS measures the pJDS kernel replay on the largest
// Table I matrix across worker counts (the acceptance-criteria
// benchmark: compare workers=4 against workers=1).
func BenchmarkRunPJDS(b *testing.B) {
	m := largestTable1(b)
	p, err := core.NewPJDS(m, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	d := gpu.TeslaC2070()
	x := benchVec(m.NCols)
	b.Logf("matrix: %dx%d, %d nnz", m.NRows, m.NCols, m.Nnz())
	benchWorkers(b, m.NRows, func(y []float64, opt gpu.RunOptions) error {
		_, err := gpu.RunPJDS(d, p, y, x, opt)
		return err
	})
}

// BenchmarkRunELLPACKR measures the ELLPACK-R kernel replay on the
// same matrix across worker counts.
func BenchmarkRunELLPACKR(b *testing.B) {
	m := largestTable1(b)
	e := core.NewELLPACKR(m, matrix.ConvertOptions{})
	d := gpu.TeslaC2070()
	x := benchVec(m.NCols)
	benchWorkers(b, m.NRows, func(y []float64, opt gpu.RunOptions) error {
		_, err := gpu.RunSELL(d, e, y, x, opt)
		return err
	})
}

// BenchmarkPlanCompile quantifies what the plan cache amortizes: the
// "compile" variant pays the full coalescing/L2 analysis every
// iteration (a cold cache, the pre-plan behaviour of every Run* call),
// while "replay" reuses the compiled plan and does only the numeric
// work plus counter merges.
func BenchmarkPlanCompile(b *testing.B) {
	m := largestTable1(b)
	p, err := core.NewPJDS(m, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	d := gpu.TeslaC2070()
	x := benchVec(m.NCols)
	y := make([]float64, m.NRows)
	b.Run("compile", func(b *testing.B) {
		pc := gpu.NewPlanCache(0)
		opt := gpu.RunOptions{Workers: 1, Plans: pc, Metrics: telemetry.NewRegistry()}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pc.Reset() // force a cold cache: every run compiles
			if _, err := gpu.RunPJDS(d, p, y, x, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replay", func(b *testing.B) {
		opt := gpu.RunOptions{Workers: 1, Plans: gpu.NewPlanCache(0), Metrics: telemetry.NewRegistry()}
		if _, err := gpu.RunPJDS(d, p, y, x, opt); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := gpu.RunPJDS(d, p, y, x, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}
