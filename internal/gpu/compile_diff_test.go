package gpu_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pjds/internal/core"
	"pjds/internal/distmv"
	"pjds/internal/gpu"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/telemetry"
)

// compileCase is one format the differential compile test runs: run
// executes it once, compiling its plan into the given cache.
type compileCase struct {
	name string
	run  func(d *gpu.Device, pc *gpu.PlanCache) error
}

func runOpt(pc *gpu.PlanCache) gpu.RunOptions {
	return gpu.RunOptions{Workers: 1, Plans: pc, Metrics: telemetry.NewRegistry()}
}

func sellCase[T matrix.Float](name string, m *matrix.CSR[T], build func(*matrix.CSR[T]) (*core.SELL[T], error)) compileCase {
	return compileCase{name, func(d *gpu.Device, pc *gpu.PlanCache) error {
		s, err := build(m)
		if err != nil {
			return err
		}
		_, err = gpu.RunSELL(d, s, make([]T, s.NPad), make([]T, s.NCols), runOpt(pc))
		return err
	}}
}

func cmrsCase[T matrix.Float](name string, m *matrix.CSR[T], height int) compileCase {
	return compileCase{name, func(d *gpu.Device, pc *gpu.PlanCache) error {
		c, err := core.NewCMRS(m, height)
		if err != nil {
			return err
		}
		_, err = gpu.RunCMRS(d, c, make([]T, c.N), make([]T, c.NCols), runOpt(pc))
		return err
	}}
}

func ellrtCase[T matrix.Float](name string, m *matrix.CSR[T], threads int) compileCase {
	return compileCase{name, func(d *gpu.Device, pc *gpu.PlanCache) error {
		e, err := core.NewELLRT(m, threads)
		if err != nil {
			return err
		}
		_, err = gpu.RunELLRT(d, e, make([]T, e.N), make([]T, e.NCols), runOpt(pc))
		return err
	}}
}

func bellpackCase[T matrix.Float](name string, m *matrix.CSR[T], br, bc int) compileCase {
	return compileCase{name, func(d *gpu.Device, pc *gpu.PlanCache) error {
		e, err := core.NewBELLPACK(m, br, bc)
		if err != nil {
			return err
		}
		_, err = gpu.RunBELLPACK(d, e, make([]T, e.N), make([]T, e.NCols), runOpt(pc))
		return err
	}}
}

func csrCase[T matrix.Float](name string, m *matrix.CSR[T], run func(*gpu.Device, *matrix.CSR[T], []T, []T, gpu.RunOptions) (*gpu.KernelStats, error)) compileCase {
	return compileCase{name, func(d *gpu.Device, pc *gpu.PlanCache) error {
		_, err := run(d, m, make([]T, m.NRows), make([]T, m.NCols), runOpt(pc))
		return err
	}}
}

// presetCases covers every SELL preset and the (C, σ) grid of core's
// TestPresetsBitIdenticalToCSR, CMRS at several strip heights, ELLR-T
// at every T that divides the warp, BELLPACK at three block shapes, and
// both CSR kernels, which share one matrix and so must compile two
// plans.
func presetCases[T matrix.Float](tag string, m *matrix.CSR[T]) []compileCase {
	cv := matrix.ConvertOptions{}
	sell := func(c, sigma int) func(*matrix.CSR[T]) (*core.SELL[T], error) {
		return func(m *matrix.CSR[T]) (*core.SELL[T], error) { return core.NewSELL(m, c, sigma, cv) }
	}
	pjds := func(br int) func(*matrix.CSR[T]) (*core.SELL[T], error) {
		return func(m *matrix.CSR[T]) (*core.SELL[T], error) {
			p, err := core.NewPJDS(m, core.Options{BlockHeight: br})
			if err != nil {
				return nil, err
			}
			return &p.SELL, nil
		}
	}
	cases := []compileCase{
		sellCase(tag+"/ELLPACK", m, func(m *matrix.CSR[T]) (*core.SELL[T], error) { return core.NewELLPACK(m, cv), nil }),
		sellCase(tag+"/ELLPACK-R", m, func(m *matrix.CSR[T]) (*core.SELL[T], error) { return core.NewELLPACKR(m, cv), nil }),
		sellCase(tag+"/SELL-4-1", m, sell(4, 1)),
		sellCase(tag+"/SELL-8-16", m, sell(8, 16)),
		sellCase(tag+"/SELL-32-N", m, sell(32, math.MaxInt)),
		sellCase(tag+"/pJDS", m, pjds(32)),
		sellCase(tag+"/pJDS-br4", m, pjds(4)),
		sellCase(tag+"/JDS", m, pjds(1)),
	}
	for _, c := range []int{2, 3, 5, 12, 16, 24, 64} {
		for _, sigma := range []int{1, 16, math.MaxInt} {
			cases = append(cases, sellCase(fmt.Sprintf("%s/SELL-%d-%d", tag, c, sigma), m, sell(c, sigma)))
		}
	}
	for _, h := range []int{1, 4, 8, 32} {
		cases = append(cases, cmrsCase(fmt.Sprintf("%s/CMRS-%d", tag, h), m, h))
	}
	for _, threads := range []int{1, 2, 4, 8, 16, 32} {
		cases = append(cases, ellrtCase(fmt.Sprintf("%s/ELLR-T(%d)", tag, threads), m, threads))
	}
	for _, blk := range [][2]int{{2, 2}, {5, 5}, {2, 4}} {
		cases = append(cases, bellpackCase(fmt.Sprintf("%s/BELLPACK(%dx%d)", tag, blk[0], blk[1]), m, blk[0], blk[1]))
	}
	return append(cases,
		csrCase(tag+"/CSR-scalar", m, gpu.RunCSRScalar[T]),
		csrCase(tag+"/CSR-vector", m, gpu.RunCSRVector[T]))
}

// compileMatrices returns the preset inputs: mixed row lengths over a
// few warps, the same with every third row empty, a matrix with no
// non-zeros, and a banded matrix spanning many warps.
func compileMatrices() []struct {
	name string
	m    *matrix.CSR[float64]
} {
	rng := rand.New(rand.NewSource(42))
	random := matrix.NewCOO[float64](70, 50)
	gaps := matrix.NewCOO[float64](70, 50)
	for i := 0; i < 70; i++ {
		for j := 0; j < (i*7)%13; j++ {
			random.Add(i, rng.Intn(50), rng.NormFloat64())
		}
		if i%3 != 0 {
			for j := 0; j < 1+(i*5)%11; j++ {
				gaps.Add(i, 1+rng.Intn(49), rng.NormFloat64())
			}
		}
	}
	banded := matrix.NewCOO[float64](1517, 1517)
	for i := 0; i < 1517; i++ {
		l := 1 + rng.Intn(60)
		for k := 0; k < l; k++ {
			banded.Add(i, (i-l/2+k+1517)%1517, rng.NormFloat64())
		}
	}
	return []struct {
		name string
		m    *matrix.CSR[float64]
	}{
		{"random", random.ToCSR()}, {"empty-rows", gaps.ToCSR()},
		{"empty", matrix.NewCOO[float64](33, 40).ToCSR()}, {"banded", banded.ToCSR()},
	}
}

// checkCompiles runs every case into one plan cache per device and
// checks each compiled plan against the reference compiler.
func checkCompiles(t *testing.T, cases []compileCase, devices ...*gpu.Device) {
	t.Helper()
	for _, d := range devices {
		pc := gpu.NewPlanCache(len(cases))
		for _, c := range cases {
			if err := c.run(d, pc); err != nil {
				t.Fatalf("%s on %s: %v", c.name, d.Name, err)
			}
		}
		n, err := gpu.CheckCompiledPlans(d, pc)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if n != len(cases) {
			t.Fatalf("%s: checked %d plans for %d cases", d.Name, n, len(cases))
		}
	}
}

// TestCompileMatchesReference asserts that the run-counting compiler
// yields every KernelStats counter of the scan-based reference, on the
// preset grid in both precisions, without an L2, with the C2050's, and
// with one of four 2-way sets, where a step's probe order decides
// which of its sectors evict each other.
func TestCompileMatchesReference(t *testing.T) {
	tiny := gpu.TeslaC2050()
	tiny.L2 = &gpu.CacheConfig{Bytes: 256, LineBytes: 128, Assoc: 2, RHSFraction: 1}
	for _, tm := range compileMatrices() {
		t.Run(tm.name, func(t *testing.T) {
			cases := append(presetCases("DP", tm.m), presetCases("SP", matrix.Convert[float32](tm.m))...)
			checkCompiles(t, cases, gpu.TeslaC2050(), gpu.TeslaC1060(), tiny)
		})
	}
}

// TestCompileMatchesReferenceOnRankMatrices covers the matrices the
// distributed engine compiles: the local, non-local and merged
// sub-matrices of every rank of a DLR1 partition, in both device
// formats of the Fig. 5 runs.
func TestCompileMatchesReferenceOnRankMatrices(t *testing.T) {
	m := matgen.DLR1(0.005, 1)
	for _, p := range []int{4, 32} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			pt, err := distmv.PartitionByNnz(m, p)
			if err != nil {
				t.Fatal(err)
			}
			problems, err := distmv.Distribute(m, pt)
			if err != nil {
				t.Fatal(err)
			}
			var cases []compileCase
			for _, rp := range problems {
				for phase, sub := range map[string]*matrix.CSR[float64]{
					"local": rp.Local, "non-local": rp.NonLocal, "merged": rp.MergedSlice(),
				} {
					tag := fmt.Sprintf("rank%d/%s", rp.Rank, phase)
					cases = append(cases,
						sellCase(tag+"/ELLPACK-R", sub, func(m *matrix.CSR[float64]) (*core.SELL[float64], error) {
							return core.NewELLPACKR(m, matrix.ConvertOptions{}), nil
						}),
						sellCase(tag+"/pJDS", sub, func(m *matrix.CSR[float64]) (*core.SELL[float64], error) {
							p, err := core.NewPJDS(m, core.Options{})
							if err != nil {
								return nil, err
							}
							return &p.SELL, nil
						}))
				}
			}
			checkCompiles(t, cases, gpu.TeslaC2050())
		})
	}
}
