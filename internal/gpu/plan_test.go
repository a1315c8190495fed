package gpu

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"pjds/internal/core"
	"pjds/internal/telemetry"
)

// kernelCase abstracts one storage format for the determinism matrix:
// run executes the kernel into y with the given options.
type kernelCase struct {
	name string
	rows int
	run  func(d *Device, y, x []float64, opt RunOptions) (*KernelStats, error)
}

// kernelCases builds every plan-compiled kernel over one imbalanced
// matrix (mixed row lengths exercise divergence, partial transactions,
// and the trailing partial warp via a non-multiple-of-32 size).
func kernelCases(t *testing.T) (cases []kernelCase, x []float64) {
	t.Helper()
	const n = 1517
	m := bandedCSR(n, 1, 60, 42)
	x = randVec(n, 43)

	ell := newELL(m)
	ellr := newELLR(m)
	p, err := newPJDS(m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSliced(m, 32, 128)
	if err != nil {
		t.Fatal(err)
	}
	ert, err := core.NewELLRT(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	cmrs, err := core.NewCMRS(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	cases = []kernelCase{
		{"ELLPACK", n, func(d *Device, y, x []float64, opt RunOptions) (*KernelStats, error) {
			return RunSELL(d, ell, y, x, opt)
		}},
		{"ELLPACK-R", n, func(d *Device, y, x []float64, opt RunOptions) (*KernelStats, error) {
			return RunSELL(d, ellr, y, x, opt)
		}},
		{"pJDS", n, func(d *Device, y, x []float64, opt RunOptions) (*KernelStats, error) {
			return RunPJDS(d, p, y, x, opt)
		}},
		{"sliced-ELL", n, func(d *Device, y, x []float64, opt RunOptions) (*KernelStats, error) {
			return RunSELL(d, s, y, x, opt)
		}},
		{"CSR-scalar", n, func(d *Device, y, x []float64, opt RunOptions) (*KernelStats, error) {
			return RunCSRScalar(d, m, y, x, opt)
		}},
		{"CSR-vector", n, func(d *Device, y, x []float64, opt RunOptions) (*KernelStats, error) {
			return RunCSRVector(d, m, y, x, opt)
		}},
		{"ELLR-T", n, func(d *Device, y, x []float64, opt RunOptions) (*KernelStats, error) {
			return RunELLRT(d, ert, y, x, opt)
		}},
		{"CMRS", n, func(d *Device, y, x []float64, opt RunOptions) (*KernelStats, error) {
			return RunCMRS(d, cmrs, y, x, opt)
		}},
	}
	for _, blk := range [][2]int{{2, 2}, {5, 5}, {2, 4}} {
		// n is no multiple of BC: the last block column is partial.
		e, err := core.NewBELLPACK(m, blk[0], blk[1])
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, kernelCase{e.Name(), n, func(d *Device, y, x []float64, opt RunOptions) (*KernelStats, error) {
			return RunBELLPACK(d, e, y, x, opt)
		}})
	}
	return cases, x
}

// TestWorkerDeterminism asserts the tentpole guarantee: parallel
// execution (Workers=3 and 8) is byte-identical to sequential
// (Workers=1) in the result vector, the KernelStats, and the full
// telemetry registry output — for every kernel, with and without
// accumulation.
func TestWorkerDeterminism(t *testing.T) {
	cases, x := kernelCases(t)
	for _, kc := range cases {
		for _, acc := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/acc=%v", kc.name, acc), func(t *testing.T) {
				type outcome struct {
					y    []float64
					st   *KernelStats
					prom []byte
				}
				runWith := func(workers int) outcome {
					d := TeslaC2070()
					reg := telemetry.NewRegistry()
					y := make([]float64, kc.rows)
					for i := range y {
						y[i] = 1.0 / float64(i+1) // nonzero base exercises accumulation
					}
					st, err := kc.run(d, y, x, RunOptions{
						Accumulate: acc,
						Workers:    workers,
						Plans:      NewPlanCache(0),
						Metrics:    reg,
					})
					if err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					if err := reg.WritePrometheus(&buf); err != nil {
						t.Fatal(err)
					}
					return outcome{y: y, st: st, prom: buf.Bytes()}
				}
				seq := runWith(1)
				for _, workers := range []int{3, 8} {
					par := runWith(workers)
					for i := range seq.y {
						if math.Float64bits(seq.y[i]) != math.Float64bits(par.y[i]) {
							t.Fatalf("y[%d]: sequential %x, %d workers %x", i,
								math.Float64bits(seq.y[i]), workers, math.Float64bits(par.y[i]))
						}
					}
					if !reflect.DeepEqual(seq.st, par.st) {
						t.Fatalf("stats diverge at %d workers:\nseq: %+v\npar: %+v", workers, seq.st, par.st)
					}
					if !bytes.Equal(seq.prom, par.prom) {
						t.Fatalf("telemetry diverges at %d workers:\nseq:\n%s\npar:\n%s", workers, seq.prom, par.prom)
					}
				}
			})
		}
	}
}

// TestWorkerSweepMatchesReference checks the numeric result against
// the CSR reference for several worker counts, including counts that
// exceed the warp count (clamped internally).
func TestWorkerSweepMatchesReference(t *testing.T) {
	const n = 700
	m := bandedCSR(n, 2, 30, 9)
	x := randVec(n, 10)
	ref := refMulVec(t, m, x)
	ellr := newELLR(m)
	d := TeslaC2070()
	for _, w := range []int{0, 1, 2, 3, 8, 1000} {
		y := make([]float64, n)
		if _, err := RunSELL(d, ellr, y, x, RunOptions{Workers: w, Plans: NewPlanCache(0)}); err != nil {
			t.Fatal(err)
		}
		checkClose(t, fmt.Sprintf("workers=%d", w), y, ref)
	}
}

// TestPlanCacheHitMiss covers the cache lifecycle: first run compiles,
// repeats hit, an ECC toggle shares the plan (geometry-only
// fingerprint), and a genuinely different geometry compiles anew.
func TestPlanCacheHitMiss(t *testing.T) {
	m := bandedCSR(600, 2, 25, 5)
	x := randVec(600, 6)
	ellr := newELLR(m)
	pc := NewPlanCache(0)
	opt := RunOptions{Plans: pc, Metrics: telemetry.NewRegistry()}

	d := TeslaC2070()
	st1, err := RunSELL(d, ellr, make([]float64, 600), x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s := pc.Stats(); s.Misses != 1 || s.Hits != 0 || s.Compiles != 1 || s.Entries != 1 {
		t.Fatalf("after first run: %+v", s)
	}
	st2, err := RunSELL(d, ellr, make([]float64, 600), x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s := pc.Stats(); s.Misses != 1 || s.Hits != 1 || s.Compiles != 1 {
		t.Fatalf("after repeat: %+v", s)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("replayed stats differ:\n%+v\n%+v", st1, st2)
	}

	// ECC off changes bandwidth but not geometry: same plan, new
	// timing — exactly Rederive's contract.
	noECC := TeslaC2070()
	noECC.ECC = false
	st3, err := RunSELL(noECC, ellr, make([]float64, 600), x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s := pc.Stats(); s.Misses != 1 || s.Hits != 2 || s.Entries != 1 {
		t.Fatalf("ECC toggle should hit: %+v", s)
	}
	want := st1.Rederive(noECC)
	if !reflect.DeepEqual(*st3, want) {
		t.Fatalf("ECC-off stats != Rederive:\n%+v\n%+v", *st3, want)
	}
	if st3.KernelSeconds >= st1.KernelSeconds {
		t.Errorf("ECC off should be faster: %g vs %g", st3.KernelSeconds, st1.KernelSeconds)
	}

	// A different L2 pollution fraction is a different simulated
	// machine: new plan.
	other := TeslaC2070()
	l2 := *other.L2
	l2.RHSFraction = 1
	other.L2 = &l2
	if _, err := RunSELL(other, ellr, make([]float64, 600), x, opt); err != nil {
		t.Fatal(err)
	}
	if s := pc.Stats(); s.Misses != 2 || s.Compiles != 2 || s.Entries != 2 {
		t.Fatalf("geometry change should compile: %+v", s)
	}
	if pc.Stats().CompiledWarps != 2*int64((ellr.NPad+31)/32) {
		t.Errorf("compiled warps = %d, want %d", pc.Stats().CompiledWarps, 2*(ellr.NPad+31)/32)
	}
}

// TestPlanCacheInvalidate checks explicit invalidation (all device
// variants of one format drop; other formats stay) and Reset.
func TestPlanCacheInvalidate(t *testing.T) {
	m := bandedCSR(400, 2, 20, 11)
	x := randVec(400, 12)
	ellr := newELLR(m)
	p, err := newPJDS(m)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPlanCache(0)
	opt := RunOptions{Plans: pc, Metrics: telemetry.NewRegistry()}
	d := TeslaC2070()
	d2 := TeslaC2070()
	l2 := *d2.L2
	l2.RHSFraction = 1
	d2.L2 = &l2
	for _, dev := range []*Device{d, d2} {
		if _, err := RunSELL(dev, ellr, make([]float64, 400), x, opt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RunPJDS(d, p, make([]float64, 400), x, opt); err != nil {
		t.Fatal(err)
	}
	if pc.Len() != 3 {
		t.Fatalf("entries = %d, want 3", pc.Len())
	}
	if n := pc.Invalidate(ellr); n != 2 {
		t.Fatalf("Invalidate removed %d, want 2", n)
	}
	if pc.Len() != 1 {
		t.Fatalf("entries after invalidate = %d, want 1", pc.Len())
	}
	// The pJDS plan survives: rerun hits.
	before := pc.Stats().Hits
	if _, err := RunPJDS(d, p, make([]float64, 400), x, opt); err != nil {
		t.Fatal(err)
	}
	if pc.Stats().Hits != before+1 {
		t.Error("pJDS plan should have survived invalidation")
	}
	// The invalidated format recompiles.
	c := pc.Stats().Compiles
	if _, err := RunSELL(d, ellr, make([]float64, 400), x, opt); err != nil {
		t.Fatal(err)
	}
	if pc.Stats().Compiles != c+1 {
		t.Error("invalidated plan should recompile")
	}
	pc.Reset()
	if pc.Len() != 0 || pc.Stats() != (PlanCacheStats{}) {
		t.Errorf("Reset left state: len=%d stats=%+v", pc.Len(), pc.Stats())
	}
}

// TestPlanCacheCSRKernels: CSR-scalar and CSR-vector read the same
// *matrix.CSR, so the plan key must carry the kernel — one matrix
// compiles two plans, a second run of each hits its own, and
// invalidating the matrix drops both. A BELLPACK of the matrix is a
// third plan, hit the same way.
func TestPlanCacheCSRKernels(t *testing.T) {
	m := bandedCSR(300, 2, 40, 19)
	x := randVec(300, 20)
	bell, err := core.NewBELLPACK(m, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPlanCache(0)
	opt := RunOptions{Plans: pc, Metrics: telemetry.NewRegistry()}
	d := TeslaC2070()
	runs := []func() (*KernelStats, error){
		func() (*KernelStats, error) { return RunCSRScalar(d, m, make([]float64, 300), x, opt) },
		func() (*KernelStats, error) { return RunCSRVector(d, m, make([]float64, 300), x, opt) },
		func() (*KernelStats, error) { return RunBELLPACK(d, bell, make([]float64, 300), x, opt) },
	}
	first := make([]*KernelStats, len(runs))
	for i, run := range runs {
		st, err := run()
		if err != nil {
			t.Fatal(err)
		}
		first[i] = st
	}
	if s := pc.Stats(); s.Compiles != 3 || s.Misses != 3 || s.Hits != 0 || s.Entries != 3 {
		t.Fatalf("after one run of each kernel: %+v", s)
	}
	if first[0].Kernel != "CSR-scalar" || first[1].Kernel != "CSR-vector" || first[2].Kernel != "BELLPACK(5x5)" {
		t.Fatalf("kernels %q, %q, %q", first[0].Kernel, first[1].Kernel, first[2].Kernel)
	}
	for i, run := range runs {
		st, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, first[i]) {
			t.Errorf("%s replay stats differ:\n%+v\n%+v", st.Kernel, st, first[i])
		}
	}
	if s := pc.Stats(); s.Compiles != 3 || s.Hits != 3 {
		t.Fatalf("after a second run of each kernel: %+v", s)
	}
	if n := pc.Invalidate(m); n != 2 || pc.Len() != 1 {
		t.Fatalf("Invalidate removed %d, %d left; want 2, 1", n, pc.Len())
	}
}

// TestPlanCacheEviction checks the FIFO capacity bound.
func TestPlanCacheEviction(t *testing.T) {
	m := bandedCSR(300, 2, 10, 13)
	x := randVec(300, 14)
	f1 := newELLR(m)
	f2 := newELLR(m)
	pc := NewPlanCache(1)
	opt := RunOptions{Plans: pc, Metrics: telemetry.NewRegistry()}
	d := TeslaC2070()
	if _, err := RunSELL(d, f1, make([]float64, 300), x, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := RunSELL(d, f2, make([]float64, 300), x, opt); err != nil {
		t.Fatal(err)
	}
	if pc.Len() != 1 {
		t.Fatalf("capacity-1 cache holds %d", pc.Len())
	}
	// f1 was evicted: running it again is a miss.
	if _, err := RunSELL(d, f1, make([]float64, 300), x, opt); err != nil {
		t.Fatal(err)
	}
	if s := pc.Stats(); s.Misses != 3 || s.Hits != 0 {
		t.Fatalf("eviction accounting: %+v", s)
	}
}

// TestPlanCacheConcurrent hammers one cache entry from many goroutines
// (run under -race by scripts/check.sh): the plan must compile exactly
// once and every caller must see identical results.
func TestPlanCacheConcurrent(t *testing.T) {
	const n = 800
	m := bandedCSR(n, 2, 30, 15)
	x := randVec(n, 16)
	ref := refMulVec(t, m, x)
	ellr := newELLR(m)
	pc := NewPlanCache(0)
	d := TeslaC2070()

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	ys := make([][]float64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			y := make([]float64, n)
			_, err := RunSELL(d, ellr, y, x, RunOptions{
				Workers: 4,
				Plans:   pc,
				Metrics: telemetry.NewRegistry(),
			})
			errs[g], ys[g] = err, y
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		checkClose(t, fmt.Sprintf("goroutine %d", g), ys[g], ref)
		for i := range ys[g] {
			if math.Float64bits(ys[g][i]) != math.Float64bits(ys[0][i]) {
				t.Fatalf("goroutine %d diverges at row %d", g, i)
			}
		}
	}
	s := pc.Stats()
	if s.Compiles != 1 {
		t.Errorf("compiles = %d, want 1 (single-flight)", s.Compiles)
	}
	if s.Misses != 1 || s.Hits != goroutines-1 {
		t.Errorf("hits/misses = %d/%d, want %d/1", s.Hits, s.Misses, goroutines-1)
	}
}

// TestSetDefaultWorkers covers the package-level default used by the
// CLI -workers flags.
func TestSetDefaultWorkers(t *testing.T) {
	defer SetDefaultWorkers(0)
	SetDefaultWorkers(3)
	if got := DefaultWorkers(); got != 3 {
		t.Errorf("DefaultWorkers = %d, want 3", got)
	}
	SetDefaultWorkers(0)
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("DefaultWorkers = %d, want GOMAXPROCS", got)
	}
}

// TestPlanAccessors covers the exported plan metadata.
func TestPlanAccessors(t *testing.T) {
	m := bandedCSR(100, 2, 10, 17)
	ellr := newELLR(m)
	d := TeslaC2070()
	src := planSource[float64]{
		kernel: "ELLPACK-R", rows: ellr.N, cols: ellr.NCols, nPad: ellr.NPad,
		nnz: int64(ellr.Nnz), metaSegs: 1, col: ellr.ColIdx,
		chunk: ellr.C, chunkStart: ellr.SliceStart, lens: ellr.RowLen, group: 1,
	}
	p := compilePlan(d, src)
	if p.Kernel() != "ELLPACK-R" {
		t.Errorf("Kernel() = %q", p.Kernel())
	}
	if want := (ellr.NPad + d.WarpSize - 1) / d.WarpSize; p.Warps() != want {
		t.Errorf("Warps() = %d, want %d", p.Warps(), want)
	}
}

// TestReplayZeroAllocs: a warm sequential replay with a registry and an
// extra label allocates only the KernelStats it returns — the counter
// totals come from the plan and every telemetry handle is resolved
// once per (registry, device, labels).
func TestReplayZeroAllocs(t *testing.T) {
	m := bandedCSR(1517, 1, 60, 42)
	x := randVec(1517, 43)
	p, err := newPJDS(m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSliced(m, 32, 128)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCMRS(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	d := TeslaC2070()
	opt := RunOptions{
		Workers:      1,
		Plans:        NewPlanCache(0),
		Metrics:      telemetry.NewRegistry(),
		MetricLabels: []telemetry.Label{telemetry.Li("rank", 0)},
	}
	y := make([]float64, m.NRows)
	for _, rc := range []struct {
		name string
		run  func() error
	}{
		{"RunPJDS", func() error { _, err := RunPJDS(d, p, y, x, opt); return err }},
		{"RunSELL", func() error { _, err := RunSELL(d, s, y, x, opt); return err }},
		{"RunCMRS", func() error { _, err := RunCMRS(d, c, y, x, opt); return err }},
	} {
		if err := rc.run(); err != nil { // compile, resolve handles
			t.Fatal(err)
		}
		if err := rc.run(); err != nil { // first hit resolves the hit counter
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := rc.run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%s: %v allocs per warm replay, want ≤ 1 (the returned stats)", rc.name, allocs)
		}
	}
}
