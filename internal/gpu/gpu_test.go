package gpu

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"pjds/internal/core"
	"pjds/internal/matrix"
	"pjds/internal/model"
	"pjds/internal/telemetry"
)

// Shorthands for the SELL presets built with default conversion
// options.
func newELL[T matrix.Float](m *matrix.CSR[T]) *core.SELL[T] {
	return core.NewELLPACK(m, matrix.ConvertOptions{})
}

func newELLR[T matrix.Float](m *matrix.CSR[T]) *core.SELL[T] {
	return core.NewELLPACKR(m, matrix.ConvertOptions{})
}

func newSliced[T matrix.Float](m *matrix.CSR[T], c, sigma int) (*core.SELL[T], error) {
	return core.NewSELL(m, c, sigma, matrix.ConvertOptions{})
}

func newPJDS[T matrix.Float](m *matrix.CSR[T]) (*core.PJDS[T], error) {
	return core.NewPJDS(m, core.Options{})
}

func randomCSR(rows, cols int, density float64, seed int64) *matrix.CSR[float64] {
	rng := rand.New(rand.NewSource(seed))
	coo := matrix.NewCOO[float64](rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSR()
}

// bandedCSR builds a banded matrix with varying row lengths; good RHS
// locality, realistic for the paper's matrices.
func bandedCSR(n int, minLen, maxLen int, seed int64) *matrix.CSR[float64] {
	rng := rand.New(rand.NewSource(seed))
	coo := matrix.NewCOO[float64](n, n)
	for i := 0; i < n; i++ {
		l := minLen + rng.Intn(maxLen-minLen+1)
		for k := 0; k < l; k++ {
			j := i - l/2 + k
			if j < 0 {
				j += n
			}
			if j >= n {
				j -= n
			}
			coo.Add(i, j, rng.Float64()+0.5)
		}
	}
	return coo.ToCSR()
}

func refMulVec(t *testing.T, m *matrix.CSR[float64], x []float64) []float64 {
	t.Helper()
	y := make([]float64, m.NRows)
	if err := m.MulVec(y, x); err != nil {
		t.Fatal(err)
	}
	return y
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestDevicePresets(t *testing.T) {
	for _, d := range []*Device{TeslaC2070(), TeslaC2050(), TeslaC1060()} {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
	c2070 := TeslaC2070()
	if c2070.Bandwidth() != 91e9 {
		t.Errorf("ECC bandwidth = %g", c2070.Bandwidth())
	}
	c2070.ECC = false
	if c2070.Bandwidth() != 120e9 {
		t.Errorf("no-ECC bandwidth = %g", c2070.Bandwidth())
	}
	// Peak: 14×32 ALUs × 1.15 GHz = 515.2e9 FMA/s SP → 896 flops/cycle
	// claimed in §I-B at 2 flops per FMA.
	sp := c2070.PeakFMAPerSecond(4)
	if math.Abs(sp-14*32*1.15e9) > 1 {
		t.Errorf("SP FMA rate = %g", sp)
	}
	if dp := c2070.PeakFMAPerSecond(8); math.Abs(dp-sp/2) > 1 {
		t.Errorf("DP FMA rate = %g, want half of SP", dp)
	}
	if TeslaC1060().L2 != nil {
		t.Error("C1060 should have no L2")
	}
}

func TestDeviceValidate(t *testing.T) {
	bad := []func(*Device){
		func(d *Device) { d.NumMPs = 0 },
		func(d *Device) { d.ClockGHz = -1 },
		func(d *Device) { d.SegmentBytes = 100 },
		func(d *Device) { d.WarpSize = 24 }, // lane groups are shifts of the warp size
		func(d *Device) { d.BandwidthECC = 0 },
		func(d *Device) { d.WarpsToSaturate = 0 },
	}
	for i, mutate := range bad {
		d := TeslaC2070()
		mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: invalid device accepted", i)
		}
	}
}

// TestDeviceValidateL2 checks that an L2 with a non-positive size is a
// Validate error, and so an error from a kernel run rather than a panic
// in the cache model (which still panics when called on it directly),
// while the valid ways to model no RHS cache pass.
func TestDeviceValidateL2(t *testing.T) {
	p, err := newPJDS(bandedCSR(100, 1, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		l2   *CacheConfig
		ok   bool
	}{
		{"zero bytes", &CacheConfig{Bytes: 0, LineBytes: 128, Assoc: 16, RHSFraction: 0.5}, false},
		{"negative bytes", &CacheConfig{Bytes: -1, LineBytes: 128, Assoc: 16, RHSFraction: 0.5}, false},
		{"zero line", &CacheConfig{Bytes: 768 << 10, LineBytes: 0, Assoc: 16, RHSFraction: 0.5}, false},
		{"negative line", &CacheConfig{Bytes: 768 << 10, LineBytes: -128, Assoc: 16, RHSFraction: 0.5}, false},
		{"zero ways", &CacheConfig{Bytes: 768 << 10, LineBytes: 128, Assoc: 0, RHSFraction: 0.5}, false},
		{"negative ways", &CacheConfig{Bytes: 768 << 10, LineBytes: 128, Assoc: -2, RHSFraction: 0.5}, false},
		{"no L2", nil, true},
		{"no RHS share", &CacheConfig{Bytes: 768 << 10, LineBytes: 128, Assoc: 16, RHSFraction: 0}, true},
		{"GF100", DefaultL2(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := TeslaC2050()
			d.L2 = tc.l2
			if err := d.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
			yp := make([]float64, p.NPad)
			_, err := RunPJDS(d, p, yp, randVec(p.NCols, 2), RunOptions{Plans: NewPlanCache(0), Metrics: telemetry.NewRegistry()})
			if (err == nil) != tc.ok {
				t.Fatalf("RunPJDS error = %v, want ok=%v", err, tc.ok)
			}
			if tc.ok {
				return
			}
			// The cache model's own contract check, which Validate keeps
			// every kernel from reaching.
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "gpu: invalid cache config") {
					t.Fatalf("configureCache panic %q, want the invalid-config contract", msg)
				}
			}()
			configureCache(new(model.LRU), tc.l2, d.GatherSectorBytes)
		})
	}
}

func TestUsableMemECC(t *testing.T) {
	d := TeslaC2050()
	d.ECC = true
	if got := d.UsableMemBytes(); got != (3<<30)-(3<<30)/8 {
		t.Errorf("ECC usable = %d", got)
	}
	d.ECC = false
	if got := d.UsableMemBytes(); got != 3<<30 {
		t.Errorf("usable = %d", got)
	}
	if !d.Fits(3 << 30) {
		t.Error("should fit exactly")
	}
	if d.Fits(3<<30 + 1) {
		t.Error("should not fit")
	}
}

func TestOccupancyFactor(t *testing.T) {
	d := TeslaC2070() // 14 MPs, saturate at 8 warps/MP = 112 warps
	if f := d.OccupancyFactor(0); f != 1 {
		t.Errorf("zero warps factor = %g", f)
	}
	if f := d.OccupancyFactor(112); f != 1 {
		t.Errorf("saturated factor = %g", f)
	}
	if f := d.OccupancyFactor(10000); f != 1 {
		t.Errorf("oversaturated factor = %g", f)
	}
	f := d.OccupancyFactor(14) // 1 warp per MP
	if math.Abs(f-1.0/8) > 1e-12 {
		t.Errorf("one warp/MP factor = %g, want 1/8", f)
	}
	if d.EffectiveBandwidth(14) >= d.Bandwidth() {
		t.Error("low occupancy should reduce bandwidth")
	}
}

func TestCacheBasics(t *testing.T) {
	cfg := &CacheConfig{Bytes: 1 << 12, LineBytes: 128, Assoc: 2, RHSFraction: 1}
	c := configureCache(new(model.LRU), cfg, 128)
	if c.Probe(0) {
		t.Error("cold miss expected")
	}
	if !c.Probe(64) { // same line
		t.Error("same-line hit expected")
	}
	if c.Probe(128) {
		t.Error("next line should miss")
	}
	if !c.Probe(0) {
		t.Error("line 0 still resident")
	}
	if configureCache(c, cfg, 128) != c || c.Probe(0) {
		t.Error("reconfiguring did not clear contents")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, line 128, 4 lines → 2 sets. Lines 0, 2, 4 map to set 0.
	c := configureCache(new(model.LRU), &CacheConfig{Bytes: 4 * 128, LineBytes: 128, Assoc: 2, RHSFraction: 1}, 128)
	c.Probe(0 * 128)
	c.Probe(2 * 128)
	c.Probe(0 * 128) // touch line 0 → MRU
	c.Probe(4 * 128) // evicts line 2 (LRU)
	if !c.Probe(0 * 128) {
		t.Error("line 0 evicted despite MRU")
	}
	if c.Probe(2 * 128) {
		t.Error("line 2 should have been evicted")
	}
}

func TestCacheNilAlwaysMisses(t *testing.T) {
	if configureCache(new(model.LRU), nil, 32) != nil {
		t.Error("nil config should give nil cache")
	}
	c := configureCache(new(model.LRU), &CacheConfig{Bytes: 1 << 12, LineBytes: 128, Assoc: 2, RHSFraction: 0}, 32)
	if c != nil {
		t.Error("zero RHS fraction should disable the cache")
	}
	if c.Probe(0) || c.Probe(0) {
		t.Error("nil cache must always miss")
	}
}

func TestKernelsMatchReference(t *testing.T) {
	d := TeslaC2070()
	for seed := int64(0); seed < 3; seed++ {
		m := bandedCSR(500, 3, 40, seed)
		x := randVec(500, seed+10)
		ref := refMulVec(t, m, x)

		ell := newELL(m)
		y := make([]float64, 500)
		if _, err := RunSELL(d, ell, y, x, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		checkClose(t, "ELLPACK", y, ref)

		ellr := newELLR(m)
		y = make([]float64, 500)
		if _, err := RunSELL(d, ellr, y, x, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		checkClose(t, "ELLPACK-R", y, ref)

		p, err := newPJDS(m)
		if err != nil {
			t.Fatal(err)
		}
		yp := make([]float64, 500)
		if _, err := RunPJDS(d, p, yp, x, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		yo := make([]float64, 500)
		matrix.Scatter(yo, yp, p.Perm)
		checkClose(t, "pJDS", yo, ref)

		s, err := newSliced(m, 32, 128)
		if err != nil {
			t.Fatal(err)
		}
		ys := make([]float64, 500)
		if _, err := RunSELL(d, s, ys, x, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		yso := make([]float64, 500)
		matrix.Scatter(yso, ys, s.Perm)
		checkClose(t, "sliced-ELL", yso, ref)
	}
}

func checkClose(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
			t.Fatalf("%s: y[%d] = %g, want %g", name, i, got[i], want[i])
		}
	}
}

func TestAccumulateOption(t *testing.T) {
	d := TeslaC2070()
	m := bandedCSR(100, 2, 10, 7)
	x := randVec(100, 8)
	ref := refMulVec(t, m, x)
	ellr := newELLR(m)
	y := make([]float64, 100)
	for i := range y {
		y[i] = 1
	}
	st, err := RunSELL(d, ellr, y, x, RunOptions{Accumulate: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if math.Abs(y[i]-(ref[i]+1)) > 1e-10 {
			t.Fatalf("accumulate y[%d] = %g, want %g", i, y[i], ref[i]+1)
		}
	}
	// Accumulation reads and writes the LHS: double the traffic.
	st2, err := RunSELL(d, ellr, make([]float64, 100), x, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesLHS != 2*st2.BytesLHS {
		t.Errorf("accumulate LHS bytes = %d, want 2×%d", st.BytesLHS, st2.BytesLHS)
	}
}

// TestHardwareReservation reproduces Fig. 2: on a matrix with strongly
// imbalanced row lengths, ELLPACK-R reserves far more SIMT slots than
// it uses, and pJDS recovers most of them.
func TestHardwareReservation(t *testing.T) {
	// One long row per warp-sized group, the rest short.
	const n = 1024
	coo := matrix.NewCOO[float64](n, n)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		l := 4
		if i%32 == 0 {
			l = 64
		}
		for k := 0; k < l; k++ {
			coo.Add(i, rng.Intn(n), 1)
		}
	}
	m := coo.ToCSR()
	d := TeslaC2070()
	x := randVec(n, 4)

	ellr := newELLR(m)
	stR, err := RunSELL(d, ellr, make([]float64, n), x, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPJDS(m)
	if err != nil {
		t.Fatal(err)
	}
	stP, err := RunPJDS(d, p, make([]float64, n), x, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stR.LaneEfficiency > 0.35 {
		t.Errorf("ELLPACK-R lane efficiency %.2f, expected low on imbalanced rows", stR.LaneEfficiency)
	}
	if stP.LaneEfficiency < 0.9 {
		t.Errorf("pJDS lane efficiency %.2f, expected ≥0.9 after sorting", stP.LaneEfficiency)
	}
	if stP.WarpSteps >= stR.WarpSteps {
		t.Errorf("pJDS warp steps %d not below ELLPACK-R %d", stP.WarpSteps, stR.WarpSteps)
	}
	// Partial transactions also waste bandwidth in ELLPACK-R.
	if stP.BytesVal >= stR.BytesVal {
		t.Errorf("pJDS val traffic %d not below ELLPACK-R %d", stP.BytesVal, stR.BytesVal)
	}
}

// TestPlainELLPACKWastesWork: the original ELLPACK executes the
// padding (Fig. 2a) — more lane-steps and more traffic than ELLPACK-R
// on the same storage.
func TestPlainELLPACKWastesWork(t *testing.T) {
	m := bandedCSR(512, 2, 30, 9)
	d := TeslaC2070()
	x := randVec(512, 10)
	ell := newELL(m)
	ellr := newELLR(m)
	st, err := RunSELL(d, ell, make([]float64, 512), x, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stR, err := RunSELL(d, ellr, make([]float64, 512), x, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ExecutedLaneSteps <= stR.ExecutedLaneSteps {
		t.Error("plain ELLPACK should execute more lane steps")
	}
	if st.BytesVal <= stR.BytesVal {
		t.Error("plain ELLPACK should load more value bytes")
	}
	if st.GFlops >= stR.GFlops {
		t.Error("ELLPACK-R should outperform plain ELLPACK")
	}
}

// TestECCBandwidthEffect: disabling ECC raises GF/s by roughly the
// bandwidth ratio (Table I's ECC=0 vs ECC=1 blocks).
func TestECCBandwidthEffect(t *testing.T) {
	m := bandedCSR(2048, 10, 30, 11)
	x := randVec(2048, 12)
	p, err := newPJDS(m)
	if err != nil {
		t.Fatal(err)
	}
	dOn := TeslaC2070()
	dOff := TeslaC2070()
	dOff.ECC = false
	stOn, err := RunPJDS(dOn, p, make([]float64, 2048), x, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stOff, err := RunPJDS(dOff, p, make([]float64, 2048), x, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := stOff.GFlops / stOn.GFlops
	bwRatio := 120.0 / 91.0
	if ratio < 1.05 || ratio > bwRatio+0.05 {
		t.Errorf("ECC-off speedup %.2f, expected within (1.05, %.2f]", ratio, bwRatio+0.05)
	}
}

// TestSPFasterThanDP: single precision moves fewer bytes, so GF/s
// must rise (Table I SP block vs DP block).
func TestSPFasterThanDP(t *testing.T) {
	md := bandedCSR(2048, 10, 30, 13)
	ms := matrix.Convert[float32](md)
	d := TeslaC2070()
	pd, err := newPJDS(md)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := newPJDS(ms)
	if err != nil {
		t.Fatal(err)
	}
	xd := randVec(2048, 14)
	xs := make([]float32, 2048)
	for i := range xs {
		xs[i] = float32(xd[i])
	}
	stD, err := RunPJDS(d, pd, make([]float64, 2048), xd, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stS, err := RunPJDS(d, ps, make([]float32, 2048), xs, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stS.GFlops <= stD.GFlops {
		t.Errorf("SP %.2f GF/s not above DP %.2f GF/s", stS.GFlops, stD.GFlops)
	}
	if stS.BytesTotal >= stD.BytesTotal {
		t.Error("SP should move fewer bytes")
	}
}

// TestAlphaRange: the measured α must satisfy the paper's bound
// 1/N_nzr ≤ α (≈, up to line-granularity overfetch) and a banded
// matrix with strong locality must land far below α = 1.
func TestAlphaRange(t *testing.T) {
	m := bandedCSR(4096, 20, 24, 15)
	d := TeslaC2070()
	p, err := newPJDS(m)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunPJDS(d, p, make([]float64, 4096), randVec(4096, 16), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Alpha <= 0 {
		t.Fatalf("alpha = %g", st.Alpha)
	}
	if st.Alpha > 0.6 {
		t.Errorf("alpha = %.2f on a banded matrix, expected strong reuse", st.Alpha)
	}
	// Without a cache α must reach at least 1 (every gather goes to
	// memory, whole segments fetched).
	d1060 := TeslaC1060()
	st2, err := RunPJDS(d1060, p, make([]float64, 4096), randVec(4096, 16), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Alpha < 0.99 {
		t.Errorf("no-cache alpha = %.2f, expected ≥ 1", st2.Alpha)
	}
	if st2.L2HitRate != 0 {
		t.Error("no-cache hit rate must be 0")
	}
}

// TestOccupancyPenalty: a tiny kernel (few warps) runs at a fraction
// of the bandwidth — the §III-B small-subproblem effect.
func TestOccupancyPenalty(t *testing.T) {
	big := bandedCSR(65536, 12, 16, 17)
	small := bandedCSR(512, 12, 16, 18)
	d := TeslaC2070()
	pb, err := newPJDS(big)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := newPJDS(small)
	if err != nil {
		t.Fatal(err)
	}
	stBig, err := RunPJDS(d, pb, make([]float64, 65536), randVec(65536, 19), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stSmall, err := RunPJDS(d, ps, make([]float64, 512), randVec(512, 20), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stSmall.GFlops >= 0.7*stBig.GFlops {
		t.Errorf("small kernel %.2f GF/s vs big %.2f GF/s: expected a clear occupancy penalty",
			stSmall.GFlops, stBig.GFlops)
	}
}

func TestRunShapeAndDeviceErrors(t *testing.T) {
	m := bandedCSR(64, 2, 5, 21)
	d := TeslaC2070()
	ell := newELL(m)
	if _, err := RunSELL(d, ell, make([]float64, 63), randVec(64, 1), RunOptions{}); err == nil {
		t.Error("short y accepted")
	}
	bad := TeslaC2070()
	bad.NumMPs = 0
	if _, err := RunSELL(bad, ell, make([]float64, 64), randVec(64, 1), RunOptions{}); err == nil {
		t.Error("invalid device accepted")
	}
	p, _ := newPJDS(m)
	if _, err := RunPJDS(d, p, make([]float64, 64), randVec(63, 1), RunOptions{}); err == nil {
		t.Error("short x accepted")
	}
	ellr := newELLR(m)
	if _, err := RunSELL(d, ellr, make([]float64, 64), randVec(63, 1), RunOptions{}); err == nil {
		t.Error("ELLPACK-R short x accepted")
	}
	s, _ := newSliced(m, 16, 1)
	if _, err := RunSELL(d, s, make([]float64, 63), randVec(64, 1), RunOptions{}); err == nil {
		t.Error("sliced short y accepted")
	}
}

func TestKernelStatsConsistency(t *testing.T) {
	m := bandedCSR(1024, 5, 25, 23)
	d := TeslaC2070()
	p, err := newPJDS(m)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunPJDS(d, p, make([]float64, 1024), randVec(1024, 24), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.UsefulFlops != 2*int64(m.Nnz()) {
		t.Errorf("useful flops = %d", st.UsefulFlops)
	}
	if st.ExecutedLaneSteps != int64(m.Nnz()) {
		t.Errorf("lane steps = %d, want nnz %d", st.ExecutedLaneSteps, m.Nnz())
	}
	if st.BytesTotal != st.BytesVal+st.BytesIdx+st.BytesRHS+st.BytesLHS+st.BytesMeta {
		t.Error("byte totals inconsistent")
	}
	if st.KernelSeconds < st.MemSeconds || st.KernelSeconds < st.ComputeSeconds {
		t.Error("kernel time below component times")
	}
	if st.GFlops <= 0 || st.CodeBalance <= 0 {
		t.Error("derived metrics not positive")
	}
	if st.Warps != (p.NPad+31)/32 {
		t.Errorf("warps = %d", st.Warps)
	}
	if st.String() == "" {
		t.Error("empty String()")
	}
	// Code balance must be near the Eq. (1) window: between the
	// ideal (α→1/Nnzr) and worst case (α=1) plus overheads.
	nnzr := m.AvgRowLen()
	lo := 6 + 4/nnzr + 8/nnzr - 1 // generous slack below
	hi := 6.0 + 4 + 8/nnzr + 3    // slack above for partial transactions
	if st.CodeBalance < lo || st.CodeBalance > hi {
		t.Errorf("code balance %.2f outside [%.2f, %.2f]", st.CodeBalance, lo, hi)
	}
}

// TestRederiveECCToggle: one simulation re-derived for the other ECC
// mode must exactly equal a fresh simulation on that device (the
// counters do not depend on bandwidth).
func TestRederiveECCToggle(t *testing.T) {
	m := bandedCSR(2048, 8, 20, 41)
	x := randVec(2048, 42)
	p, err := newPJDS(m)
	if err != nil {
		t.Fatal(err)
	}
	on := TeslaC2070()
	off := TeslaC2070()
	off.ECC = false
	stOn, err := RunPJDS(on, p, make([]float64, p.NPad), x, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stOffFresh, err := RunPJDS(off, p, make([]float64, p.NPad), x, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stOffDerived := stOn.Rederive(off)
	if stOffDerived.GFlops != stOffFresh.GFlops {
		t.Errorf("re-derived %.4f GF/s, fresh %.4f", stOffDerived.GFlops, stOffFresh.GFlops)
	}
	if stOffDerived.BytesTotal != stOffFresh.BytesTotal {
		t.Error("re-derivation changed the counters")
	}
	if stOffDerived.Device != off.Name {
		t.Error("device name not updated")
	}
	// The original stats are untouched (value receiver).
	if stOn.GFlops == stOffDerived.GFlops {
		t.Error("re-derivation had no effect")
	}
}

// TestMemoryBoundRegime: for spMVM the memory time must dominate the
// compute time on Fermi-class ratios.
func TestMemoryBoundRegime(t *testing.T) {
	m := bandedCSR(8192, 20, 40, 25)
	d := TeslaC2070()
	ellr := newELLR(m)
	st, err := RunSELL(d, ellr, make([]float64, 8192), randVec(8192, 26), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.MemSeconds < 3*st.ComputeSeconds {
		t.Errorf("mem %.3g s vs compute %.3g s: spMVM should be strongly memory-bound",
			st.MemSeconds, st.ComputeSeconds)
	}
}
