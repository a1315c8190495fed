package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pjds/internal/core"
	"pjds/internal/gpu"
	"pjds/internal/hostkernel"
	"pjds/internal/matrix"
	"pjds/internal/telemetry"
)

// presetCase is one SELL preset under test.
type presetCase[T matrix.Float] struct {
	name  string
	build func(m *matrix.CSR[T]) (*core.SELL[T], error)
}

func presetCases[T matrix.Float]() []presetCase[T] {
	cv := matrix.ConvertOptions{}
	sell := func(c, sigma int) func(m *matrix.CSR[T]) (*core.SELL[T], error) {
		return func(m *matrix.CSR[T]) (*core.SELL[T], error) {
			return core.NewSELL(m, c, sigma, cv)
		}
	}
	pjds := func(br int) func(m *matrix.CSR[T]) (*core.SELL[T], error) {
		return func(m *matrix.CSR[T]) (*core.SELL[T], error) {
			p, err := core.NewPJDS(m, core.Options{BlockHeight: br})
			if err != nil {
				return nil, err
			}
			return &p.SELL, nil
		}
	}
	cases := []presetCase[T]{
		{"ELLPACK", func(m *matrix.CSR[T]) (*core.SELL[T], error) { return core.NewELLPACK(m, cv), nil }},
		{"ELLPACK-R", func(m *matrix.CSR[T]) (*core.SELL[T], error) { return core.NewELLPACKR(m, cv), nil }},
		{"SELL-4-1", sell(4, 1)},
		{"SELL-8-16", sell(8, 16)},
		{"SELL-32-N", sell(32, math.MaxInt)},
		{"pJDS", pjds(32)},
		{"pJDS-br4", pjds(4)},
		{"JDS", pjds(1)},
	}
	for _, g := range sellGrid() {
		cases = append(cases, presetCase[T]{g.name, sell(g.c, g.sigma)})
	}
	return cases
}

// sellCell is one (C, σ) cell of the SELL-C-σ differential grid.
type sellCell struct {
	name     string
	c, sigma int
}

// sellGrid covers chunk heights the lane-by-lane (2, 3, 5), the
// four-lane (12) and the eight-lane (16, 24, 64) paths of the kernel
// take, unsorted, in windows and globally sorted.
func sellGrid() []sellCell {
	var grid []sellCell
	for _, c := range []int{2, 3, 5, 12, 16, 24, 64} {
		for _, sg := range []struct {
			name  string
			sigma int
		}{{"1", 1}, {"16", 16}, {"N", math.MaxInt}} {
			grid = append(grid, sellCell{fmt.Sprintf("SELL-%d-%s", c, sg.name), c, sg.sigma})
		}
	}
	return grid
}

// presetMatrix is one input of the preset table: a matrix and an x
// chosen to expose computation on padding.
type presetMatrix struct {
	name string
	m    *matrix.CSR[float64]
	x    []float64
}

func presetMatrices() []presetMatrix {
	rng := rand.New(rand.NewSource(42))
	coo := matrix.NewCOO[float64](70, 50)
	for i := 0; i < 70; i++ {
		for j := 0; j < (i*7)%13; j++ {
			coo.Add(i, rng.Intn(50), rng.NormFloat64())
		}
	}
	random := coo.ToCSR()
	xr := make([]float64, 50)
	for i := range xr {
		xr[i] = rng.NormFloat64()
	}

	// Row 1 is empty and x[0] = +Inf: any padding slot gathered with
	// its safe column 0 computes 0·Inf = NaN.
	inf := matrix.NewCOO[float64](3, 3)
	inf.Add(0, 1, 2)
	inf.Add(0, 2, 1)
	inf.Add(2, 2, 3)
	// Every third row is empty among rows of 1–11 entries, none in
	// column 0, and x[0] = +Inf: a lane group that ran its lockstep
	// past its shortest row would gather an empty row's padding at
	// column 0 and turn its 0 into NaN.
	gaps := matrix.NewCOO[float64](70, 50)
	for i := 0; i < 70; i++ {
		if i%3 == 0 {
			continue
		}
		for j := 0; j < 1+(i*5)%11; j++ {
			gaps.Add(i, 1+rng.Intn(49), rng.NormFloat64())
		}
	}
	xg := make([]float64, 50)
	for i := range xg {
		xg[i] = rng.NormFloat64()
	}
	xg[0] = math.Inf(1)

	// Rows 0–39 of 100 hold entries and rows 40–99 are empty, so the
	// trailing chunks of every chunk height are empty (length 0).
	tail := matrix.NewCOO[float64](100, 50)
	for i := 0; i < 40; i++ {
		for j := 0; j < 1+(i*3)%17; j++ {
			tail.Add(i, rng.Intn(50), rng.NormFloat64())
		}
	}

	// x holds NaN, ±Inf and -0 among finite values. Every third row
	// meets +Inf, then -Inf, then NaN, so the sum turns into the NaN
	// Inf - Inf makes before it meets x's NaN; the next rows multiply
	// only the -0 entries; the rest are random.
	hostile := matrix.NewCOO[float64](70, 50)
	for i := 0; i < 70; i++ {
		switch i % 3 {
		case 0:
			hostile.Add(i, 11, 1+rng.Float64())
			hostile.Add(i, 17, 1+rng.Float64())
			hostile.Add(i, 41, rng.NormFloat64())
		case 1:
			hostile.Add(i, 3, rng.NormFloat64())
			hostile.Add(i, 29, rng.NormFloat64())
		default:
			for j := 0; j < (i*7)%13; j++ {
				hostile.Add(i, rng.Intn(50), rng.NormFloat64())
			}
		}
	}
	xh := make([]float64, 50)
	for i := range xh {
		xh[i] = rng.NormFloat64()
	}
	xh[3], xh[11], xh[17], xh[29], xh[41] = math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.NaN()

	return []presetMatrix{
		{"random", random, xr},
		{"empty-row-inf-x", inf.ToCSR(), []float64{math.Inf(1), 1, 2}},
		{"empty-rows-in-groups-inf-x", gaps.ToCSR(), xg},
		{"0x0", matrix.NewCOO[float64](0, 0).ToCSR(), nil},
		{"all-empty", matrix.NewCOO[float64](5, 4).ToCSR(), []float64{math.Inf(1), math.NaN(), 1, 2}},
		{"empty-trailing-chunks", tail.ToCSR(), xr},
		{"nan-inf-negzero-x", hostile.ToCSR(), xh},
	}
}

// sameBits reports bit-identity, with one exception: where two NaNs
// with different payloads meet in an add, x86 keeps the first
// operand's and the compiler may commute a scalar add, so a NaN need
// only match a NaN.
func sameBits[T matrix.Float](a, b T) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b)) || a != a && b != b
}

// addBase is the nonzero y an accumulating product starts from.
func addBase[T matrix.Float](n int) []T {
	y := make([]T, n)
	for i := range y {
		y[i] = T(i) - 0.5
	}
	return y
}

// checkPresets runs every preset's host MulVec and MulVecPermuted and
// the simulated device kernel at 1 and 3 workers, with and without
// accumulate, on m, asserting bit-identity with CSR.
func checkPresets[T matrix.Float](t *testing.T, m *matrix.CSR[T], x []T) {
	ref := make([]T, m.NRows)
	if err := m.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	refAdd := addBase[T](m.NRows)
	if err := m.MulVecAdd(refAdd, x); err != nil {
		t.Fatal(err)
	}
	base := addBase[T](m.NRows)
	for _, pc := range presetCases[T]() {
		t.Run(pc.name, func(t *testing.T) {
			s, err := pc.build(m)
			if err != nil {
				t.Fatal(err)
			}
			y := make([]T, m.NRows)
			if err := s.MulVec(y, x); err != nil {
				t.Fatal(err)
			}
			yp := make([]T, s.NPad)
			if err := s.MulVecPermuted(yp, x); err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if !sameBits(y[i], ref[i]) {
					t.Fatalf("MulVec y[%d] = %v, CSR %v", i, y[i], ref[i])
				}
			}
			for i, old := range s.Perm {
				if !sameBits(yp[i], ref[old]) {
					t.Fatalf("MulVecPermuted stored row %d: %v, CSR %v", i, yp[i], ref[old])
				}
			}
			checkRanges(t, s, x, ref, refAdd, base)
			for _, workers := range []int{1, 3} {
				for _, acc := range []bool{false, true} {
					yd := make([]T, s.NPad)
					want := ref
					if acc {
						want = refAdd
						for i, old := range s.Perm {
							yd[i] = base[old]
						}
					}
					opt := gpu.RunOptions{Accumulate: acc, Workers: workers, Plans: gpu.NewPlanCache(0), Metrics: telemetry.NewRegistry()}
					if _, err := gpu.RunSELL(gpu.TeslaC2070(), s, yd, x, opt); err != nil {
						t.Fatal(err)
					}
					for i, old := range s.Perm {
						if !sameBits(yd[i], want[old]) {
							t.Fatalf("device workers=%d accumulate=%v stored row %d: %v, CSR %v", workers, acc, i, yd[i], want[old])
						}
					}
				}
			}
		})
	}
}

// rangeCuts split stored rows [0, N) into MulRows calls that start and
// end mid-chunk and mid-group, as the device worker pool's warp runs
// and the host kernel's nnz-balanced slices do; cuts past N clamp.
var rangeCuts = [][]int{nil, {1}, {8}, {13, 40}, {32, 64}, {5, 21, 37, 64}, {3, 66, 67}}

// checkRanges runs s.MulRows over every split of rangeCuts into y in
// stored order (perm nil) and in the original order (perm = s.Perm),
// storing and adding, and compares each with CSR.
func checkRanges[T matrix.Float](t *testing.T, s *core.SELL[T], x, ref, refAdd, base []T) {
	t.Helper()
	for _, permuted := range []bool{false, true} {
		var perm matrix.Perm
		if permuted {
			perm = s.Perm
		}
		// at maps a y index to its original row.
		at := func(i int) int { return s.Perm[i] }
		if permuted {
			at = func(i int) int { return i }
		}
		for _, add := range []bool{false, true} {
			for _, cuts := range rangeCuts {
				y := make([]T, s.N)
				want := ref
				if add {
					want = refAdd
					for i := range y {
						y[i] = base[at(i)]
					}
				}
				lo := 0
				for _, hi := range append(cuts, s.N) {
					hi = min(max(hi, lo), s.N)
					s.MulRows(y, x, lo, hi, perm, add)
					lo = hi
				}
				for i := range y {
					if !sameBits(y[i], want[at(i)]) {
						t.Fatalf("MulRows cuts=%v perm=%v add=%v: y[%d] = %v, CSR %v", cuts, permuted, add, i, y[i], want[at(i)])
					}
				}
			}
		}
	}
}

// TestPresetsBitIdenticalToCSR is the one table over every SELL preset
// and a (C, σ) grid in both precisions: host MulVec and MulVecPermuted,
// MulRows over split ranges with and without perm and add, the device
// replay with and without accumulate, and the pJDS and SELL-C-σ host
// kernels at several worker counts all walk true row lengths, so even
// an empty row against an infinite x entry yields CSR's exact 0. The
// table runs on the AVX-512 group kernel where the host has it, and
// again with the eight-lane groups forced onto the Go loop.
func TestPresetsBitIdenticalToCSR(t *testing.T) {
	if !core.GroupKernel() {
		t.Log("no AVX-512 group kernel on this host: both passes run the Go loop")
	}
	checkAllPresets(t)
	t.Run("go-loop", func(t *testing.T) {
		core.WithoutGroupKernel(t)
		checkAllPresets(t)
	})
}

func checkAllPresets(t *testing.T) {
	for _, pm := range presetMatrices() {
		t.Run(pm.name+"/DP", func(t *testing.T) { checkPresets(t, pm.m, pm.x) })
		xs := make([]float32, len(pm.x))
		for i, v := range pm.x {
			xs[i] = float32(v)
		}
		t.Run(pm.name+"/SP", func(t *testing.T) { checkPresets(t, matrix.Convert[float32](pm.m), xs) })
		t.Run(pm.name+"/hostkernel-pjds", func(t *testing.T) { checkHostPJDS(t, pm.m, pm.x) })
		t.Run(pm.name+"/hostkernel-sell", func(t *testing.T) { checkHostSELL(t, pm.m, pm.x) })
	}
}

// checkHostSELL drives hostkernel.NewSELLFrom (original basis) over the
// (C, σ) grid through MulVec and MulVecAdd at 1 and 2 workers.
func checkHostSELL(t *testing.T, m *matrix.CSR[float64], x []float64) {
	ref := make([]float64, m.NRows)
	if err := m.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	refAdd := addBase[float64](m.NRows)
	if err := m.MulVecAdd(refAdd, x); err != nil {
		t.Fatal(err)
	}
	for _, g := range sellGrid() {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", g.name, workers), func(t *testing.T) {
				s, err := core.NewSELL(m, g.c, g.sigma, matrix.ConvertOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				k := hostkernel.NewSELLFrom(s, hostkernel.Options{Workers: workers})
				defer k.Close()
				y := make([]float64, m.NRows)
				if err := k.MulVec(y, x); err != nil {
					t.Fatal(err)
				}
				for i := range ref {
					if !sameBits(y[i], ref[i]) {
						t.Fatalf("MulVec y[%d] = %v, CSR %v", i, y[i], ref[i])
					}
				}
				y = addBase[float64](m.NRows)
				if err := k.MulVecAdd(y, x); err != nil {
					t.Fatal(err)
				}
				for i := range refAdd {
					if !sameBits(y[i], refAdd[i]) {
						t.Fatalf("MulVecAdd y[%d] = %v, CSR %v", i, y[i], refAdd[i])
					}
				}
			})
		}
	}
}

// checkHostPJDS drives hostkernel.NewPJDS (permuted basis, len(y) ≥ N)
// through MulVec and MulVecAdd at 1, 2 and 4 workers.
func checkHostPJDS(t *testing.T, m *matrix.CSR[float64], x []float64) {
	p, err := core.NewPJDS(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, m.NRows)
	if err := m.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	base := addBase[float64](m.NRows)
	refAdd := append([]float64(nil), base...)
	if err := m.MulVecAdd(refAdd, x); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			k := hostkernel.NewPJDS(p, hostkernel.Options{Workers: workers})
			defer k.Close()
			yp := make([]float64, p.NPad)
			if err := k.MulVec(yp, x); err != nil {
				t.Fatal(err)
			}
			for i, old := range p.Perm {
				if !sameBits(yp[i], ref[old]) {
					t.Fatalf("MulVec yp[%d] = %v, CSR %v", i, yp[i], ref[old])
				}
				yp[i] = base[old]
			}
			if err := k.MulVecAdd(yp, x); err != nil {
				t.Fatal(err)
			}
			for i, old := range p.Perm {
				if !sameBits(yp[i], refAdd[old]) {
					t.Fatalf("MulVecAdd yp[%d] = %v, CSR %v", i, yp[i], refAdd[old])
				}
			}
		})
	}
}

// TestCorruptColumnIndexPanics: a column index outside x in a built
// layout makes MulRows panic with the runtime's index error, with the
// same message and the same rows of y written on the group kernel as
// on the Go loop. The kernel checks every active index before it
// gathers and hands the group to the Go loop, so it never reads
// outside x.
func TestCorruptColumnIndexPanics(t *testing.T) {
	pm := presetMatrices()[0]
	for _, pc := range presetCases[float64]() {
		for _, bad := range []int32{int32(pm.m.NCols), -1, math.MaxInt32, math.MinInt32} {
			t.Run(fmt.Sprintf("%s/col=%d", pc.name, bad), func(t *testing.T) {
				run := func(t *testing.T) (string, []float64) {
					s, err := pc.build(pm.m)
					if err != nil {
						t.Fatal(err)
					}
					// The last element of the first non-empty stored
					// row from the middle on.
					i := s.N / 2
					for s.RowLen[i] == 0 {
						i++
					}
					sl := i / s.C
					s.ColIdx[int(s.SliceStart[sl])+i-sl*s.C+(int(s.RowLen[i])-1)*s.C] = bad
					y := make([]float64, s.N)
					return mulRowsPanic(s, y, pm.x), y
				}
				var msg [2]string
				var y [2][]float64
				t.Run("kernel", func(t *testing.T) { msg[0], y[0] = run(t) })
				t.Run("go-loop", func(t *testing.T) {
					core.WithoutGroupKernel(t)
					msg[1], y[1] = run(t)
				})
				if !strings.Contains(msg[1], "index out of range") || msg[0] != msg[1] {
					t.Fatalf("panic %q with the group kernel, %q on the Go loop; want the same index error", msg[0], msg[1])
				}
				for i := range y[0] {
					if math.Float64bits(y[0][i]) != math.Float64bits(y[1][i]) {
						t.Fatalf("y[%d] = %v with the group kernel, %v on the Go loop", i, y[0][i], y[1][i])
					}
				}
			})
		}
	}
}

// mulRowsPanic runs s.MulRows over every stored row and returns the
// message of the runtime error it panics with ("" when it returns).
func mulRowsPanic(s *core.SELL[float64], y, x []float64) (msg string) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case runtime.Error:
			msg = r.Error()
		default:
			msg = fmt.Sprintf("not a runtime error: %v", r)
		}
	}()
	s.MulRows(y, x, 0, s.N, nil, false)
	return ""
}

// phaseLog records the conversion phases in the order they start.
type phaseLog []string

func (l *phaseLog) Phase(name string) func() {
	*l = append(*l, name)
	return func() {}
}

// TestPresetConversionPhases: every preset records the conversion phases
// of the paper format it reproduces, each once, so the conversion report
// keeps one row per format.
func TestPresetConversionPhases(t *testing.T) {
	m := presetMatrices()[0].m
	cases := []struct {
		name  string
		build func(cv matrix.ConvertOptions) error
		want  string
	}{
		{"ELLPACK", func(cv matrix.ConvertOptions) error { core.NewELLPACK(m, cv); return nil }, "[ellpack-fill]"},
		{"ELLPACK-R", func(cv matrix.ConvertOptions) error { core.NewELLPACKR(m, cv); return nil }, "[ellpack-fill]"},
		{"pJDS", func(cv matrix.ConvertOptions) error {
			_, err := core.NewPJDS(m, core.Options{Convert: cv})
			return err
		}, "[jds-sort pjds-pad pjds-fill]"},
		{"SELL-32-1", func(cv matrix.ConvertOptions) error {
			_, err := core.NewSELL(m, 32, 1, cv)
			return err
		}, "[sliced-sort sliced-fill]"},
		{"SELL-8-N", func(cv matrix.ConvertOptions) error {
			_, err := core.NewSELL(m, 8, m.NRows, cv)
			return err
		}, "[sliced-sort sliced-fill]"},
	}
	for _, tc := range cases {
		var log phaseLog
		if err := tc.build(matrix.ConvertOptions{Timer: &log}); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint([]string(log)); got != tc.want {
			t.Errorf("%s: phases %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSELLResetMatchesNew: a layout rebuilt in place by Reset, over
// buffers filled with NaN and garbage indices to their full capacity,
// equals a fresh NewSELL in every exported field, on every (C, σ) cell
// of the preset grid, as the matrices grow and then shrink; every
// rebuilt layout's MulRows is bit-identical to CSR.
func TestSELLResetMatchesNew(t *testing.T) {
	pms := presetMatrices()
	rng := rand.New(rand.NewSource(7))
	coo := matrix.NewCOO[float64](230, 90)
	for i := 0; i < 230; i++ {
		for j := 0; j < (i*11)%29; j++ {
			coo.Add(i, rng.Intn(90), rng.NormFloat64())
		}
	}
	xb := make([]float64, 90)
	for i := range xb {
		xb[i] = rng.NormFloat64()
	}
	big := presetMatrix{"big", coo.ToCSR(), xb}
	// 0x0, all-empty, 3x3, 70x50 random, 230x90, then back down.
	seq := []presetMatrix{pms[3], pms[4], pms[1], pms[0], big, pms[2], pms[1], pms[3]}
	cv := matrix.ConvertOptions{Workers: 2, ForceParallel: true}
	for _, g := range sellGrid() {
		t.Run(g.name, func(t *testing.T) {
			var s core.SELL[float64]
			for _, pm := range seq {
				poison(&s)
				if err := s.Reset(pm.m, g.c, g.sigma, cv); err != nil {
					t.Fatal(err)
				}
				want, err := core.NewSELL(pm.m, g.c, g.sigma, cv)
				if err != nil {
					t.Fatal(err)
				}
				got, ref := reflect.ValueOf(s), reflect.ValueOf(*want)
				for i := 0; i < got.NumField(); i++ {
					f := got.Type().Field(i)
					if f.IsExported() && !reflect.DeepEqual(got.Field(i).Interface(), ref.Field(i).Interface()) {
						t.Fatalf("%s: %s after Reset = %v, NewSELL %v", pm.name, f.Name, got.Field(i), ref.Field(i))
					}
				}
				y := make([]float64, pm.m.NRows)
				yr := make([]float64, pm.m.NRows)
				s.MulRows(y, pm.x, 0, s.N, s.Perm, false)
				if err := pm.m.MulVec(yr, pm.x); err != nil {
					t.Fatal(err)
				}
				for i := range yr {
					if !sameBits(y[i], yr[i]) {
						t.Fatalf("%s: MulRows y[%d] = %v after Reset, CSR %v", pm.name, i, y[i], yr[i])
					}
				}
			}
		})
	}
}

// poison fills every buffer of s to its capacity, and its scalar
// fields, with values no build writes.
func poison(s *core.SELL[float64]) {
	fill := func(n int, set func(i int)) {
		for i := 0; i < n; i++ {
			set(i)
		}
	}
	s.Val = s.Val[:cap(s.Val)]
	fill(len(s.Val), func(i int) { s.Val[i] = math.NaN() })
	s.ColIdx = s.ColIdx[:cap(s.ColIdx)]
	fill(len(s.ColIdx), func(i int) { s.ColIdx[i] = -1 << 30 })
	s.SliceStart = s.SliceStart[:cap(s.SliceStart)]
	fill(len(s.SliceStart), func(i int) { s.SliceStart[i] = -7 })
	s.SliceLen = s.SliceLen[:cap(s.SliceLen)]
	fill(len(s.SliceLen), func(i int) { s.SliceLen[i] = 1 << 20 })
	s.RowLen = s.RowLen[:cap(s.RowLen)]
	fill(len(s.RowLen), func(i int) { s.RowLen[i] = 1 << 20 })
	s.Perm = s.Perm[:cap(s.Perm)]
	fill(len(s.Perm), func(i int) { s.Perm[i] = -3 })
	s.N, s.NCols, s.NPad, s.Nnz, s.C, s.SortWindow, s.MaxRowLen = -1, -1, -1, -1, -1, -1, -1
	s.Preset = core.PresetPJDS
}
