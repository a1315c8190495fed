package core_test

import (
	"fmt"
	"math"
	"math/rand"
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
	return []presetCase[T]{
		{"ELLPACK", func(m *matrix.CSR[T]) (*core.SELL[T], error) { return core.NewELLPACK(m, cv), nil }},
		{"ELLPACK-R", func(m *matrix.CSR[T]) (*core.SELL[T], error) { return core.NewELLPACKR(m, cv), nil }},
		{"SELL-4-1", sell(4, 1)},
		{"SELL-8-16", sell(8, 16)},
		{"SELL-32-N", sell(32, math.MaxInt)},
		{"pJDS", pjds(32)},
		{"pJDS-br4", pjds(4)},
		{"JDS", pjds(1)},
	}
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
	return []presetMatrix{
		{"random", random, xr},
		{"empty-row-inf-x", inf.ToCSR(), []float64{math.Inf(1), 1, 2}},
		{"0x0", matrix.NewCOO[float64](0, 0).ToCSR(), nil},
		{"all-empty", matrix.NewCOO[float64](5, 4).ToCSR(), []float64{math.Inf(1), math.NaN(), 1, 2}},
	}
}

func sameBits[T matrix.Float](a, b T) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// checkPresets runs every preset's host MulVec and MulVecPermuted and
// the simulated device kernel on m, asserting bit-identity with CSR.
func checkPresets[T matrix.Float](t *testing.T, m *matrix.CSR[T], x []T) {
	ref := make([]T, m.NRows)
	if err := m.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
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
			yd := make([]T, s.NPad)
			opt := gpu.RunOptions{Plans: gpu.NewPlanCache(0), Metrics: telemetry.NewRegistry()}
			if _, err := gpu.RunSELL(gpu.TeslaC2070(), s, yd, x, opt); err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if !sameBits(y[i], ref[i]) {
					t.Fatalf("MulVec y[%d] = %v, CSR %v", i, y[i], ref[i])
				}
			}
			for i, old := range s.Perm {
				if !sameBits(yp[i], ref[old]) || !sameBits(yd[i], ref[old]) {
					t.Fatalf("stored row %d: host %v, device %v, CSR %v", i, yp[i], yd[i], ref[old])
				}
			}
		})
	}
}

// TestPresetsBitIdenticalToCSR is the one table over every SELL preset
// in both precisions: host MulVec and MulVecPermuted, the device
// replay, and the pJDS host kernel at several worker counts all walk
// true row lengths, so even an empty row against an infinite x entry
// yields CSR's exact 0.
func TestPresetsBitIdenticalToCSR(t *testing.T) {
	for _, pm := range presetMatrices() {
		t.Run(pm.name+"/DP", func(t *testing.T) { checkPresets(t, pm.m, pm.x) })
		xs := make([]float32, len(pm.x))
		for i, v := range pm.x {
			xs[i] = float32(v)
		}
		t.Run(pm.name+"/SP", func(t *testing.T) { checkPresets(t, matrix.Convert[float32](pm.m), xs) })
		t.Run(pm.name+"/hostkernel-pjds", func(t *testing.T) { checkHostPJDS(t, pm.m, pm.x) })
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
	base := make([]float64, m.NRows)
	for i := range base {
		base[i] = float64(i) - 0.5
	}
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
