package gpu

import (
	"math"
	"testing"

	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/telemetry"
)

func TestCSRKernelsMatchReference(t *testing.T) {
	d := TeslaC2070()
	m := bandedCSR(700, 4, 40, 61)
	x := randVec(700, 62)
	ref := refMulVec(t, m, x)

	y := make([]float64, 700)
	if _, err := RunCSRScalar(d, m, y, x, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	checkClose(t, "CSR-scalar", y, ref)

	y2 := make([]float64, 700)
	if _, err := RunCSRVector(d, m, y2, x, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	checkClose(t, "CSR-vector", y2, ref)
}

// TestCSRAccumulate: with Accumulate both CSR kernels sum each row
// first and then add it to y, so they match CSR.MulVecAdd bit for bit.
func TestCSRAccumulate(t *testing.T) {
	d := TeslaC2070()
	m := bandedCSR(700, 4, 40, 61)
	x := randVec(700, 64)
	ref := make([]float64, 700)
	for i := range ref {
		ref[i] = 3
	}
	if err := m.MulVecAdd(ref, x); err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name string
		f    func(y []float64) error
	}{
		{"scalar", func(y []float64) error { _, err := RunCSRScalar(d, m, y, x, RunOptions{Accumulate: true}); return err }},
		{"vector", func(y []float64) error { _, err := RunCSRVector(d, m, y, x, RunOptions{Accumulate: true}); return err }},
	} {
		y := make([]float64, 700)
		for i := range y {
			y[i] = 3
		}
		if err := run.f(y); err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("%s accumulate y[%d] = %v, MulVecAdd gives %v", run.name, i, y[i], ref[i])
			}
		}
	}
}

// TestCSRScalarUncoalesced: the whole point of the GPU formats — the
// scalar CSR kernel moves far more val/idx bytes than ELLPACK-R for
// the same matrix, and loses in GF/s.
func TestCSRScalarUncoalesced(t *testing.T) {
	d := TeslaC2070()
	m := bandedCSR(4096, 15, 35, 65)
	x := randVec(4096, 66)
	y := make([]float64, 4096)
	stS, err := RunCSRScalar(d, m, y, x, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ellr := newELLR(m)
	stE, err := RunSELL(d, ellr, y, x, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stS.BytesVal < 3*stE.BytesVal {
		t.Errorf("CSR-scalar val traffic %d not ≫ ELLPACK-R %d", stS.BytesVal, stE.BytesVal)
	}
	if stS.GFlops >= stE.GFlops {
		t.Errorf("CSR-scalar %.2f GF/s not below ELLPACK-R %.2f", stS.GFlops, stE.GFlops)
	}
}

// TestCSRVectorBeatsScalarOnLongRows / loses on short rows: the
// Bell & Garland crossover.
func TestCSRVectorCrossover(t *testing.T) {
	d := TeslaC2070()
	long := matgen.Random(2000, 150, 250, 67)
	short := matgen.Random(20000, 3, 6, 68)
	for _, c := range []struct {
		name       string
		m          *matrix.CSR[float64]
		vectorWins bool
	}{
		{"long rows", long, true},
		{"short rows", short, false},
	} {
		x := randVec(c.m.NCols, 69)
		y := make([]float64, c.m.NRows)
		stS, err := RunCSRScalar(d, c.m, y, x, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		stV, err := RunCSRVector(d, c.m, y, x, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if c.vectorWins && stV.GFlops <= stS.GFlops {
			t.Errorf("%s: vector %.2f not above scalar %.2f", c.name, stV.GFlops, stS.GFlops)
		}
		if !c.vectorWins && stV.GFlops >= stS.GFlops {
			t.Errorf("%s: vector %.2f not below scalar %.2f", c.name, stV.GFlops, stS.GFlops)
		}
	}
}

func TestCSRKernelValidation(t *testing.T) {
	d := TeslaC2070()
	m := bandedCSR(64, 3, 6, 70)
	if _, err := RunCSRScalar(d, m, make([]float64, 63), randVec(64, 1), RunOptions{}); err == nil {
		t.Error("scalar short y accepted")
	}
	if _, err := RunCSRVector(d, m, make([]float64, 64), randVec(63, 1), RunOptions{}); err == nil {
		t.Error("vector short x accepted")
	}
	if _, err := RunELLPACKR(d, m, make([]float64, 65), randVec(64, 1), RunOptions{}); err == nil {
		t.Error("ELLPACK-R long y accepted")
	}
	bad := TeslaC2070()
	bad.NumMPs = -1
	if _, err := RunCSRScalar(bad, m, make([]float64, 64), randVec(64, 1), RunOptions{}); err == nil {
		t.Error("invalid device accepted")
	}
}

// fuzzValues are the matrix and vector entries FuzzELLPACKRFromCSR
// draws from: a -0 sum that a padding 0·x would flip to +0, NaN and a
// subnormal. No product or sum reaches an infinity, so every NaN is
// math.NaN()'s: an Inf−Inf or 0·Inf NaN has another payload, and which
// of two payloads a sum keeps depends on the operand order the
// compiler picks for a commutative add, which Go leaves open.
var fuzzValues = []float64{0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e10, math.NaN(), -7, 5e-324}

// FuzzELLPACKRFromCSR checks that ELLPACK-R compiled straight from the
// CSR is the plan of the built layout: equal KernelStats and
// bit-identical y, with and without Accumulate, at 1 and 3 workers.
// The bytes give the shape (up to three warps of rows; columns drawn
// independently, so NCols ≠ NRows as in a rank's non-local block),
// then per row a length (0 gives an empty row) and (column, value)
// pairs.
func FuzzELLPACKRFromCSR(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 200, 2, 0, 1, 5, 2, 0, 3, 1, 1, 4})
	f.Add([]byte{69, 7, 8, 1, 6, 2, 1, 3, 0, 4, 1, 5, 0, 6, 7, 0, 0, 1, 7, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		rows, cols := 1+next()%96, 1+next()%96
		m := &matrix.CSR[float64]{NRows: rows, NCols: cols, RowPtr: make([]int, rows+1)}
		for i := range rows {
			for range next() % 9 {
				m.ColIdx = append(m.ColIdx, int32(next()%cols))
				m.Val = append(m.Val, fuzzValues[next()%len(fuzzValues)])
			}
			m.RowPtr[i+1] = len(m.Val)
		}
		x := make([]float64, cols)
		for c := range x {
			x[c] = fuzzValues[(c*7+3)%len(fuzzValues)]
		}
		d := TeslaC2070()
		ellr := newELLR(m)
		reg := telemetry.NewRegistry()
		for _, acc := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				run := func(kernel func(y []float64, opt RunOptions) (*KernelStats, error)) (*KernelStats, []float64) {
					y := make([]float64, rows)
					for i := range y {
						y[i] = fuzzValues[(i*3+1)%len(fuzzValues)]
					}
					st, err := kernel(y, RunOptions{Accumulate: acc, Workers: workers, Plans: NewPlanCache(1), Metrics: reg})
					if err != nil {
						t.Fatal(err)
					}
					return st, y
				}
				want, yWant := run(func(y []float64, opt RunOptions) (*KernelStats, error) { return RunSELL(d, ellr, y, x, opt) })
				got, yGot := run(func(y []float64, opt RunOptions) (*KernelStats, error) { return RunELLPACKR(d, m, y, x, opt) })
				if *got != *want {
					t.Fatalf("accumulate=%v workers=%d:\n got  %+v\n want %+v", acc, workers, *got, *want)
				}
				if i := firstBitDiff(yGot, yWant); i >= 0 {
					t.Fatalf("accumulate=%v workers=%d: y[%d] = %v, layout gives %v", acc, workers, i, yGot[i], yWant[i])
				}
			}
		}
	})
}

// firstBitDiff returns the first index where a and b differ in their
// bit patterns, or -1.
func firstBitDiff[T matrix.Float](a, b []T) int {
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return i
		}
	}
	return -1
}
