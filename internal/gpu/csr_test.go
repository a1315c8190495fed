package gpu

import (
	"math"
	"testing"

	"pjds/internal/matgen"
	"pjds/internal/matrix"
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

func TestCSRAccumulate(t *testing.T) {
	d := TeslaC2070()
	m := bandedCSR(128, 3, 9, 63)
	x := randVec(128, 64)
	ref := refMulVec(t, m, x)
	for _, run := range []struct {
		name string
		f    func(y []float64) error
	}{
		{"scalar", func(y []float64) error { _, err := RunCSRScalar(d, m, y, x, RunOptions{Accumulate: true}); return err }},
		{"vector", func(y []float64) error { _, err := RunCSRVector(d, m, y, x, RunOptions{Accumulate: true}); return err }},
	} {
		y := make([]float64, 128)
		for i := range y {
			y[i] = 3
		}
		if err := run.f(y); err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if math.Abs(y[i]-(ref[i]+3)) > 1e-10 {
				t.Fatalf("%s accumulate y[%d]", run.name, i)
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
	bad := TeslaC2070()
	bad.NumMPs = -1
	if _, err := RunCSRScalar(bad, m, make([]float64, 64), randVec(64, 1), RunOptions{}); err == nil {
		t.Error("invalid device accepted")
	}
}
