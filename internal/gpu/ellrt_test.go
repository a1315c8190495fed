package gpu

import (
	"math"
	"testing"

	"pjds/internal/core"
)

func TestRunELLRTMatchesReference(t *testing.T) {
	d := TeslaC2070()
	m := bandedCSR(600, 5, 45, 31)
	x := randVec(600, 32)
	ref := refMulVec(t, m, x)
	for _, threads := range []int{1, 2, 4, 8} {
		e, err := core.NewELLRT(m, threads)
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, 600)
		st, err := RunELLRT(d, e, y, x, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		checkClose(t, e.Name(), y, ref)
		if st.ExecutedLaneSteps != int64(m.Nnz()) {
			t.Errorf("T=%d: lane steps %d != nnz %d", threads, st.ExecutedLaneSteps, m.Nnz())
		}
	}
}

// TestELLRTImprovesOccupancyOnSmallMatrices: with T threads per row a
// small matrix launches T× the warps, recovering latency hiding — the
// niche ELLR-T exists for.
func TestELLRTImprovesOccupancyOnSmallMatrices(t *testing.T) {
	d := TeslaC2070()
	m := bandedCSR(512, 60, 80, 33) // few rows, long rows
	x := randVec(512, 34)
	y := make([]float64, 512)

	e1, err := core.NewELLRT(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := RunELLRT(d, e1, y, x, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e8, err := core.NewELLRT(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	st8, err := RunELLRT(d, e8, y, x, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st8.Warps <= st1.Warps {
		t.Errorf("T=8 warps %d not above T=1 warps %d", st8.Warps, st1.Warps)
	}
	if st8.GFlops <= st1.GFlops {
		t.Errorf("T=8 %.2f GF/s not above T=1 %.2f GF/s on a tiny matrix", st8.GFlops, st1.GFlops)
	}
}

func TestRunELLRTValidation(t *testing.T) {
	d := TeslaC2070()
	m := bandedCSR(64, 3, 6, 35)
	e, err := core.NewELLRT(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunELLRT(d, e, make([]float64, 64), randVec(63, 1), RunOptions{}); err == nil {
		t.Error("short x accepted")
	}
	bad := TeslaC2070()
	bad.WarpSize = 0
	if _, err := RunELLRT(bad, e, make([]float64, 64), randVec(64, 1), RunOptions{}); err == nil {
		t.Error("invalid device accepted")
	}
	// Device whose warp size is incompatible with T.
	odd := TeslaC2070()
	odd.WarpSize = 6
	if _, err := RunELLRT(odd, e, make([]float64, 64), randVec(64, 1), RunOptions{}); err == nil {
		t.Error("warp size not divisible by T accepted")
	}
}

func TestELLRTAccumulate(t *testing.T) {
	d := TeslaC2070()
	m := bandedCSR(100, 3, 9, 36)
	x := randVec(100, 37)
	ref := refMulVec(t, m, x)
	e, err := core.NewELLRT(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, 100)
	for i := range y {
		y[i] = 2
	}
	if _, err := RunELLRT(d, e, y, x, RunOptions{Accumulate: true}); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if math.Abs(y[i]-(ref[i]+2)) > 1e-10 {
			t.Fatalf("accumulate y[%d]", i)
		}
	}
}
