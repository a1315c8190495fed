package gpu

import (
	"math"
	"testing"

	"pjds/internal/core"
	"pjds/internal/matgen"
)

// TestRunBELLPACKMatchesReference: with finite x the fill-in zeros of
// partial blocks add +0, so BELLPACK is bit-identical to CRS.
func TestRunBELLPACKMatchesReference(t *testing.T) {
	d := TeslaC2070()
	m := matgen.DLR2(0.003, 5)
	x := randVec(m.NCols, 51)
	ref := refMulVec(t, m, x)
	for _, blk := range [][2]int{{1, 1}, {2, 2}, {5, 5}, {6, 6}, {2, 4}, {3, 1}} {
		e, err := core.NewBELLPACK(m, blk[0], blk[1])
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, m.NRows)
		st, err := RunBELLPACK(d, e, y, x, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("%s: y[%d] = %x, want %x", e.Name(), i, y[i], ref[i])
			}
		}
		if st.GFlops <= 0 {
			t.Errorf("%s: no performance", e.Name())
		}
	}
}

// TestBELLPACKBeatsScalarFormatsOnBlockMatrix: on DLR2's dense 5×5
// blocks, BELLPACK's 25× index saving must show up as less index
// traffic than ELLPACK-R and competitive or better GF/s.
func TestBELLPACKBeatsScalarFormatsOnBlockMatrix(t *testing.T) {
	d := TeslaC2070()
	m := matgen.DLR2(0.01, 6)
	x := randVec(m.NCols, 52)
	e, err := core.NewBELLPACK(m, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := RunBELLPACK(d, e, make([]float64, m.NRows), x, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := newELLR(m)
	stR, err := RunSELL(d, r, make([]float64, m.NRows), x, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stB.BytesIdx >= stR.BytesIdx/3 {
		t.Errorf("BELLPACK index traffic %d not well below ELLPACK-R %d", stB.BytesIdx, stR.BytesIdx)
	}
	if stB.GFlops < stR.GFlops {
		t.Errorf("BELLPACK %.2f GF/s below ELLPACK-R %.2f on its home turf", stB.GFlops, stR.GFlops)
	}
}

func TestRunBELLPACKValidation(t *testing.T) {
	d := TeslaC2070()
	m := matgen.DLR2(0.002, 7)
	e, err := core.NewBELLPACK(m, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunBELLPACK(d, e, make([]float64, m.NRows-1), randVec(m.NCols, 1), RunOptions{}); err == nil {
		t.Error("short y accepted")
	}
	bad := TeslaC2070()
	bad.SegmentBytes = 100
	if _, err := RunBELLPACK(bad, e, make([]float64, m.NRows), randVec(m.NCols, 1), RunOptions{}); err == nil {
		t.Error("invalid device accepted")
	}
}
