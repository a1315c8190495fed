package core

import (
	"math"
	"math/rand"
	"testing"

	"pjds/internal/matgen"
	"pjds/internal/matrix"
)

func TestBELLPACKMatchesReference(t *testing.T) {
	for _, blk := range [][2]int{{1, 1}, {2, 2}, {5, 5}, {4, 2}, {3, 7}} {
		m := randomCSR(130, 110, 0.06, int64(blk[0]*10+blk[1]))
		e, err := NewBELLPACK(m, blk[0], blk[1])
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 110)
		rng := rand.New(rand.NewSource(99))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, 130)
		ref := make([]float64, 130)
		if err := e.MulVec(y, x); err != nil {
			t.Fatal(err)
		}
		if err := m.MulVec(ref, x); err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("block %dx%d: y[%d] = %g, want %g", blk[0], blk[1], i, y[i], ref[i])
			}
		}
	}
}

// TestBELLPACKFillInMeetsInfiniteX pins BELLPACK's one exception to
// bit-identity with CRS: a fill-in zero times an infinite x is NaN
// where CRS stores no element.
func TestBELLPACKFillInMeetsInfiniteX(t *testing.T) {
	coo := matrix.NewCOO[float64](2, 2)
	coo.Add(0, 0, 2)
	coo.Add(1, 1, 3)
	m := coo.ToCSR()
	e, err := NewBELLPACK(m, 2, 2) // one block, two fill-in zeros
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, math.Inf(1)}
	y, ref := make([]float64, 2), make([]float64, 2)
	if err := e.MulVec(y, x); err != nil {
		t.Fatal(err)
	}
	if err := m.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	if ref[0] != 2 || !math.IsNaN(y[0]) {
		t.Errorf("row 0: BELLPACK %g, CRS %g; want NaN and 2", y[0], ref[0])
	}
	if y[1] != ref[1] {
		t.Errorf("row 1: BELLPACK %g, CRS %g", y[1], ref[1])
	}
}

func TestBELLPACKOnDLR2Blocks(t *testing.T) {
	// DLR2 is made of dense 5×5 blocks: BELLPACK(5,5) must have zero
	// fill-in and a 25× smaller index array than ELLPACK-R.
	m := matgen.DLR2(0.005, 1)
	e, err := NewBELLPACK(m, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if e.FillIn != 0 {
		t.Errorf("fill-in %d on a 5x5-blocked matrix", e.FillIn)
	}
	// One index per 25 values.
	if got := int64(len(e.BlockCol)) * 25; got != e.StoredElems() {
		t.Errorf("index count %d vs stored %d", len(e.BlockCol), e.StoredElems())
	}
	// Footprint beats ELLPACK-R (index savings dominate).
	r := newELLR(m)
	if e.FootprintBytes() >= r.FootprintBytes() {
		t.Errorf("BELLPACK %d B not below ELLPACK-R %d B", e.FootprintBytes(), r.FootprintBytes())
	}
	if e.Name() != "BELLPACK(5x5)" {
		t.Errorf("name %q", e.Name())
	}
}

func TestBELLPACKFillInOnUnstructured(t *testing.T) {
	// Unstructured matrix: blocking pays a fill-in price.
	m := randomCSR(200, 200, 0.05, 7)
	e, err := NewBELLPACK(m, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if e.FillIn <= 0 {
		t.Error("expected fill-in on an unstructured matrix")
	}
	e1, err := NewBELLPACK(m, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e1.FillIn != 0 {
		t.Error("1x1 blocks cannot have fill-in")
	}
	// 1×1 BELLPACK degenerates to ELLPACK geometry.
	ell := newELL(m)
	if e1.StoredElems() != ell.StoredElems() {
		t.Errorf("1x1 stored %d != ELLPACK %d", e1.StoredElems(), ell.StoredElems())
	}
}

func TestBELLPACKValidationAndEdges(t *testing.T) {
	m := randomCSR(10, 10, 0.3, 8)
	if _, err := NewBELLPACK(m, 0, 5); err == nil {
		t.Error("br=0 accepted")
	}
	if _, err := NewBELLPACK(m, 5, -1); err == nil {
		t.Error("bc<0 accepted")
	}
	e, err := NewBELLPACK(m, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.MulVec(make([]float64, 10), make([]float64, 9)); err == nil {
		t.Error("wrong x size accepted")
	}
	// Matrix whose columns are not a multiple of bc: the final ragged
	// block must be handled.
	coo := matrix.NewCOO[float64](7, 7)
	for i := 0; i < 7; i++ {
		coo.Add(i, 6, float64(i+1)) // last column
		coo.Add(i, i, 2)
	}
	mm := coo.ToCSR()
	eb, err := NewBELLPACK(mm, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 1, 1, 1, 1, 1, 10}
	y := make([]float64, 7)
	ref := make([]float64, 7)
	if err := eb.MulVec(y, x); err != nil {
		t.Fatal(err)
	}
	if err := mm.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if math.Abs(y[i]-ref[i]) > 1e-12 {
			t.Fatalf("ragged block: y[%d] = %g, want %g", i, y[i], ref[i])
		}
	}
}
