package formats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pjds/internal/core"
	"pjds/internal/matrix"
)

// Shorthands for the core layouts built with default conversion
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

func newJDS[T matrix.Float](m *matrix.CSR[T]) (*core.PJDS[T], error) {
	return core.NewPJDS(m, core.Options{BlockHeight: 1})
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

// allFormats builds every format in the repository for m.
func allFormats(t *testing.T, m *matrix.CSR[float64]) []Format[float64] {
	t.Helper()
	pjds, err := newPJDS(m)
	if err != nil {
		t.Fatal(err)
	}
	jds, err := newJDS(m)
	if err != nil {
		t.Fatal(err)
	}
	sell, err := newSliced(m, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	sellSorted, err := newSliced(m, 32, 256)
	if err != nil {
		t.Fatal(err)
	}
	cmrs, err := NewCMRS(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	return []Format[float64]{
		NewCRS(m),
		newELL(m),
		newELLR(m),
		pjds,
		jds,
		sell,
		sellSorted,
		cmrs,
	}
}

func TestAllFormatsMatchReference(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		m := randomCSR(150, 130, 0.06, seed)
		x := make([]float64, 130)
		rng := rand.New(rand.NewSource(seed + 50))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ref := make([]float64, 150)
		if err := m.MulVec(ref, x); err != nil {
			t.Fatal(err)
		}
		for _, f := range allFormats(t, m) {
			y := make([]float64, 150)
			if err := f.MulVec(y, x); err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
			for i := range y {
				if math.Abs(y[i]-ref[i]) > 1e-11 {
					t.Fatalf("%s seed %d: y[%d] = %g, want %g", f.Name(), seed, i, y[i], ref[i])
				}
			}
			if f.Rows() != 150 || f.Cols() != 130 || f.NonZeros() != m.Nnz() {
				t.Errorf("%s: metadata mismatch", f.Name())
			}
			if f.FootprintBytes() <= 0 {
				t.Errorf("%s: non-positive footprint", f.Name())
			}
		}
	}
}

func TestELLPACKStorageGeometry(t *testing.T) {
	// 40 rows → padded to 64 (two warps); max row length from data.
	coo := matrix.NewCOO[float64](40, 100)
	for i := 0; i < 40; i++ {
		for j := 0; j <= i%7; j++ {
			coo.Add(i, (i*13+j)%100, 1)
		}
	}
	m := coo.ToCSR()
	e := newELL(m)
	if e.NPad != 64 {
		t.Errorf("NPad = %d, want 64", e.NPad)
	}
	if e.MaxRowLen != 7 {
		t.Errorf("MaxRowLen = %d, want 7", e.MaxRowLen)
	}
	if e.StoredElems() != 64*7 {
		t.Errorf("stored = %d, want %d", e.StoredElems(), 64*7)
	}
	// ELLPACK-R has identical storage plus rowLen.
	r := newELLR(m)
	if r.StoredElems() != e.StoredElems() {
		t.Error("ELLPACK-R stored elems differ from ELLPACK")
	}
	if r.FootprintBytes() != e.FootprintBytes()+int64(e.NPad)*4 {
		t.Error("ELLPACK-R footprint should add rowLen array")
	}
	if r.Name() != "ELLPACK-R" || e.Name() != "ELLPACK" {
		t.Error("names")
	}
}

func TestELLPACKPaddingIsHarmless(t *testing.T) {
	// Padding slots multiply 0 by an in-range RHS element; results
	// must be exact even with NaN-free but extreme RHS values.
	coo := matrix.NewCOO[float64](3, 3)
	coo.Add(0, 0, 1)
	coo.Add(1, 0, 1)
	coo.Add(1, 1, 1)
	coo.Add(1, 2, 1)
	coo.Add(2, 2, 2)
	m := coo.ToCSR()
	e := newELL(m)
	x := []float64{1e300, -1e300, 0.5}
	y := make([]float64, 3)
	if err := e.MulVec(y, x); err != nil {
		t.Fatal(err)
	}
	want := []float64{1e300, 1e300 - 1e300 + 0.5, 1}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

func TestDataReductionExtremeCase(t *testing.T) {
	// One full row, singleton others (§II-A): reduction approaches
	// 1 − (br+1)/N for large N.
	const n = 512
	coo := matrix.NewCOO[float64](n, n)
	for j := 0; j < n; j++ {
		coo.Add(0, j, 1)
	}
	for i := 1; i < n; i++ {
		coo.Add(i, i, 1)
	}
	m := coo.ToCSR()
	ell := newELL(m)
	p, err := newPJDS(m)
	if err != nil {
		t.Fatal(err)
	}
	red := DataReduction[float64](ell, p)
	want := 1 - float64((32+1)*n-32)/float64(n*n)
	if math.Abs(red-want) > 1e-12 {
		t.Errorf("reduction = %.6f, want %.6f", red, want)
	}
	if red < 0.9 {
		t.Errorf("expected >90%% reduction in the extreme case, got %.2f", red)
	}
}

func TestDataReductionZeroDenominator(t *testing.T) {
	empty := matrix.NewCOO[float64](0, 0).ToCSR()
	e := newELL(empty)
	if DataReduction[float64](e, e) != 0 {
		t.Error("empty reduction should be 0")
	}
}

func TestSlicedELLGeometry(t *testing.T) {
	// Rows with descending lengths 8,8,...,1 in groups; slice height 4.
	lens := []int{8, 1, 8, 1, 2, 2, 2, 2, 5}
	coo := matrix.NewCOO[float64](len(lens), 16)
	for i, l := range lens {
		for j := 0; j < l; j++ {
			coo.Add(i, j, float64(i+1))
		}
	}
	m := coo.ToCSR()

	// Unsorted, C=4: slice lens are max(8,1,8,1)=8, max(2,2,2,2)=2,
	// max(5)=5 (padded to 12 rows → slice 2 has rows 8..11, lens 5,0,0,0).
	s, err := newSliced(m, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.NPad != 12 {
		t.Errorf("NPad = %d", s.NPad)
	}
	wantSliceLen := []int32{8, 2, 5}
	for i, w := range wantSliceLen {
		if s.SliceLen[i] != w {
			t.Errorf("slice %d len = %d, want %d", i, s.SliceLen[i], w)
		}
	}
	if s.StoredElems() != int64(4*8+4*2+4*5) {
		t.Errorf("stored = %d", s.StoredElems())
	}
	if s.Name() != "sliced-ELL" {
		t.Errorf("name = %q", s.Name())
	}

	// Sorted globally the padding shrinks: lengths desc 8,8,5,2|2,2,2,1|1
	// → slice lens 8,2,1.
	g, err := newSliced(m, 4, len(lens))
	if err != nil {
		t.Fatal(err)
	}
	if g.StoredElems() >= s.StoredElems() {
		t.Errorf("global sort did not reduce storage: %d vs %d", g.StoredElems(), s.StoredElems())
	}
	if g.Name() != "sliced-ELL-sorted" {
		t.Errorf("name = %q", g.Name())
	}
	if !g.RowPerm().Valid() {
		t.Error("invalid permutation")
	}
}

func TestSlicedELLSortWindowClamping(t *testing.T) {
	m := randomCSR(50, 50, 0.1, 3)
	// sigma larger than N clamps; sigma not a multiple of C rounds up.
	s, err := newSliced(m, 8, 999)
	if err != nil {
		t.Fatal(err)
	}
	if s.SortWindow != 50 {
		t.Errorf("sigma = %d, want 50 (clamped)", s.SortWindow)
	}
	s2, err := newSliced(m, 8, 20)
	if err != nil {
		t.Fatal(err)
	}
	if s2.SortWindow != 24 {
		t.Errorf("sigma = %d, want 24 (rounded to multiple of C)", s2.SortWindow)
	}
	if _, err := newSliced(m, 0, 1); err == nil {
		t.Error("C=0 accepted")
	}
}

// Property: sliced-ELL with any (C, σ) matches CRS.
func TestSlicedELLPropertyMatchesCRS(t *testing.T) {
	f := func(seed int64) bool {
		s := seed & 0x3fff
		rng := rand.New(rand.NewSource(s))
		rows := 1 + rng.Intn(70)
		m := randomCSR(rows, rows, 0.12, s+2)
		c := 1 + rng.Intn(16)
		sigma := rng.Intn(rows + 10)
		se, err := newSliced(m, c, sigma)
		if err != nil {
			return false
		}
		x := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, rows)
		ref := make([]float64, rows)
		if se.MulVec(y, x) != nil || m.MulVec(ref, x) != nil {
			return false
		}
		for i := range y {
			if math.Abs(y[i]-ref[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: storage ordering ELLPACK ≥ sliced-ELL(unsorted) ≥
// sliced-ELL(sorted, σ=N) ≥ JDS = nnz, with pJDS between sorted-sliced
// (same geometry at C=br) and JDS.
func TestStorageOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := seed & 0xfff
		m := randomCSR(100, 100, 0.08, s)
		ell := newELL(m)
		sell, err1 := newSliced(m, 32, 1)
		sorted, err2 := newSliced(m, 32, 100)
		pjds, err3 := newPJDS(m)
		jds, err4 := newJDS(m)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		if ell.StoredElems() < sell.StoredElems() {
			return false
		}
		if sell.StoredElems() < sorted.StoredElems() {
			return false
		}
		if sorted.StoredElems() < jds.StoredElems() {
			return false
		}
		if pjds.StoredElems() < jds.StoredElems() {
			return false
		}
		return jds.StoredElems() == int64(m.Nnz())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCRSAdapter(t *testing.T) {
	m := randomCSR(10, 12, 0.3, 13)
	c := NewCRS(m)
	if c.Name() != "CRS" || c.StoredElems() != int64(m.Nnz()) {
		t.Error("CRS adapter basics")
	}
	want := int64(m.Nnz())*12 + int64(len(m.RowPtr))*8
	if c.FootprintBytes() != want {
		t.Errorf("CRS footprint = %d, want %d", c.FootprintBytes(), want)
	}
}

func TestFormatShapeErrors(t *testing.T) {
	m := randomCSR(10, 10, 0.3, 17)
	for _, f := range allFormats(t, m) {
		if err := f.MulVec(make([]float64, 10), make([]float64, 9)); err == nil {
			t.Errorf("%s: wrong x size accepted", f.Name())
		}
		if err := f.MulVec(make([]float64, 9), make([]float64, 10)); err == nil {
			t.Errorf("%s: wrong y size accepted", f.Name())
		}
	}
}

func TestSinglePrecisionFormats(t *testing.T) {
	md := randomCSR(64, 64, 0.1, 19)
	m := matrix.Convert[float32](md)
	x := make([]float32, 64)
	for i := range x {
		x[i] = float32(i%5) - 2
	}
	ref := make([]float32, 64)
	if err := m.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	p, err := newPJDS(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Format[float32]{newELL(m), newELLR(m), p} {
		y := make([]float32, 64)
		if err := f.MulVec(y, x); err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if math.Abs(float64(y[i]-ref[i])) > 1e-3 {
				t.Fatalf("%s SP mismatch at %d", f.Name(), i)
			}
		}
		// SP footprint must be smaller than DP footprint.
		var fd Format[float64]
		switch f.Name() {
		case "ELLPACK":
			fd = newELL(md)
		case "ELLPACK-R":
			fd = newELLR(md)
		default:
			pd, err := newPJDS(md)
			if err != nil {
				t.Fatal(err)
			}
			fd = pd
		}
		if f.FootprintBytes() >= fd.FootprintBytes() {
			t.Errorf("%s: SP footprint %d not below DP %d", f.Name(), f.FootprintBytes(), fd.FootprintBytes())
		}
	}
}

// TestSinglePrecisionNewFormats exercises the float32 paths of the
// formats added beyond the paper's core set.
func TestSinglePrecisionNewFormats(t *testing.T) {
	md := randomCSR(80, 80, 0.1, 23)
	m := matrix.Convert[float32](md)
	x := make([]float32, 80)
	for i := range x {
		x[i] = float32(i%9) - 4
	}
	ref := make([]float32, 80)
	if err := m.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	ert, err := NewELLRT(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	bell, err := NewBELLPACK(m, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	sell, err := newSliced(m, 16, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Format[float32]{ert, bell, sell} {
		y := make([]float32, 80)
		if err := f.MulVec(y, x); err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		for i := range y {
			if math.Abs(float64(y[i]-ref[i])) > 1e-3 {
				t.Fatalf("%s: SP mismatch at %d", f.Name(), i)
			}
		}
	}
}
