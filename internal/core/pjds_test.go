package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pjds/internal/matrix"
)

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

// fig1Matrix is an 8×8 matrix with strongly varying row lengths in the
// spirit of the worked example of Fig. 1 (the paper's figure is
// schematic; what matters is the derivation sort → pad with br = 4).
func fig1Matrix() *matrix.CSR[float64] {
	d := matrix.DenseFromRows([][]float64{
		{1, 0, 2, 0, 0, 0, 0, 0},
		{0, 3, 0, 0, 0, 0, 0, 0},
		{4, 5, 6, 7, 0, 0, 0, 8},
		{0, 0, 9, 0, 0, 0, 0, 0},
		{0, 1, 0, 2, 3, 0, 0, 0},
		{5, 0, 0, 0, 4, 6, 0, 0},
		{0, 0, 0, 7, 0, 0, 8, 0},
		{9, 8, 0, 0, 0, 7, 6, 5},
	})
	return d.ToCSR()
}

// TestFig1Derivation walks the pJDS construction on the worked example
// with br = 4, checking the sort and pad steps of Fig. 1 explicitly.
func TestFig1Derivation(t *testing.T) {
	m := fig1Matrix()
	p, err := NewPJDS(m, Options{BlockHeight: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Row lengths: 2,1,5,1,3,3,2,5 → sorted desc (stable): rows 2,7
	// (5), 4,5 (3), 0,6 (2), 1,3 (1).
	wantPerm := matrix.Perm{2, 7, 4, 5, 0, 6, 1, 3}
	for i := range wantPerm {
		if p.Perm[i] != wantPerm[i] {
			t.Fatalf("perm = %v, want %v", p.Perm, wantPerm)
		}
	}
	// Block 0 (sorted rows 0-3, lengths 5,5,3,3) pads to 5;
	// block 1 (lengths 2,2,1,1) pads to 2.
	if got := p.SliceLen[0]; got != 5 {
		t.Errorf("block 0 padded length = %d, want 5", got)
	}
	if got := p.SliceLen[1]; got != 2 {
		t.Errorf("block 1 padded length = %d, want 2", got)
	}
	// Stored slots: 4·5 + 4·2 = 28; ELLPACK would store 8·5 = 40
	// (ignoring warp-padding of N for this toy).
	if p.StoredElems() != 28 {
		t.Errorf("stored = %d, want 28", p.StoredElems())
	}
	// Column heights: cols 0-1 hold all 8 rows, cols 2-4 hold the
	// first block only.
	cs := p.ColStart()
	wantHeights := []int32{8, 8, 4, 4, 4}
	for j, w := range wantHeights {
		if h := cs[j+1] - cs[j]; h != w {
			t.Errorf("column %d height = %d, want %d", j, h, w)
		}
	}
	// ColStart is the prefix sum of heights (paper's col_start[]).
	wantStart := []int32{0, 8, 16, 20, 24, 28}
	for j, w := range wantStart {
		if cs[j] != w {
			t.Fatalf("colStart = %v, want %v", cs, wantStart)
		}
	}
	// Kernel correctness on the example.
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := make([]float64, 8)
	if err := p.MulVec(y, x); err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, 8)
	if err := m.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if math.Abs(y[i]-ref[i]) > 1e-12 {
			t.Fatalf("y[%d] = %g, want %g", i, y[i], ref[i])
		}
	}
}

func TestPJDSMatchesCRSRandom(t *testing.T) {
	for _, br := range []int{1, 2, 4, 32} {
		for seed := int64(0); seed < 4; seed++ {
			m := randomCSR(100, 80, 0.07, seed)
			p, err := NewPJDS(m, Options{BlockHeight: br})
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, 80)
			rng := rand.New(rand.NewSource(seed + 1000))
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			y := make([]float64, 100)
			ref := make([]float64, 100)
			if err := p.MulVec(y, x); err != nil {
				t.Fatal(err)
			}
			if err := m.MulVec(ref, x); err != nil {
				t.Fatal(err)
			}
			for i := range y {
				if math.Abs(y[i]-ref[i]) > 1e-11 {
					t.Fatalf("br=%d seed=%d: y[%d] = %g, want %g", br, seed, i, y[i], ref[i])
				}
			}
		}
	}
}

// Property: for any matrix, pJDS reproduces the CRS spMVM.
func TestPJDSPropertyMatchesCRS(t *testing.T) {
	f := func(seed int64) bool {
		s := seed & 0xffff
		rng := rand.New(rand.NewSource(s))
		rows := 1 + rng.Intn(60)
		cols := 1 + rng.Intn(60)
		m := randomCSR(rows, cols, 0.15, s+1)
		p, err := NewPJDS(m, Options{BlockHeight: 1 + rng.Intn(40)})
		if err != nil {
			return false
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, rows)
		ref := make([]float64, rows)
		if p.MulVec(y, x) != nil || m.MulVec(ref, x) != nil {
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

// TestExtremeCaseStorage reproduces the §II-A worst-case analysis: one
// fully populated row and a single entry in all others. Plain ELLPACK
// stores N×N elements; pJDS needs only (br+1)·N − br.
func TestExtremeCaseStorage(t *testing.T) {
	const n, br = 256, 32
	coo := matrix.NewCOO[float64](n, n)
	for j := 0; j < n; j++ {
		coo.Add(0, j, 1)
	}
	for i := 1; i < n; i++ {
		coo.Add(i, i, 2)
	}
	m := coo.ToCSR()
	p, err := NewPJDS(m, Options{BlockHeight: br})
	if err != nil {
		t.Fatal(err)
	}
	want := int64((br+1)*n - br)
	if p.StoredElems() != want {
		t.Fatalf("pJDS stores %d, paper formula gives %d", p.StoredElems(), want)
	}
	// ELLPACK comparison: N×N.
	if ell := int64(n) * int64(n); p.StoredElems() >= ell {
		t.Fatalf("pJDS not smaller than ELLPACK: %d vs %d", p.StoredElems(), ell)
	}
}

// TestConstantRowLengthNoOverhead checks the other §II-A limit: with
// constant row length, ELLPACK and pJDS both store exactly N×N^max_nzr
// (no padding overhead at all when N is a multiple of br).
func TestConstantRowLengthNoOverhead(t *testing.T) {
	const n, l = 128, 9
	coo := matrix.NewCOO[float64](n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < l; j++ {
			coo.Add(i, (i+j)%n, float64(j+1))
		}
	}
	p, err := NewPJDS(coo.ToCSR(), Options{BlockHeight: 32})
	if err != nil {
		t.Fatal(err)
	}
	if p.StoredElems() != n*l {
		t.Fatalf("stored = %d, want %d", p.StoredElems(), n*l)
	}
	if p.PaddingOverhead() != 0 {
		t.Fatalf("padding overhead = %g, want 0", p.PaddingOverhead())
	}
}

func TestJDSNoPadding(t *testing.T) {
	m := randomCSR(77, 77, 0.1, 5)
	p, err := NewPJDS(m, Options{BlockHeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.StoredElems() != int64(m.Nnz()) {
		t.Fatalf("JDS stores %d, want nnz %d", p.StoredElems(), m.Nnz())
	}
	if p.Name() != "JDS" {
		t.Errorf("name = %q", p.Name())
	}
}

func TestPJDSDefaultsAndValidation(t *testing.T) {
	m := randomCSR(10, 10, 0.3, 6)
	p, err := NewPJDS(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.C != DefaultBlockHeight {
		t.Errorf("default block height = %d", p.C)
	}
	if p.Name() != "pJDS" {
		t.Errorf("name = %q", p.Name())
	}
	if _, err := NewPJDS(m, Options{BlockHeight: -3}); err == nil {
		t.Error("negative block height accepted")
	}
}

func TestPJDSShapeErrors(t *testing.T) {
	m := randomCSR(8, 6, 0.4, 7)
	p, err := NewPJDS(m, Options{BlockHeight: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MulVec(make([]float64, 8), make([]float64, 5)); err == nil {
		t.Error("wrong x size accepted")
	}
	if err := p.MulVec(make([]float64, 7), make([]float64, 6)); err == nil {
		t.Error("wrong y size accepted")
	}
	if err := p.MulVecPermuted(make([]float64, 7), make([]float64, 6)); err == nil {
		t.Error("short yp accepted")
	}
}

func TestPJDSEmptyAndTinyMatrices(t *testing.T) {
	empty := matrix.NewCOO[float64](0, 0).ToCSR()
	p, err := NewPJDS(empty, Options{BlockHeight: 32})
	if err != nil {
		t.Fatal(err)
	}
	if p.StoredElems() != 0 || p.MaxRowLen != 0 {
		t.Errorf("empty pJDS stored=%d max=%d", p.StoredElems(), p.MaxRowLen)
	}
	if err := p.MulVec(nil, nil); err != nil {
		t.Errorf("empty MulVec: %v", err)
	}

	// All-zero matrix with rows.
	zero := matrix.NewCOO[float64](5, 5).ToCSR()
	pz, err := NewPJDS(zero, Options{BlockHeight: 2})
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{9, 9, 9, 9, 9}
	if err := pz.MulVec(y, make([]float64, 5)); err != nil {
		t.Fatal(err)
	}
	for i, v := range y {
		if v != 0 {
			t.Fatalf("y[%d] = %g, want 0", i, v)
		}
	}
}

func TestPJDSSingleRow(t *testing.T) {
	coo := matrix.NewCOO[float64](1, 4)
	coo.Add(0, 1, 2)
	coo.Add(0, 3, 5)
	p, err := NewPJDS(coo.ToCSR(), Options{BlockHeight: 32})
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, 1)
	if err := p.MulVec(y, []float64{1, 10, 100, 1000}); err != nil {
		t.Fatal(err)
	}
	if y[0] != 5020 {
		t.Fatalf("y = %g, want 5020", y[0])
	}
	// Stored: one block of 32 rows padded to length 2 = 64 slots.
	if p.StoredElems() != 64 {
		t.Errorf("stored = %d, want 64", p.StoredElems())
	}
}

func TestPaddingOverheadSmallForRealisticBr(t *testing.T) {
	// A matrix with smoothly varying row lengths (like the paper's
	// test set) should have tiny padding overhead at br=32: within a
	// block of 32 sorted rows lengths barely differ.
	rng := rand.New(rand.NewSource(42))
	const n = 8192
	coo := matrix.NewCOO[float64](n, n)
	for i := 0; i < n; i++ {
		l := 5 + rng.Intn(30)
		for j := 0; j < l; j++ {
			coo.Add(i, rng.Intn(n), rng.Float64()+0.1)
		}
	}
	m := coo.ToCSR()
	p, err := NewPJDS(m, Options{BlockHeight: 32})
	if err != nil {
		t.Fatal(err)
	}
	if ov := p.PaddingOverhead(); ov > 0.01 {
		t.Errorf("padding overhead %.4f > 1%%", ov)
	}
}

func TestRowPermAndFootprint(t *testing.T) {
	m := randomCSR(50, 50, 0.1, 9)
	p, err := NewPJDS(m, Options{BlockHeight: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Perm.Valid() {
		t.Error("invalid row permutation")
	}
	// DP footprint: stored*(8+4) + colStart + rowLen + perm.
	want := p.StoredElems()*12 + int64(len(p.ColStart()))*4 + int64(len(p.RowLen))*4 + int64(len(p.Perm))*4
	if p.FootprintBytes() != want {
		t.Errorf("footprint = %d, want %d", p.FootprintBytes(), want)
	}
}

func TestSizeofElem(t *testing.T) {
	if SizeofElem[float32]() != 4 {
		t.Error("float32 width")
	}
	if SizeofElem[float64]() != 8 {
		t.Error("float64 width")
	}
}

func TestPJDSSinglePrecision(t *testing.T) {
	md := randomCSR(60, 60, 0.1, 11)
	ms := matrix.Convert[float32](md)
	p, err := NewPJDS(ms, Options{BlockHeight: 32})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 60)
	for i := range x {
		x[i] = float32(i%7) - 3
	}
	y := make([]float32, 60)
	ref := make([]float32, 60)
	if err := p.MulVec(y, x); err != nil {
		t.Fatal(err)
	}
	if err := ms.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if math.Abs(float64(y[i]-ref[i])) > 1e-4 {
			t.Fatalf("SP y[%d] = %g, want %g", i, y[i], ref[i])
		}
	}
}
