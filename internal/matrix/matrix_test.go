package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomCSR builds a random rows×cols matrix with approximately the
// given density, deterministic in seed.
func randomCSR(rows, cols int, density float64, seed int64) *CSR[float64] {
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO[float64](rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSR()
}

// toDense expands a small sparse matrix.
func toDense(m *CSR[float64]) *Dense[float64] {
	d := NewDense[float64](m.NRows, m.NCols)
	for i := 0; i < m.NRows; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			d.Set(i, int(c), vals[k])
		}
	}
	return d
}

func TestCOOToCSRBasic(t *testing.T) {
	coo := NewCOO[float64](3, 4)
	coo.Add(2, 1, 5)
	coo.Add(0, 0, 1)
	coo.Add(0, 3, 2)
	coo.Add(1, 2, 3)
	m := coo.ToCSR()
	if m.NRows != 3 || m.NCols != 4 || m.Nnz() != 4 {
		t.Fatalf("shape/nnz: %dx%d nnz=%d", m.NRows, m.NCols, m.Nnz())
	}
	want := [][]float64{
		{1, 0, 0, 2},
		{0, 0, 3, 0},
		{0, 5, 0, 0},
	}
	for i := range want {
		for j := range want[i] {
			if got := m.At(i, j); got != want[i][j] {
				t.Errorf("At(%d,%d) = %g, want %g", i, j, got, want[i][j])
			}
		}
	}
}

func TestCOODuplicatesSummed(t *testing.T) {
	coo := NewCOO[float64](2, 2)
	coo.Add(0, 0, 1)
	coo.Add(0, 0, 2.5)
	coo.Add(1, 1, -1)
	coo.Add(0, 0, 0.5)
	m := coo.ToCSR()
	if m.Nnz() != 2 {
		t.Fatalf("nnz = %d, want 2 (duplicates summed)", m.Nnz())
	}
	if got := m.At(0, 0); got != 4 {
		t.Errorf("At(0,0) = %g, want 4", got)
	}
}

func TestCOOEmptyRowsAndMatrix(t *testing.T) {
	coo := NewCOO[float64](4, 4)
	coo.Add(1, 2, 7)
	m := coo.ToCSR()
	for _, i := range []int{0, 2, 3} {
		if m.RowLen(i) != 0 {
			t.Errorf("row %d length = %d, want 0", i, m.RowLen(i))
		}
	}
	empty := NewCOO[float64](5, 5).ToCSR()
	if empty.Nnz() != 0 || empty.MaxRowLen() != 0 {
		t.Errorf("empty matrix nnz=%d max=%d", empty.Nnz(), empty.MaxRowLen())
	}
	y := make([]float64, 5)
	if err := empty.MulVec(y, make([]float64, 5)); err != nil {
		t.Fatal(err)
	}
}

func TestCOOAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range entry")
		}
	}()
	NewCOO[float64](2, 2).Add(2, 0, 1)
}

// TestContractPanics: each programming contract that a "// Contract:"
// comment names in this package panics with its own message when a
// caller breaks it, not with a runtime index error further in.
func TestContractPanics(t *testing.T) {
	sq := randomCSR(4, 4, 0.5, 1)
	wide := randomCSR(3, 4, 0.5, 2)
	id := Identity(4)
	cases := []struct {
		name, want string
		call       func()
	}{
		{"coo-negative-rows", "matrix: negative dimension", func() { NewCOO[float64](-1, 2) }},
		{"coo-negative-cols", "matrix: negative dimension", func() { NewCOO[float64](2, -1) }},
		{"gather-short-dst", "matrix: Gather sizes dst=3 src=4 p=4", func() { Gather(make([]float64, 3), make([]float64, 4), id) }},
		{"gather-short-src", "matrix: Gather sizes dst=4 src=3 p=4", func() { Gather(make([]float64, 4), make([]float64, 3), id) }},
		{"scatter-short-dst", "matrix: Scatter sizes dst=3 src=4 p=4", func() { Scatter(make([]float64, 3), make([]float64, 4), id) }},
		{"scatter-short-src", "matrix: Scatter sizes dst=4 src=3 p=4", func() { Scatter(make([]float64, 4), make([]float64, 3), id) }},
		{"permute-rows-size", "matrix: row permutation size 3 on 4 rows", func() { PermuteRows(sq, Identity(3)) }},
		{"permute-symmetric-non-square", "matrix: symmetric permutation of a non-square matrix", func() { PermuteSymmetric(wide, Identity(3)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if got := recover(); got != tc.want {
					t.Fatalf("panic %v, want %q", got, tc.want)
				}
			}()
			tc.call()
		})
	}
}

func TestNewCSRValidation(t *testing.T) {
	cases := []struct {
		name   string
		rowPtr []int
		colIdx []int32
		val    []float64
	}{
		{"short rowPtr", []int{0, 1}, []int32{0}, []float64{1}},
		{"rowPtr not starting at 0", []int{1, 1, 1}, nil, nil},
		{"len mismatch", []int{0, 1, 1}, []int32{0, 1}, []float64{1}},
		{"nnz mismatch", []int{0, 1, 3}, []int32{0, 1}, []float64{1, 2}},
		{"non-monotone", []int{0, 2, 1}, []int32{0, 1}, []float64{1, 2}},
		{"col out of range", []int{0, 1, 2}, []int32{0, 5}, []float64{1, 2}},
	}
	for _, c := range cases {
		if _, err := NewCSR[float64](2, 2, c.rowPtr, c.colIdx, c.val); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := NewCSR[float64](2, 2, []int{0, 1, 2}, []int32{0, 1}, []float64{1, 2}); err != nil {
		t.Errorf("valid matrix rejected: %v", err)
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		m := randomCSR(37, 23, 0.2, seed)
		d := toDense(m)
		x := make([]float64, 23)
		rng := rand.New(rand.NewSource(seed + 100))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ys, yd := make([]float64, 37), make([]float64, 37)
		if err := m.MulVec(ys, x); err != nil {
			t.Fatal(err)
		}
		if err := d.MulVec(yd, x); err != nil {
			t.Fatal(err)
		}
		for i := range ys {
			if math.Abs(ys[i]-yd[i]) > 1e-12 {
				t.Fatalf("seed %d: y[%d] = %g, dense %g", seed, i, ys[i], yd[i])
			}
		}
	}
}

func TestMulVecShapeErrors(t *testing.T) {
	m := randomCSR(4, 6, 0.5, 1)
	if err := m.MulVec(make([]float64, 4), make([]float64, 5)); err == nil {
		t.Error("MulVec accepted wrong x size")
	}
	if err := m.MulVec(make([]float64, 3), make([]float64, 6)); err == nil {
		t.Error("MulVec accepted wrong y size")
	}
	if err := m.MulVecAdd(make([]float64, 3), make([]float64, 6)); err == nil {
		t.Error("MulVecAdd accepted wrong y size")
	}
}

func TestMulVecAdd(t *testing.T) {
	m := randomCSR(10, 10, 0.3, 2)
	x := make([]float64, 10)
	for i := range x {
		x[i] = float64(i) - 4.5
	}
	y1 := make([]float64, 10)
	if err := m.MulVec(y1, x); err != nil {
		t.Fatal(err)
	}
	y2 := make([]float64, 10)
	for i := range y2 {
		y2[i] = 3
	}
	if err := m.MulVecAdd(y2, x); err != nil {
		t.Fatal(err)
	}
	for i := range y1 {
		if math.Abs(y2[i]-(y1[i]+3)) > 1e-12 {
			t.Fatalf("y2[%d] = %g, want %g", i, y2[i], y1[i]+3)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := randomCSR(19, 31, 0.15, 3)
	tt := m.Transpose().Transpose()
	if !m.Equal(tt, 0) {
		t.Fatal("transpose twice is not identity")
	}
}

func TestTransposeElementwise(t *testing.T) {
	m := randomCSR(8, 5, 0.4, 4)
	tr := m.Transpose()
	if tr.NRows != 5 || tr.NCols != 8 {
		t.Fatalf("transpose shape %dx%d", tr.NRows, tr.NCols)
	}
	for i := 0; i < m.NRows; i++ {
		for j := 0; j < m.NCols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("A[%d,%d] != At[%d,%d]", i, j, j, i)
			}
		}
	}
}

// Property: (Aᵀx)·y == x·(Ay), the defining adjoint identity.
func TestTransposeAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := seed % 1000
		m := randomCSR(12, 9, 0.3, s)
		rng := rand.New(rand.NewSource(s + 7))
		x := make([]float64, 12)
		y := make([]float64, 9)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		atx := make([]float64, 9)
		ay := make([]float64, 12)
		if err := m.Transpose().MulVec(atx, x); err != nil {
			return false
		}
		if err := m.MulVec(ay, y); err != nil {
			return false
		}
		var lhs, rhs float64
		for i := range atx {
			lhs += atx[i] * y[i]
		}
		for i := range ay {
			rhs += ay[i] * x[i]
		}
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := randomCSR(6, 6, 0.5, 7)
	c := m.Clone()
	if !m.Equal(c, 0) {
		t.Fatal("clone differs")
	}
	c.Val[0] += 10
	if m.Equal(c, 0) {
		t.Fatal("clone shares storage with original")
	}
}

func TestRowLenExtremes(t *testing.T) {
	coo := NewCOO[float64](4, 10)
	for j := 0; j < 7; j++ {
		coo.Add(0, j, 1)
	}
	coo.Add(1, 0, 1)
	coo.Add(2, 0, 1)
	coo.Add(2, 1, 1)
	// row 3 empty
	m := coo.ToCSR()
	if m.MaxRowLen() != 7 {
		t.Errorf("MaxRowLen = %d, want 7", m.MaxRowLen())
	}
	if m.MinRowLen() != 0 {
		t.Errorf("MinRowLen = %d, want 0", m.MinRowLen())
	}
	if got := m.AvgRowLen(); math.Abs(got-2.5) > 1e-15 {
		t.Errorf("AvgRowLen = %g, want 2.5", got)
	}
}

func TestConvertPrecision(t *testing.T) {
	m := randomCSR(10, 10, 0.3, 8)
	sp := Convert[float32](m)
	if sp.Nnz() != m.Nnz() || sp.NRows != m.NRows {
		t.Fatal("conversion changed structure")
	}
	for k := range m.Val {
		if float64(sp.Val[k]) != float64(float32(m.Val[k])) {
			t.Fatalf("val[%d] rounded incorrectly", k)
		}
	}
	back := Convert[float64](sp)
	for k := range back.Val {
		if back.Val[k] != float64(float32(m.Val[k])) {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestDenseFromRowsAndMulVec(t *testing.T) {
	d := DenseFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y := make([]float64, 3)
	if err := d.MulVec(y, []float64{1, -1}); err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, -1, -1}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %g, want %g", i, y[i], want[i])
		}
	}
	if err := d.MulVec(y, []float64{1}); err == nil {
		t.Error("dense MulVec accepted wrong x size")
	}
}

func TestDenseRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	DenseFromRows([][]float64{{1, 2}, {3}})
}

func TestDenseCSRRoundTrip(t *testing.T) {
	m := randomCSR(9, 11, 0.35, 9)
	back := toDense(m).ToCSR()
	if !m.Equal(back, 0) {
		t.Fatal("dense round trip changed matrix")
	}
}
