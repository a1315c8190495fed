package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pjds/internal/matrix"
)

// TestCMRSBitIdenticalToCRS: CMRS accumulates each row in CSR element
// order with a single per-row accumulator, which is exactly the naive
// reference summation — results must be bit-identical, not merely
// within tolerance.
func TestCMRSBitIdenticalToCRS(t *testing.T) {
	for _, height := range []int{1, 3, 16, 64} {
		m := randomCSR(257, 190, 0.05, int64(height))
		c, err := NewCMRS(m, height)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 190)
		rng := rand.New(rand.NewSource(99))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ref := make([]float64, 257)
		if err := m.MulVec(ref, x); err != nil {
			t.Fatal(err)
		}
		y := make([]float64, 257)
		if err := c.MulVec(y, x); err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if y[i] != ref[i] {
				t.Fatalf("height=%d: y[%d] = %x, want %x (bit mismatch)", height, i, y[i], ref[i])
			}
		}
	}
}

// TestCMRSMulRowsAccumulate: MulRows over a strip range writes every
// row of those strips, empty ones included, so under add a −0 in y
// becomes −0 + 0 = +0 exactly as under CRS; rows outside the range
// stay untouched.
func TestCMRSMulRowsAccumulate(t *testing.T) {
	m := randomCSR(101, 70, 0.02, 5) // ~1.4 nnz per row: many empty rows
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	seed := func() []float64 {
		y := make([]float64, m.NRows)
		for i := range y {
			y[i] = float64(i) - 50
			if i%3 == 0 {
				y[i] = math.Copysign(0, -1)
			}
		}
		return y
	}
	for _, height := range []int{1, 16, 32} {
		c, err := NewCMRS(m, height)
		if err != nil {
			t.Fatal(err)
		}
		slo, shi := 1, c.NStrips-1
		lo, hi := slo*height, min(shi*height, m.NRows)
		empty := 0
		for i := lo; i < hi; i++ {
			if m.RowPtr[i] == m.RowPtr[i+1] && i%3 == 0 {
				empty++
			}
		}
		if empty == 0 {
			t.Fatalf("height=%d: no empty row seeded with −0 in the range", height)
		}
		for _, add := range []bool{false, true} {
			want, got := seed(), seed()
			m.MulRows(want, x, lo, hi, add)
			c.MulRows(got, x, slo, shi, add)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("height=%d add=%v: y[%d] = %v, CRS %v", height, add, i, got[i], want[i])
				}
			}
		}
	}
}

func TestCMRSGeometry(t *testing.T) {
	m := randomCSR(100, 80, 0.05, 21)
	c, err := NewCMRS(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	if c.Height != 16 || c.NStrips != (100+15)/16 {
		t.Errorf("Height=%d NStrips=%d", c.Height, c.NStrips)
	}
	if int(c.StripPtr[c.NStrips]) != m.Nnz() {
		t.Errorf("StripPtr end %d, want nnz %d", c.StripPtr[c.NStrips], m.Nnz())
	}
	// Every element's absolute row must land inside its strip and the
	// stream must be the CSR stream verbatim (no padding, no reorder).
	e := 0
	for i := 0; i < m.NRows; i++ {
		cols, vals := m.Row(i)
		for k := range vals {
			strip := 0
			for int64(e) >= c.StripPtr[strip+1] {
				strip++
			}
			if strip*16+int(c.RowInStrip[e]) != i {
				t.Fatalf("element %d: strip %d offset %d, want row %d", e, strip, c.RowInStrip[e], i)
			}
			if c.Val[e] != vals[k] || int(c.ColIdx[e]) != int(cols[k]) {
				t.Fatalf("element %d not the CSR stream", e)
			}
			e++
		}
	}
	if def, err := NewCMRS(m, 0); err != nil || def.Height != DefaultStripHeight {
		t.Errorf("default height: %v %v", def, err)
	}
}

func TestCMRSValidation(t *testing.T) {
	m := randomCSR(40, 40, 0.1, 5)
	if _, err := NewCMRS(m, -1); err == nil {
		t.Error("negative height accepted")
	}
	if _, err := NewCMRS(m, MaxStripHeight+1); err == nil {
		t.Error("oversized height accepted")
	}
	c, err := NewCMRS(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MulVec(make([]float64, 40), make([]float64, 3)); err == nil {
		t.Error("short x accepted")
	}
	if err := c.MulVec(make([]float64, 3), make([]float64, 40)); err == nil {
		t.Error("short y accepted")
	}
}

// TestCMRSEmptyRowsAndTail: empty rows must produce exact zeros and a
// final partial strip must not read out of bounds.
func TestCMRSEmptyRowsAndTail(t *testing.T) {
	coo := matrix.NewCOO[float64](37, 20)
	for i := 0; i < 37; i += 3 { // rows 1,2 mod 3 stay empty
		coo.Add(i, i%20, float64(i)+1)
	}
	m := coo.ToCSR()
	c, err := NewCMRS(m, 8) // 37 rows → 5 strips, last covers 5 rows
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 20)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, 37)
	if err := c.MulVec(y, x); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		want := 0.0
		if i%3 == 0 {
			want = float64(i) + 1
		}
		if y[i] != want {
			t.Errorf("y[%d] = %g, want %g", i, y[i], want)
		}
	}
}

// TestCMRSWorkerDeterminism: the parallel strip fill must be
// bit-identical to the sequential build at any worker count.
func TestCMRSWorkerDeterminism(t *testing.T) {
	m := randomCSR(500, 300, 0.03, 17)
	base, err := NewCMRSWith(m, 16, matrix.ConvertOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for w := 2; w <= 8; w++ {
		par, err := NewCMRSWith(m, 16, matrix.ConvertOptions{Workers: w, ForceParallel: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, par) {
			t.Fatalf("workers=%d: CMRS differs from sequential build", w)
		}
	}
}

// TestCMRSResetMatchesNew: a CMRS layout rebuilt in place by Reset,
// over buffers filled with garbage to their full capacity, equals a
// fresh NewCMRSWith as the matrices grow and then shrink.
func TestCMRSResetMatchesNew(t *testing.T) {
	var c CMRS[float64]
	for k, tc := range []struct {
		rows, cols, height int
		density            float64
	}{{0, 0, 8, 0}, {40, 30, 8, 0.1}, {317, 290, 32, 0.04}, {120, 80, 16, 0.05}, {9, 7, 4, 0.3}} {
		m := randomCSR(tc.rows, tc.cols, tc.density, int64(k))
		c.Val = c.Val[:cap(c.Val)]
		for i := range c.Val {
			c.Val[i] = math.NaN()
		}
		c.ColIdx = c.ColIdx[:cap(c.ColIdx)]
		for i := range c.ColIdx {
			c.ColIdx[i] = -1
		}
		c.RowInStrip = c.RowInStrip[:cap(c.RowInStrip)]
		for i := range c.RowInStrip {
			c.RowInStrip[i] = 0xff
		}
		c.StripPtr = c.StripPtr[:cap(c.StripPtr)]
		for i := range c.StripPtr {
			c.StripPtr[i] = -1
		}
		opt := matrix.ConvertOptions{Workers: 2, ForceParallel: true}
		if err := c.Reset(m, tc.height, opt); err != nil {
			t.Fatal(err)
		}
		want, err := NewCMRSWith(m, tc.height, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&c, want) {
			t.Fatalf("%dx%d h=%d: Reset %+v, NewCMRSWith %+v", tc.rows, tc.cols, tc.height, c, *want)
		}
	}
}
