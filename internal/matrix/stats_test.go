package matrix

import (
	"math"
	"testing"
)

// ladder builds a matrix whose row i has exactly lens[i] leading
// non-zeros.
func ladder(lens []int, cols int) *CSR[float64] {
	coo := NewCOO[float64](len(lens), cols)
	for i, l := range lens {
		for j := 0; j < l; j++ {
			coo.Add(i, j, float64(i+j+1))
		}
	}
	return coo.ToCSR()
}

func TestComputeStats(t *testing.T) {
	m := ladder([]int{4, 2, 2, 8}, 10)
	s := ComputeStats(m)
	if s.Rows != 4 || s.Cols != 10 || s.Nnz != 16 {
		t.Fatalf("basic counts wrong: %+v", s)
	}
	if s.MaxRowLen != 8 || s.MinRowLen != 2 {
		t.Errorf("max/min = %d/%d", s.MaxRowLen, s.MinRowLen)
	}
	if math.Abs(s.AvgRowLen-4) > 1e-15 {
		t.Errorf("avg = %g", s.AvgRowLen)
	}
	if math.Abs(s.RelativeWidth-4) > 1e-15 {
		t.Errorf("width = %g", s.RelativeWidth)
	}
	// Variance of {4,2,2,8} about mean 4: (0+4+4+16)/4 = 6.
	if math.Abs(s.RowLenStdDev-math.Sqrt(6)) > 1e-12 {
		t.Errorf("stddev = %g", s.RowLenStdDev)
	}
	// Row 3 spans columns 0..7, |3-0| .. |3-7| → bandwidth from row 0:
	// |0-3|=3; row 3: |3-7|=4... bandwidth = max|i-j| = 4 (row 0 col 3
	// gives 3; row 3 col 7 gives 4).
	if s.Bandwidth != 4 {
		t.Errorf("bandwidth = %d, want 4", s.Bandwidth)
	}
	// Col spans: 3,1,1,7 → mean 3.
	if math.Abs(s.AvgColSpan-3) > 1e-15 {
		t.Errorf("avg col span = %g", s.AvgColSpan)
	}
}

func TestComputeStatsEmptyRowWidth(t *testing.T) {
	m := ladder([]int{0, 3}, 5)
	s := ComputeStats(m)
	if !math.IsInf(s.RelativeWidth, 1) {
		t.Errorf("width with empty row = %g, want +Inf", s.RelativeWidth)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
	zero := ComputeStats(NewCOO[float64](0, 0).ToCSR())
	if zero.Nnz != 0 || zero.AvgRowLen != 0 {
		t.Errorf("zero matrix stats: %+v", zero)
	}
}

func TestRowLenHistogram(t *testing.T) {
	m := ladder([]int{3, 1, 3, 3, 0, 1}, 5)
	h := RowLenHistogram(m)
	want := []int{1, 2, 0, 3}
	if len(h) != len(want) {
		t.Fatalf("histogram length %d, want %d", len(h), len(want))
	}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("h[%d] = %d, want %d", i, h[i], want[i])
		}
	}
	// Histogram mass equals row count.
	total := 0
	for _, c := range h {
		total += c
	}
	if total != m.NRows {
		t.Errorf("histogram mass %d != rows %d", total, m.NRows)
	}
}
