package core

import (
	"math"
	"reflect"
	"testing"

	"pjds/internal/matrix"
)

func TestSELLName(t *testing.T) {
	cases := []struct {
		c, sigma, n int
		want        string
	}{
		{32, 1000, 1000, "SELL-32-∞"},
		{32, 2000, 1000, "SELL-32-∞"},
		{8, 256, 1000, "SELL-8-256"},
		{4, 1, 1000, "SELL-4-1"},
		{4, 0, 1000, "SELL-4-1"},
	}
	for _, tc := range cases {
		if got := SELLName(tc.c, tc.sigma, tc.n); got != tc.want {
			t.Errorf("SELLName(%d, %d, %d) = %q, want %q", tc.c, tc.sigma, tc.n, got, tc.want)
		}
	}
}

// TestSELLPJDSEquivalence checks the SELL-32-∞ preset against pJDS:
// same row permutation, same stored-element count — the format
// identity pJDS = SELL-32-∞ from arXiv:1307.6209 (§II of DESIGN.md's
// tuner section).
func TestSELLPJDSEquivalence(t *testing.T) {
	m := randomCSR(300, 300, 0.05, 7)
	s, err := newSliced(m, 32, m.NRows)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPJDS(m)
	if err != nil {
		t.Fatal(err)
	}
	if s.SELLName() != "SELL-32-∞" {
		t.Errorf("SELLName = %q", s.SELLName())
	}
	if !reflect.DeepEqual(s.Perm, p.Perm) {
		t.Error("SELL-32-∞ permutation differs from pJDS global sort")
	}
	if s.StoredElems() != p.StoredElems() {
		t.Errorf("stored elems: SELL-32-∞ %d, pJDS %d", s.StoredElems(), p.StoredElems())
	}
}

// TestSELLC1MatchesUnsortedSliced pins the SELL-C-1 preset to the
// original unsorted sliced-ELLPACK.
func TestSELLC1MatchesUnsortedSliced(t *testing.T) {
	m := randomCSR(200, 180, 0.05, 3)
	a, err := NewSELL(m, 8, 1, matrix.ConvertOptions{Workers: 3, ForceParallel: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSliced(m, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("parallel SELL-C-1 differs from the sequential build")
	}
	if a.SELLName() != "SELL-8-1" {
		t.Errorf("SELLName = %q", a.SELLName())
	}
}

// TestZeroPaddingMonotoneInSigma: widening the sorting window can only
// shrink (never grow) the padding β, and padding-free formats report 0.
func TestZeroPaddingMonotoneInSigma(t *testing.T) {
	m := randomCSR(512, 512, 0.03, 11)
	prev := math.Inf(1)
	for _, sigma := range []int{1, 32, 128, 512} {
		s, err := newSliced(m, 16, sigma)
		if err != nil {
			t.Fatal(err)
		}
		beta := s.PaddingOverhead()
		if beta < 0 {
			t.Fatalf("sigma=%d: beta %g < 0", sigma, beta)
		}
		if beta > prev+1e-12 {
			t.Errorf("sigma=%d: beta %g grew from %g", sigma, beta, prev)
		}
		occ := ChunkOccupancy[float64](s)
		if math.Abs(occ*(1+beta)-1) > 1e-9 {
			t.Errorf("sigma=%d: occupancy %g does not invert 1+beta %g", sigma, occ, 1+beta)
		}
		prev = beta
	}
	if got := ZeroPadding[float64](NewCRS(m)); got != 0 {
		t.Errorf("CRS beta = %g, want 0", got)
	}
	c, err := NewCMRS(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.StoredElems(); got != int64(m.Nnz()) {
		t.Errorf("CMRS stored %d, want nnz %d", got, m.Nnz())
	}
	if got := ZeroPadding[float64](c); got != 0 {
		t.Errorf("CMRS beta = %g, want 0", got)
	}
}

// TestEstimateBetaExact: the length-array estimate must equal the
// stored slots and β of the layout it predicts, for every clamping
// corner (σ unaligned to C, σ ≥ n, σ = 1), whichever σ was sorted
// first.
func TestEstimateBetaExact(t *testing.T) {
	m := randomCSR(317, 290, 0.04, 23)
	lens := make([]int, m.NRows)
	for i := range lens {
		lens[i] = m.RowLen(i)
	}
	p := NewPadding(lens)
	for _, tc := range []struct{ c, sigma int }{
		{4, 1}, {8, 100}, {16, 250}, {32, 317}, {32, 1000}, {6, 50}, {8, 104}, {4, 100},
	} {
		s, err := newSliced(m, tc.c, tc.sigma)
		if err != nil {
			t.Fatal(err)
		}
		stored, beta := p.Estimate(tc.c, tc.sigma)
		if stored != s.StoredElems() {
			t.Errorf("C=%d σ=%d: estimated %d stored slots, layout %d", tc.c, tc.sigma, stored, s.StoredElems())
		}
		if math.Abs(beta-s.PaddingOverhead()) > 1e-12 {
			t.Errorf("C=%d σ=%d: estimate %g, layout %g", tc.c, tc.sigma, beta, s.PaddingOverhead())
		}
	}
}
