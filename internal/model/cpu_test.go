package model

import (
	"testing"

	"pjds/internal/matgen"
	"pjds/internal/matrix"
)

func TestWestmereValidate(t *testing.T) {
	if err := WestmereEP().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := WestmereEP()
	bad.Cores = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid node accepted")
	}
	if _, err := bad.EstimateCRS(matgen.Stencil2D(4, 4)); err == nil {
		t.Error("estimate on invalid node accepted")
	}
}

func TestEstimateCRSBandedVsRandom(t *testing.T) {
	n := WestmereEP()
	banded := matgen.Banded(200000, 10, 20, 200, 3)
	random := matgen.Random(200000, 10, 20, 3)
	sb, err := n.EstimateCRS(banded)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := n.EstimateCRS(random)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Alpha >= sr.Alpha {
		t.Errorf("banded alpha %.2f not below random alpha %.2f", sb.Alpha, sr.Alpha)
	}
	if sb.GFlops <= sr.GFlops {
		t.Errorf("banded %.2f GF/s not above random %.2f", sb.GFlops, sr.GFlops)
	}
	if sb.CodeBalance < 6 || sb.CodeBalance > 11 {
		t.Errorf("code balance %.2f outside CRS DP window", sb.CodeBalance)
	}
}

// TestWestmereTableILevel: on the paper's matrices the Westmere CRS
// row of Table I sits at 3.9–5.8 GF/s; the model should land in that
// neighbourhood (generated matrices, scaled down — α only improves
// with smaller vectors, so allow a generous upper band).
func TestWestmereTableILevel(t *testing.T) {
	n := WestmereEP()
	for _, name := range []string{"DLR1", "sAMG"} {
		tm, err := matgen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m := tm.Generate(0.1, 4)
		s, err := n.EstimateCRS(m)
		if err != nil {
			t.Fatal(err)
		}
		if s.GFlops < 3 || s.GFlops > 8 {
			t.Errorf("%s: Westmere CRS %.1f GF/s, Table I band is 3.9–5.8", name, s.GFlops)
		}
	}
}

func TestEstimateEmptyMatrix(t *testing.T) {
	n := WestmereEP()
	empty := matrix.NewCOO[float64](10, 10).ToCSR()
	s, err := n.EstimateCRS(empty)
	if err != nil {
		t.Fatal(err)
	}
	if s.Alpha != 0 || s.GFlops != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

// TestEstimateCRSPinned pins the Westmere estimate of Table I's last
// row bit for bit on three generator matrices. The third has a 32 MB
// RHS, larger than the 24 MB LLC, so the LRU's evictions (and the
// re-fetches of evicted lines under random access) are exercised.
func TestEstimateCRSPinned(t *testing.T) {
	for _, tc := range []struct {
		name           string
		gen            func() *matrix.CSR[float64]
		bytes          int64
		alpha, seconds float64
	}{
		{"banded", func() *matrix.CSR[float64] { return matgen.Banded(200000, 10, 20, 200, 3) },
			42412972, 0x1.10f7e2f925c65p-04, 0x1.15f528c440f87p-10},
		{"random", func() *matrix.CSR[float64] { return matgen.Random(200000, 10, 20, 3) },
			42394876, 0x1.111b04955ee2p-04, 0x1.15d6cc98031d7p-10},
		{"random-beyond-llc", func() *matrix.CSR[float64] { return matgen.Random(4_000_000, 1, 2, 5) },
			220257948, 0x1.168e40acc9603p+00, 0x1.68dee11566ec1p-08},
	} {
		s, err := WestmereEP().EstimateCRS(tc.gen())
		if err != nil {
			t.Fatal(err)
		}
		if s.BytesTotal != tc.bytes || s.Alpha != tc.alpha || s.Seconds != tc.seconds {
			t.Errorf("%s: bytes %d alpha %x seconds %x, pinned %d %x %x",
				tc.name, s.BytesTotal, s.Alpha, s.Seconds, tc.bytes, tc.alpha, tc.seconds)
		}
	}
}
