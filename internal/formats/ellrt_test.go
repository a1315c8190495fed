package formats

import (
	"math"
	"testing"
	"testing/quick"

	"math/rand"

	"pjds/internal/matrix"
)

func TestELLRTMatchesReference(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 8, 16, 32} {
		m := randomCSR(120, 100, 0.08, int64(threads))
		e, err := NewELLRT(m, threads)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 100)
		rng := rand.New(rand.NewSource(int64(threads) + 40))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, 120)
		ref := make([]float64, 120)
		if err := e.MulVec(y, x); err != nil {
			t.Fatal(err)
		}
		if err := m.MulVec(ref, x); err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if math.Abs(y[i]-ref[i]) > 1e-11 {
				t.Fatalf("T=%d: y[%d] = %g, want %g", threads, i, y[i], ref[i])
			}
		}
	}
}

func TestELLRTValidation(t *testing.T) {
	m := randomCSR(10, 10, 0.3, 1)
	for _, bad := range []int{0, -1, 3, 5, 7, 33, 64} {
		if _, err := NewELLRT(m, bad); err == nil {
			t.Errorf("T=%d accepted", bad)
		}
	}
	e, err := NewELLRT(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.MulVec(make([]float64, 10), make([]float64, 9)); err == nil {
		t.Error("wrong x size accepted")
	}
	if e.Name() != "ELLR-T(4)" {
		t.Errorf("name %q", e.Name())
	}
}

func TestELLRTStorageGeometry(t *testing.T) {
	// MaxRowLen 7 with T=4 pads iterations to 8.
	coo := matrix.NewCOO[float64](10, 20)
	for j := 0; j < 7; j++ {
		coo.Add(0, j, 1)
	}
	coo.Add(1, 0, 1)
	m := coo.ToCSR()
	e, err := NewELLRT(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if e.MaxLenPadded != 8 {
		t.Errorf("padded len = %d, want 8", e.MaxLenPadded)
	}
	if e.StoredElems() != int64(e.NPad)*8 {
		t.Errorf("stored = %d", e.StoredElems())
	}
	// T=1 degenerates to ELLPACK-R geometry.
	e1, err := NewELLRT(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := newELLR(m)
	if e1.StoredElems() != r.StoredElems() {
		t.Errorf("T=1 stored %d != ELLPACK-R %d", e1.StoredElems(), r.StoredElems())
	}
}

// Property: the interleaved index mapping is a bijection onto the
// storage for every legal T.
func TestELLRTIndexBijective(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed & 0xffff))
		threads := []int{1, 2, 4, 8, 16, 32}[rng.Intn(6)]
		m := randomCSR(40, 40, 0.2, seed&0xff)
		e, err := NewELLRT(m, threads)
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		for i := 0; i < e.NPad; i++ {
			for j := 0; j < e.MaxLenPadded; j++ {
				at := e.index(i, j)
				if at < 0 || at >= len(e.Val) || seen[at] {
					return false
				}
				seen[at] = true
			}
		}
		return len(seen) == len(e.Val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
