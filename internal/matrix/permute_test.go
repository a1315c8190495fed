package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randPerm(n int, seed int64) Perm {
	rng := rand.New(rand.NewSource(seed))
	p := Identity(n)
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func TestPermValid(t *testing.T) {
	if !Identity(5).Valid() {
		t.Error("identity not valid")
	}
	if (Perm{0, 0, 1}).Valid() {
		t.Error("duplicate accepted")
	}
	if (Perm{0, 3}).Valid() {
		t.Error("out-of-range accepted")
	}
	if (Perm{1, -1}).Valid() {
		t.Error("negative accepted")
	}
	if !(Perm{}).Valid() {
		t.Error("empty permutation should be valid")
	}
}

func TestPermInverse(t *testing.T) {
	f := func(seed int64) bool {
		p := randPerm(20, seed)
		q := p.Inverse()
		for i := range p {
			if q[p[i]] != i || p[q[i]] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatterInverse(t *testing.T) {
	f := func(seed int64) bool {
		p := randPerm(12, seed)
		rng := rand.New(rand.NewSource(seed + 99))
		src := make([]float64, 12)
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		g := Gather(make([]float64, 12), src, p)
		back := Scatter(make([]float64, 12), g, p)
		for i := range src {
			if back[i] != src[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteRows(t *testing.T) {
	m := randomCSR(10, 8, 0.3, 11)
	p := randPerm(10, 12)
	pm := PermuteRows(m, p)
	for i := 0; i < 10; i++ {
		for j := 0; j < 8; j++ {
			if pm.At(i, j) != m.At(p[i], j) {
				t.Fatalf("permuted row %d col %d mismatch", i, j)
			}
		}
	}
}

// Property: (P·A)x == P·(Ax) — permuting rows of the matrix permutes
// the result vector the same way.
func TestPermuteRowsCommutesWithMulVec(t *testing.T) {
	f := func(seed int64) bool {
		m := randomCSR(14, 14, 0.25, seed%97)
		p := randPerm(14, seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		x := make([]float64, 14)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y1 := make([]float64, 14)
		if err := PermuteRows(m, p).MulVec(y1, x); err != nil {
			return false
		}
		y := make([]float64, 14)
		if err := m.MulVec(y, x); err != nil {
			return false
		}
		y2 := Gather(make([]float64, 14), y, p)
		for i := range y1 {
			if math.Abs(y1[i]-y2[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the symmetrically permuted operator satisfies
// (PAPᵀ)(Px) = P(Ax): working entirely in the permuted basis is
// equivalent to working in the original one. This is the §II-A claim
// that Krylov methods can run on the pJDS-permuted matrix.
func TestPermuteSymmetricBasisEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		n := 16
		m := randomCSR(n, n, 0.3, seed%89)
		p := randPerm(n, seed)
		pm := PermuteSymmetric(m, p)
		rng := rand.New(rand.NewSource(seed ^ 0xbeef))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		px := Gather(make([]float64, n), x, p)
		yp := make([]float64, n)
		if err := pm.MulVec(yp, px); err != nil {
			return false
		}
		y := make([]float64, n)
		if err := m.MulVec(y, x); err != nil {
			return false
		}
		py := Gather(make([]float64, n), y, p)
		for i := range yp {
			if math.Abs(yp[i]-py[i]) > 1e-11 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteSymmetricSortedRows(t *testing.T) {
	m := randomCSR(12, 12, 0.4, 21)
	pm := PermuteSymmetric(m, randPerm(12, 22))
	for i := 0; i < pm.NRows; i++ {
		cols, _ := pm.Row(i)
		for k := 1; k < len(cols); k++ {
			if cols[k-1] >= cols[k] {
				t.Fatalf("row %d columns not strictly sorted", i)
			}
		}
	}
}

func TestSortRowsByLengthDesc(t *testing.T) {
	coo := NewCOO[float64](6, 10)
	lens := []int{2, 5, 1, 5, 0, 3}
	for i, l := range lens {
		for j := 0; j < l; j++ {
			coo.Add(i, j, 1)
		}
	}
	m := coo.ToCSR()
	p := SortRowsByLengthDesc(m)
	if !p.Valid() {
		t.Fatal("sort permutation invalid")
	}
	// Descending lengths with stable tie-break: rows 1,3 (len 5), then
	// 5 (3), 0 (2), 2 (1), 4 (0).
	want := Perm{1, 3, 5, 0, 2, 4}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("p = %v, want %v", p, want)
		}
	}
	pm := PermuteRows(m, p)
	for i := 1; i < pm.NRows; i++ {
		if pm.RowLen(i) > pm.RowLen(i-1) {
			t.Fatalf("row lengths not descending at %d", i)
		}
	}
}

func TestSortRowsByLengthDescLarge(t *testing.T) {
	m := randomCSR(500, 300, 0.05, 23)
	p := SortRowsByLengthDesc(m)
	if !p.Valid() {
		t.Fatal("invalid permutation")
	}
	pm := PermuteRows(m, p)
	prev := pm.RowLen(0)
	for i := 1; i < pm.NRows; i++ {
		l := pm.RowLen(i)
		if l > prev {
			t.Fatalf("not descending at row %d", i)
		}
		prev = l
	}
}
