package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// scrambledBanded builds a banded matrix and hides the band behind a
// random symmetric permutation — the classic RCM test case.
func scrambledBanded(n, band int, seed int64) *CSR[float64] {
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO[float64](n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
		for k := 0; k < 3; k++ {
			j := i + 1 + rng.Intn(band)
			if j < n {
				coo.Add(i, j, 1)
				coo.Add(j, i, 1)
			}
		}
	}
	m := coo.ToCSR()
	p := Identity(n)
	rng.Shuffle(n, func(a, b int) { p[a], p[b] = p[b], p[a] })
	return PermuteSymmetric(m, p)
}

func TestRCMReducesBandwidth(t *testing.T) {
	m := scrambledBanded(800, 5, 1)
	before := ComputeStats(m).Bandwidth
	p := RCM(m)
	if !p.Valid() {
		t.Fatal("invalid RCM permutation")
	}
	after := ComputeStats(PermuteSymmetric(m, p)).Bandwidth
	if after >= before/4 {
		t.Errorf("bandwidth %d → %d: expected a strong reduction", before, after)
	}
}

func TestRCMPreservesSpMVM(t *testing.T) {
	m := scrambledBanded(300, 4, 2)
	p := RCM(m)
	pm := PermuteSymmetric(m, p)
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 300)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	// (PAPᵀ)(Px) == P(Ax).
	px := Gather(make([]float64, 300), x, p)
	yp := make([]float64, 300)
	if err := pm.MulVec(yp, px); err != nil {
		t.Fatal(err)
	}
	y := make([]float64, 300)
	if err := m.MulVec(y, x); err != nil {
		t.Fatal(err)
	}
	py := Gather(make([]float64, 300), y, p)
	for i := range yp {
		if d := yp[i] - py[i]; d > 1e-10 || d < -1e-10 {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestRCMHandlesDisconnectedComponents(t *testing.T) {
	// Two blocks with no coupling.
	coo := NewCOO[float64](10, 10)
	for i := 0; i < 5; i++ {
		coo.Add(i, i, 1)
		if i > 0 {
			coo.Add(i, i-1, 1)
			coo.Add(i-1, i, 1)
		}
	}
	for i := 5; i < 10; i++ {
		coo.Add(i, i, 1)
	}
	p := RCM(coo.ToCSR())
	if !p.Valid() {
		t.Fatalf("invalid permutation %v", p)
	}
}

func TestRCMEmptyAndDiagonal(t *testing.T) {
	if len(RCM(NewCOO[float64](0, 0).ToCSR())) != 0 {
		t.Error("empty matrix")
	}
	// Pure diagonal: any valid permutation is fine.
	coo := NewCOO[float64](6, 6)
	for i := 0; i < 6; i++ {
		coo.Add(i, i, 1)
	}
	if !RCM(coo.ToCSR()).Valid() {
		t.Error("diagonal matrix permutation invalid")
	}
}

// Property: RCM always yields a valid permutation and never increases
// the bandwidth of an already optimally-ordered banded matrix by more
// than the band itself.
func TestRCMPropertyValid(t *testing.T) {
	f := func(seed int64) bool {
		m := scrambledBanded(60+int(seed&31), 3, seed&0xff)
		p := RCM(m)
		return p.Valid() && ComputeStats(PermuteSymmetric(m, p)).Bandwidth <= ComputeStats(m).Bandwidth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRCMOnNonsymmetricPattern(t *testing.T) {
	// Strictly upper bidiagonal: symmetrization must connect the chain.
	coo := NewCOO[float64](50, 50)
	for i := 0; i < 49; i++ {
		coo.Add(i, i+1, 1)
	}
	for i := 0; i < 50; i++ {
		coo.Add(i, i, 2)
	}
	m := coo.ToCSR()
	p := RCM(m)
	if !p.Valid() {
		t.Fatal("invalid permutation")
	}
	if bw := ComputeStats(PermuteSymmetric(m, p)).Bandwidth; bw > 2 {
		t.Errorf("chain bandwidth after RCM = %d", bw)
	}
}
