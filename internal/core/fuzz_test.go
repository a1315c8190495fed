package core

import (
	"math"
	"testing"

	"pjds/internal/matrix"
)

// FuzzPJDSConstruction drives the pJDS builder with fuzzer-shaped
// matrices (dimensions, block height and a raw byte stream that
// decides the sparsity pattern) and checks the format's invariants and
// the kernel against the CRS reference.
func FuzzPJDSConstruction(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(4), []byte{0x11, 0x22, 0x33})
	f.Add(uint8(1), uint8(1), uint8(32), []byte{})
	f.Add(uint8(64), uint8(3), uint8(1), []byte{0xff, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, rows, cols, br uint8, pattern []byte) {
		n := int(rows)%64 + 1
		c := int(cols)%64 + 1
		bh := int(br)%40 + 1
		coo := matrix.NewCOO[float64](n, c)
		for k, b := range pattern {
			if k >= 4*n {
				break
			}
			i := (k * 7 % n)
			j := int(b) % c
			coo.Add(i, j, float64(b)/16+0.25)
		}
		m := coo.ToCSR()
		p, err := NewPJDS(m, Options{BlockHeight: bh})
		if err != nil {
			t.Fatalf("construction failed on valid input: %v", err)
		}
		// Invariants.
		if !p.Perm.Valid() {
			t.Fatal("invalid permutation")
		}
		if p.StoredElems() < int64(m.Nnz()) {
			t.Fatal("stored fewer than nnz")
		}
		cs := p.ColStart()
		for j := 0; j+1 < len(cs); j++ {
			if cs[j] > cs[j+1] {
				t.Fatal("col_start not monotone")
			}
		}
		for i := 1; i < p.N; i++ {
			if p.RowLen[i] > p.RowLen[i-1] {
				t.Fatal("row lengths not sorted")
			}
		}
		// Kernel vs CRS.
		x := make([]float64, c)
		for i := range x {
			x[i] = float64(i%5) - 2
		}
		y := make([]float64, n)
		ref := make([]float64, n)
		if err := p.MulVec(y, x); err != nil {
			t.Fatal(err)
		}
		if err := m.MulVec(ref, x); err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if math.Abs(y[i]-ref[i]) > 1e-9*(1+math.Abs(ref[i])) {
				t.Fatalf("kernel mismatch at %d", i)
			}
		}
	})
}
