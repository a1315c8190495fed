package matrix

import (
	"math"
	"testing"
)

func TestAddMatrices(t *testing.T) {
	a := randomCSR(8, 7, 0.3, 82)
	b := randomCSR(8, 7, 0.3, 83)
	sum, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 7; j++ {
			want := a.At(i, j) + b.At(i, j)
			if math.Abs(sum.At(i, j)-want) > 1e-14 {
				t.Fatalf("sum at (%d,%d)", i, j)
			}
		}
	}
	// Columns stay sorted.
	for i := 0; i < sum.NRows; i++ {
		cols, _ := sum.Row(i)
		for k := 1; k < len(cols); k++ {
			if cols[k-1] >= cols[k] {
				t.Fatal("unsorted row after Add")
			}
		}
	}
	if _, err := Add(a, randomCSR(3, 3, 0.5, 84)); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestSymmetrize(t *testing.T) {
	m := randomCSR(10, 10, 0.2, 85)
	s, err := Symmetrize(m)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(s.Transpose(), 1e-14) {
		t.Error("result not symmetric")
	}
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			want := (m.At(i, j) + m.At(j, i)) / 2
			if math.Abs(s.At(i, j)-want) > 1e-14 {
				t.Fatalf("value at (%d,%d)", i, j)
			}
		}
	}
	if _, err := Symmetrize(NewCOO[float64](2, 3).ToCSR()); err == nil {
		t.Error("rectangular accepted")
	}
}
