package hostkernel

import (
	"math"
	"testing"

	"pjds/internal/matgen"
	"pjds/internal/matrix"
)

// TestMulVecParallelMatchesSequential: the blocked CRS kernel at the
// Westmere node's 12 workers agrees with the sequential reference and
// rejects a mis-sized x.
func TestMulVecParallelMatchesSequential(t *testing.T) {
	m := matgen.Banded(5000, 3, 30, 100, 1)
	x := make([]float64, 5000)
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.1)
	}
	ref := make([]float64, 5000)
	if err := m.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	k, err := New(KindBlocked, m, Options{Workers: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	y := make([]float64, 5000)
	if err := k.MulVec(y, x); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if math.Abs(y[i]-ref[i]) > 1e-12*(1+math.Abs(ref[i])) {
			t.Fatalf("y[%d] = %g, want %g", i, y[i], ref[i])
		}
	}
	if err := k.MulVec(y, x[:10]); err == nil {
		t.Error("wrong x size accepted")
	}
}

func TestNnzBalancedChunks(t *testing.T) {
	m := matgen.PowerLaw(1000, 2, 200, 3, 2)
	bounds := Chunks(m.RowPtr, 4)
	if bounds[0] != 0 || bounds[4] != 1000 {
		t.Fatalf("bounds = %v", bounds)
	}
	for w := 0; w < 4; w++ {
		if bounds[w] > bounds[w+1] {
			t.Fatalf("non-monotone bounds %v", bounds)
		}
	}
	// Each chunk carries between 10% and 50% of the non-zeros.
	for w := 0; w < 4; w++ {
		nnz := m.RowPtr[bounds[w+1]] - m.RowPtr[bounds[w]]
		frac := float64(nnz) / float64(m.Nnz())
		if frac < 0.05 || frac > 0.6 {
			t.Errorf("chunk %d carries %.2f of nnz", w, frac)
		}
	}
}

// TestNnzBalancedChunksDegenerate pins the nnz-balanced schedule on the awkward
// inputs: more workers than rows, a run of empty tail rows, every
// non-zero concentrated in a single row, and zero/negative worker
// counts. The invariants are what every caller relies on: bounds are
// monotone, start at 0, end at NRows, and have workers+1 entries
// (workers clamped to ≥ 1).
func TestNnzBalancedChunksDegenerate(t *testing.T) {
	single := matrix.NewCOO[float64](4, 4)
	for j := 0; j < 4; j++ {
		single.Add(1, j, 1) // all nnz in row 1
	}
	tail := matrix.NewCOO[float64](6, 6)
	tail.Add(0, 0, 1)
	tail.Add(1, 1, 1) // rows 2..5 empty
	cases := []struct {
		name    string
		m       *matrix.CSR[float64]
		workers int
	}{
		{"workers_gt_rows", matgen.Banded(3, 1, 2, 1, 5), 9},
		{"empty_tail_rows", tail.ToCSR(), 4},
		{"single_hot_row", single.ToCSR(), 4},
		{"workers_zero", matgen.Banded(5, 1, 2, 1, 5), 0},
		{"workers_negative", matgen.Banded(5, 1, 2, 1, 5), -3},
		{"no_rows", matrix.NewCOO[float64](0, 3).ToCSR(), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bounds := Chunks(tc.m.RowPtr, tc.workers)
			workers := tc.workers
			if workers < 1 {
				workers = 1
			}
			if len(bounds) != workers+1 {
				t.Fatalf("len(bounds) = %d, want %d", len(bounds), workers+1)
			}
			if bounds[0] != 0 || bounds[len(bounds)-1] != tc.m.NRows {
				t.Fatalf("bounds = %v, want 0 .. %d", bounds, tc.m.NRows)
			}
			for w := 0; w+1 < len(bounds); w++ {
				if bounds[w] > bounds[w+1] {
					t.Fatalf("non-monotone bounds %v", bounds)
				}
			}
		})
	}
}

// TestMulVecParallelBitIdentical: the blocked CRS kernel must
// reproduce the naive reference bit for bit at every worker count up
// to the Westmere node's 12, because the per-row summation order never
// changes with the schedule.
func TestMulVecParallelBitIdentical(t *testing.T) {
	m := matgen.PowerLaw(700, 2, 80, 0.7, 9)
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.01)
	}
	ref := make([]float64, m.NRows)
	if err := m.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{1, 2, 4, 8, 12} {
		k, err := New(KindBlocked, m, Options{Workers: cores})
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, m.NRows)
		err = k.MulVec(y, x)
		k.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("cores=%d: y[%d] = %v, reference %v", cores, i, y[i], ref[i])
			}
		}
	}
}
