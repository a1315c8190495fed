package distsolver

import (
	"errors"
	"math"
	"testing"

	"pjds/internal/distmv"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/mpi"
	"pjds/internal/simnet"
	"pjds/internal/solver"
)

// runDistributed partitions m over p ranks and runs body per rank,
// gathering each rank's output slice into a global vector.
func runDistributed(t *testing.T, m *matrix.CSR[float64], p int,
	body func(c *mpi.Comm, rp *distmv.RankProblem, out []float64) error) ([]float64, []float64) {
	t.Helper()
	pt, err := distmv.PartitionByNnz(m, p)
	if err != nil {
		t.Fatal(err)
	}
	problems, err := distmv.Distribute(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	global := make([]float64, m.NRows)
	clocks, err := mpi.Run(p, simnet.QDRInfiniBand(), func(c *mpi.Comm) error {
		rp := problems[c.Rank()]
		return body(c, rp, global[rp.RowLo:rp.RowHi])
	})
	if err != nil {
		t.Fatal(err)
	}
	return global, clocks
}

func TestOperatorMatchesSerial(t *testing.T) {
	m := matgen.Banded(3000, 4, 14, 150, 1)
	x := make([]float64, m.NRows)
	for i := range x {
		x[i] = math.Sin(0.01 * float64(i))
	}
	ref := make([]float64, m.NRows)
	if err := m.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	got, clocks := runDistributed(t, m, 5, func(c *mpi.Comm, rp *distmv.RankProblem, out []float64) error {
		op := NewOperator(rp, c)
		return op.Apply(out, x[rp.RowLo:rp.RowHi])
	})
	for i := range ref {
		if math.Abs(got[i]-ref[i]) > 1e-12*(1+math.Abs(ref[i])) {
			t.Fatalf("y[%d] = %g, want %g", i, got[i], ref[i])
		}
	}
	for r, cl := range clocks {
		if cl <= 0 {
			t.Errorf("rank %d clock did not advance", r)
		}
	}
}

// TestDistributedDotAndNorm checks the reduction the solve hooks hand
// to the shared solver loops: a local solver.Dot, then an all-reduce.
func TestDistributedDotAndNorm(t *testing.T) {
	m := matgen.Stencil2D(40, 40)
	x := make([]float64, m.NRows)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	var want float64
	for _, v := range x {
		want += v * v
	}
	runDistributed(t, m, 4, func(c *mpi.Comm, rp *distmv.RankProblem, out []float64) error {
		h := (*Instrument)(nil).hooks(c, rp.Rank, "cg", "CG iteration", nil)
		got, err := h.Reduce(solver.Dot(x[rp.RowLo:rp.RowHi], x[rp.RowLo:rp.RowHi]))
		if err != nil {
			return err
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("rank %d: dot = %g, want %g", c.Rank(), got, want)
		}
		if n := math.Sqrt(got); math.Abs(n-math.Sqrt(want)) > 1e-9 {
			t.Errorf("rank %d: norm = %g", c.Rank(), n)
		}
		return nil
	})
}

func TestDistributedCGMatchesSerial(t *testing.T) {
	m := matgen.Stencil2D(40, 40)
	n := m.NRows
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Cos(0.05 * float64(i))
	}
	b := make([]float64, n)
	if err := m.MulVec(b, want); err != nil {
		t.Fatal(err)
	}
	got, _ := runDistributed(t, m, 6, func(c *mpi.Comm, rp *distmv.RankProblem, out []float64) error {
		x := make([]float64, rp.LocalRows())
		res, err := CG(c, rp, x, b[rp.RowLo:rp.RowHi], 1e-11, 5000)
		if err != nil {
			return err
		}
		if res.Iterations == 0 {
			t.Errorf("rank %d: zero iterations", c.Rank())
		}
		copy(out, x)
		return nil
	})
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-7 {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	// The serial CG agrees on the solution (sanity for the reference).
	xs := make([]float64, n)
	if _, err := solver.CG(solver.CSROperator{M: m}, xs, b, 1e-11, 5000); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(xs[i]-got[i]) > 1e-6 {
			t.Fatalf("serial and distributed CG disagree at %d", i)
		}
	}
}

func TestDistributedCGErrors(t *testing.T) {
	m := matgen.Stencil2D(10, 10)
	// Indefinite operator.
	neg := m.Clone()
	for i := range neg.Val {
		neg.Val[i] = -neg.Val[i]
	}
	runDistributed(t, neg, 2, func(c *mpi.Comm, rp *distmv.RankProblem, out []float64) error {
		x := make([]float64, rp.LocalRows())
		b := make([]float64, rp.LocalRows())
		for i := range b {
			b[i] = 1
		}
		if _, err := CG(c, rp, x, b, 1e-10, 50); err == nil {
			t.Errorf("rank %d: indefinite operator accepted", c.Rank())
		}
		return nil
	})
	// Size mismatch.
	runDistributed(t, m, 2, func(c *mpi.Comm, rp *distmv.RankProblem, out []float64) error {
		if _, err := CG(c, rp, make([]float64, 1), make([]float64, rp.LocalRows()), 1e-10, 5); err == nil {
			t.Errorf("rank %d: size mismatch accepted", c.Rank())
		}
		// Everyone still has to meet the collectives the other rank
		// posted? No collectives run before validation — fine.
		return nil
	})
	// Non-convergence.
	runDistributed(t, m, 2, func(c *mpi.Comm, rp *distmv.RankProblem, out []float64) error {
		x := make([]float64, rp.LocalRows())
		b := make([]float64, rp.LocalRows())
		for i := range b {
			b[i] = 1
		}
		_, err := CG(c, rp, x, b, 1e-15, 1)
		if !errors.Is(err, ErrNotConverged) {
			t.Errorf("rank %d: want ErrNotConverged, got %v", c.Rank(), err)
		}
		return nil
	})
}

func TestDistributedPowerIteration(t *testing.T) {
	// Defect-dominated Laplacian (well-separated top eigenvalue).
	m := matgen.Stencil2D(60, 60)
	for k := m.RowPtr[0]; k < m.RowPtr[1]; k++ {
		if m.ColIdx[k] == 0 {
			m.Val[k] = 40
		}
	}
	serial, err := solver.PowerIteration(solver.CSROperator{M: m}, nil, 1e-12, 20000)
	if err != nil {
		t.Fatal(err)
	}
	runDistributed(t, m, 5, func(c *mpi.Comm, rp *distmv.RankProblem, out []float64) error {
		res, err := PowerIteration(c, rp, nil, 1e-12, 20000)
		if err != nil {
			return err
		}
		if math.Abs(res.Eigenvalue-serial.Eigenvalue) > 1e-7*(1+math.Abs(serial.Eigenvalue)) {
			t.Errorf("rank %d: lambda %.10f vs serial %.10f", c.Rank(), res.Eigenvalue, serial.Eigenvalue)
		}
		if len(res.Vector) != rp.LocalRows() {
			t.Errorf("rank %d: vector slice length %d", c.Rank(), len(res.Vector))
		}
		return nil
	})
}

func TestHaloExchangeValidation(t *testing.T) {
	m := matgen.Banded(200, 3, 7, 20, 2)
	runDistributed(t, m, 2, func(c *mpi.Comm, rp *distmv.RankProblem, out []float64) error {
		h := NewHalo(rp, c)
		if _, err := h.Exchange(make([]float64, 3)); err == nil {
			t.Errorf("rank %d: wrong x size accepted", c.Rank())
		}
		// Matching correct exchange so the partner's sends complete.
		x := make([]float64, rp.LocalRows())
		if _, err := h.Exchange(x); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		return nil
	})
}

func TestPowerIterationValidation(t *testing.T) {
	m := matgen.Stencil2D(8, 8)
	runDistributed(t, m, 2, func(c *mpi.Comm, rp *distmv.RankProblem, out []float64) error {
		if _, err := PowerIteration(c, rp, make([]float64, 1), 1e-10, 5); err == nil {
			t.Errorf("rank %d: bad v0 accepted", c.Rank())
		}
		// An all-zero start vector has no direction to normalize.
		if _, err := PowerIteration(c, rp, make([]float64, rp.LocalRows()), 1e-10, 5); err == nil || errors.Is(err, ErrNotConverged) {
			t.Errorf("rank %d: zero v0 not rejected up front: %v", c.Rank(), err)
		}
		return nil
	})
}
