package distmv

import (
	"errors"
	"maps"
	"testing"

	"pjds/internal/matgen"
	"pjds/internal/mpi"
	"pjds/internal/simnet"
)

// runHalo distributes m over p ranks and runs body on every rank with
// its rank problem and the global x the test exchanges.
func runHalo(t *testing.T, p int, body func(c *mpi.Comm, rp *RankProblem, x []float64) error) {
	t.Helper()
	m := matgen.Banded(200, 3, 7, 20, 2)
	pt, err := PartitionByNnz(m, p)
	if err != nil {
		t.Fatal(err)
	}
	problems, err := Distribute(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	x := testVec(m.NCols)
	if _, err := mpi.Run(p, simnet.QDRInfiniBand(), func(c *mpi.Comm) error {
		return body(c, problems[c.Rank()], x)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestHaloExchangeValidation(t *testing.T) {
	runHalo(t, 2, func(c *mpi.Comm, rp *RankProblem, x []float64) error {
		h := rp.Halo(c)
		if _, err := h.Exchange(make([]float64, 3)); err == nil {
			t.Errorf("rank %d: wrong x size accepted", c.Rank())
		}
		// Matching correct exchange so the partner's sends complete.
		halo, err := h.Exchange(x[rp.RowLo:rp.RowHi])
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return nil
		}
		for k, col := range rp.HaloCols {
			if halo[k] != x[col] {
				t.Errorf("rank %d: halo[%d] = %g, want x[%d] = %g", c.Rank(), k, halo[k], col, x[col])
			}
		}
		return nil
	})
}

// TestHaloSizeError: a message whose element count differs from the
// partition's RecvCount for its source fails Wait with *HaloSizeError.
func TestHaloSizeError(t *testing.T) {
	runHalo(t, 2, func(c *mpi.Comm, rp *RankProblem, x []float64) error {
		peer := 1 - c.Rank()
		if c.Rank() == 0 {
			bad := *rp
			bad.RecvCount = maps.Clone(rp.RecvCount)
			bad.RecvCount[peer]++
			rp = &bad
		}
		h := rp.Halo(c)
		h.Gather()
		if err := h.Post(x[rp.RowLo:rp.RowHi]); err != nil {
			return err
		}
		_, err := h.Wait()
		if c.Rank() != 0 {
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
			}
			return nil
		}
		var hs *HaloSizeError
		if !errors.As(err, &hs) {
			t.Errorf("rank 0: Wait = %v, want *HaloSizeError", err)
			return nil
		}
		if want := rp.RecvCount[peer]; hs.Rank != 0 || hs.Src != peer || hs.WantElems != want || hs.GotElems != want-1 {
			t.Errorf("rank 0: %+v, want src %d carrying %d of %d elements", *hs, peer, want-1, want)
		}
		return nil
	})
}
