package hostkernel

import (
	"pjds/internal/core"
	"pjds/internal/matrix"
)

// NewSELLFrom builds the SELL-C-σ kernel (Kreutzer et al.,
// arXiv:1307.6209) over an existing layout, computing in the original
// basis: each stored row i writes y[Perm[i]], so no scatter pass runs.
// Slices are split nnz-balanced over the workers, and each worker runs
// core's SELL.MulRows — the one SELL-C-σ loop, also behind the device
// replay — over its slices. The kernel reads s at every apply, so s
// must not be Reset before the kernel is closed.
func NewSELLFrom(s *core.SELL[float64], opt Options) Kernel {
	return newSELL(s, string(KindSELL), s.Perm, opt)
}

// NewPJDS builds the SELL kernel over an existing pJDS matrix (the
// SELL-br-N preset). It is the host execution engine of the solver's
// permuted operator (and therefore of the ECC-downgrade path): it
// computes in the pJDS-permuted basis exactly like
// core.PJDS.MulVecPermuted, accepts len(y) ≥ N, and meters under the
// label "pjds".
func NewPJDS(p *core.PJDS[float64], opt Options) Kernel {
	k := newSELL(&p.SELL, "pjds", nil, opt)
	k.permuted = true
	return k
}

// newSELL runs s.MulRows over slice ranges, scattering through perm
// (nil computes in the stored basis).
func newSELL(s *core.SELL[float64], name string, perm matrix.Perm, opt Options) *kernel {
	c := s.C
	// A prefix sum of true per-slice non-zeros feeds the shared Chunks
	// schedule at slice granularity.
	prefix := make([]int, len(s.SliceLen)+1)
	for sl := range s.SliceLen {
		nnz := 0
		for lane := 0; lane < c; lane++ {
			nnz += int(s.RowLen[sl*c+lane])
		}
		prefix[sl+1] = prefix[sl] + nnz
	}
	return newKernel(name, s.SELLName(), s.N, s.NCols, s.Nnz, prefix, opt.Workers, opt.Metrics,
		func(y, x []float64, lo, hi int, add bool) {
			s.MulRows(y, x, lo*c, min(hi*c, s.N), perm, add)
		})
}
