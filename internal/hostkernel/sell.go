package hostkernel

import (
	"fmt"
	"runtime"

	"pjds/internal/core"
	"pjds/internal/matrix"
	"pjds/internal/par"
	"pjds/internal/profiles"
)

// SELL is the SELL-C-σ chunked host kernel (Kreutzer et al.,
// arXiv:1307.6209) over a core.SELL layout: rows are sorted by
// descending length inside windows of σ rows and stored in chunks of C
// consecutive rows padded to the chunk maximum. Chunks are split
// nnz-balanced over the workers, and each worker runs core's
// SELL.MulRows over its chunks: groups of 8 (then 4) lanes advance in
// lockstep, as one AVX-512 gather kernel where the CPU has it. Each
// lane sums its row in stored column order and padding is never
// touched, so results are bit-identical to the naive reference.
type SELL struct {
	s      *core.SELL[float64]
	name   string
	bounds []int // per-worker slice ranges, nnz-balanced
	pool   *par.Pool
	mt     *meter
	// permuted kernels compute in the stored (sorted) basis, writing
	// y[i]; the others scatter each stored row i to y[Perm[i]].
	permuted bool

	y, x  []float64
	add   bool
	runFn func(w int)
}

// NewSELL converts m into a SELL-C-σ layout with chunk height C
// (0 = the unroll width) and sorting window σ (0 = DefaultSigma) and
// builds the kernel over it. It computes in the original basis.
func NewSELL(m *matrix.CSR[float64], opt Options) (*SELL, error) {
	c := opt.C
	if c == 0 {
		c = opt.unroll()
	}
	sigma := opt.Sigma
	if sigma == 0 {
		sigma = DefaultSigma
	}
	s, err := core.NewSELL(m, c, sigma, matrix.ConvertOptions{Workers: opt.Workers})
	if err != nil {
		return nil, err
	}
	return NewSELLFrom(s, opt), nil
}

// NewSELLFrom builds the SELL kernel over an existing layout, computing
// in the original basis like NewSELL; opt.C and opt.Sigma are unused.
// The kernel reads s at every apply, so s must not be Reset before the
// kernel is closed.
func NewSELLFrom(s *core.SELL[float64], opt Options) *SELL {
	return newSELLKernel(s, string(KindSELL), false, opt)
}

// NewPJDS builds the SELL kernel over an existing pJDS matrix. It is
// the host execution engine of the solver's permuted operator (and
// therefore of the ECC-downgrade path): it computes in the
// pJDS-permuted basis exactly like core.PJDS.MulVecPermuted, accepts
// len(y) ≥ N, and meters under the label "pjds".
func NewPJDS(p *core.PJDS[float64], opt Options) *SELL {
	return newSELLKernel(&p.SELL, "pjds", true, opt)
}

func newSELLKernel(s *core.SELL[float64], name string, permuted bool, opt Options) *SELL {
	c := s.C
	nSlices := len(s.SliceLen)
	workers := par.Resolve(opt.Workers)
	if workers > nSlices {
		workers = nSlices
	}
	if workers < 1 {
		workers = 1
	}
	// nnz-balanced chunking at slice granularity: a prefix sum of true
	// per-slice non-zeros feeds the shared Chunks schedule.
	prefix := make([]int, nSlices+1)
	for sl := 0; sl < nSlices; sl++ {
		nnz := 0
		for lane := 0; lane < c; lane++ {
			nnz += int(s.RowLen[sl*c+lane])
		}
		prefix[sl+1] = prefix[sl] + nnz
	}
	k := &SELL{
		s:        s,
		name:     name,
		bounds:   Chunks(prefix, workers),
		mt:       newMeter(opt.Metrics, name, int64(s.Nnz), s.N, s.NCols),
		permuted: permuted,
	}
	k.runFn = k.run
	if workers > 1 {
		k.pool = par.NewPool(workers)
		k.pool.Label(profiles.Ctx(profiles.PhaseHost, "kernel", name, "format", s.SELLName()))
		runtime.SetFinalizer(k, (*SELL).Close)
	}
	return k
}

// Layout exposes the underlying SELL layout (reporting: padding
// overhead, footprint).
func (k *SELL) Layout() *core.SELL[float64] { return k.s }

// Name implements Kernel.
func (k *SELL) Name() string { return k.name }

// Rows implements Kernel.
func (k *SELL) Rows() int { return k.s.N }

// Cols implements Kernel.
func (k *SELL) Cols() int { return k.s.NCols }

// MulVec implements Kernel: y = A·x (each stored row i writes
// y[Perm[i]], so no separate scatter pass runs), or yp = Ap·xp for the
// permuted pJDS kernel.
func (k *SELL) MulVec(y, x []float64) error { return k.apply(y, x, false) }

// MulVecAdd implements Kernel.
func (k *SELL) MulVecAdd(y, x []float64) error { return k.apply(y, x, true) }

func (k *SELL) apply(y, x []float64, add bool) error {
	if len(x) != k.s.NCols || len(y) < k.s.N || (!k.permuted && len(y) != k.s.N) {
		return fmt.Errorf("hostkernel: %s |x|=%d |y|=%d on %dx%d: %w", k.name, len(x), len(y), k.s.N, k.s.NCols, matrix.ErrShape)
	}
	t0 := k.mt.start()
	k.y, k.x, k.add = y, x, add
	if k.pool != nil {
		k.pool.Run(k.runFn)
	} else {
		k.run(0)
	}
	k.y, k.x = nil, nil
	k.mt.observe(t0)
	return nil
}

// run executes worker w's slice range. Slices are units, so every
// stored row — and through the bijective Perm every output element —
// is written by exactly one worker.
func (k *SELL) run(w int) {
	var perm matrix.Perm
	if !k.permuted {
		perm = k.s.Perm
	}
	c := k.s.C
	k.s.MulRows(k.y, k.x, k.bounds[w]*c, min(k.bounds[w+1]*c, k.s.N), perm, k.add)
}

// Close implements Kernel: releases the worker pool.
func (k *SELL) Close() {
	if k.pool != nil {
		runtime.SetFinalizer(k, nil)
		k.pool.Close()
	}
}
