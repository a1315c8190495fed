package hostkernel

import (
	"fmt"
	"runtime"

	"pjds/internal/core"
	"pjds/internal/matrix"
	"pjds/internal/par"
	"pjds/internal/profiles"
)

// CMRSKernel is the compressed multi-row storage host kernel (Koza et
// al., arXiv:1203.2946). The matrix stream is the CSR stream verbatim
// — no padding, no reordering — cut into strips of Height consecutive
// rows; each element carries a row-in-strip byte that routes its
// product into one of Height strip-local accumulators. Because a row's
// elements are consecutive inside its strip, accumulating in element
// order is the per-row single-accumulator stored-column-order sum, so
// results are bit-identical to the naive reference at any worker
// count (workers own whole strips, strips own disjoint rows).
type CMRSKernel struct {
	c      *core.CMRS[float64]
	bounds []int       // per-worker strip ranges, nnz-balanced
	acc    [][]float64 // per-worker strip-local accumulators (len Height)
	pool   *par.Pool
	mt     *meter

	y, x  []float64
	add   bool
	runFn func(w int)
}

// NewCMRSKernel converts m into a CMRS layout with strip height
// Options.C (0 = core.DefaultStripHeight) and builds the kernel.
func NewCMRSKernel(m *matrix.CSR[float64], opt Options) (*CMRSKernel, error) {
	c, err := core.NewCMRSWith(m, opt.C, matrix.ConvertOptions{Workers: opt.Workers})
	if err != nil {
		return nil, err
	}
	return NewCMRSOver(c, opt)
}

// NewCMRSOver builds the kernel over an existing CMRS layout.
func NewCMRSOver(c *core.CMRS[float64], opt Options) (*CMRSKernel, error) {
	workers := par.Resolve(opt.Workers)
	if workers > c.NStrips {
		workers = c.NStrips
	}
	if workers < 1 {
		workers = 1
	}
	// StripPtr is already the nnz prefix sum at strip granularity —
	// feed it to the shared schedule directly.
	prefix := make([]int, c.NStrips+1)
	for s := range prefix {
		prefix[s] = int(c.StripPtr[s])
	}
	k := &CMRSKernel{
		c:      c,
		bounds: Chunks(prefix, workers),
		acc:    make([][]float64, workers),
		mt:     newMeter(opt.Metrics, string(KindCMRS), int64(c.NnzV), c.N, c.NCols),
	}
	for w := range k.acc {
		k.acc[w] = make([]float64, c.Height)
	}
	k.runFn = k.run
	if workers > 1 {
		k.pool = par.NewPool(workers)
		k.pool.Label(profiles.Ctx(profiles.PhaseHost, "kernel", string(KindCMRS), "format", "cmrs"))
		runtime.SetFinalizer(k, (*CMRSKernel).Close)
	}
	return k, nil
}

// Layout exposes the underlying CMRS (reporting: footprint, geometry).
func (k *CMRSKernel) Layout() *core.CMRS[float64] { return k.c }

// Name implements Kernel.
func (k *CMRSKernel) Name() string { return string(KindCMRS) }

// Rows implements Kernel.
func (k *CMRSKernel) Rows() int { return k.c.N }

// Cols implements Kernel.
func (k *CMRSKernel) Cols() int { return k.c.NCols }

// MulVec implements Kernel: y = A·x in the original basis (CMRS never
// permutes rows).
func (k *CMRSKernel) MulVec(y, x []float64) error { return k.apply(y, x, false) }

// MulVecAdd implements Kernel.
func (k *CMRSKernel) MulVecAdd(y, x []float64) error { return k.apply(y, x, true) }

func (k *CMRSKernel) apply(y, x []float64, add bool) error {
	if len(x) != k.c.NCols || len(y) != k.c.N {
		return fmt.Errorf("hostkernel: cmrs |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), k.c.N, k.c.NCols, matrix.ErrShape)
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

// run executes worker w's strip range: one front-to-back walk of the
// strip's element stream into the worker's accumulators, then a
// scatter of at most Height sums.
func (k *CMRSKernel) run(w int) {
	c, x, y, acc := k.c, k.x, k.y, k.acc[w]
	val, idx, ris := c.Val, c.ColIdx, c.RowInStrip
	for s := k.bounds[w]; s < k.bounds[w+1]; s++ {
		base := s * c.Height
		rows := c.Height
		if base+rows > c.N {
			rows = c.N - base
		}
		a := acc[:rows]
		for r := range a {
			a[r] = 0
		}
		for e := c.StripPtr[s]; e < c.StripPtr[s+1]; e++ {
			a[ris[e]] += val[e] * x[idx[e]]
		}
		if k.add {
			for r := range a {
				y[base+r] += a[r]
			}
		} else {
			for r := range a {
				y[base+r] = a[r]
			}
		}
	}
}

// Close implements Kernel: releases the worker pool.
func (k *CMRSKernel) Close() {
	if k.pool != nil {
		runtime.SetFinalizer(k, nil)
		k.pool.Close()
	}
}
