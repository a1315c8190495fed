package hostkernel

import (
	"fmt"
	"runtime"

	"pjds/internal/matrix"
	"pjds/internal/par"
	"pjds/internal/profiles"
	"pjds/internal/telemetry"
)

// kernel is the one pooled, metered driver behind every kind. Its work
// units (rows for CRS, slices for SELL and pJDS, strips for CMRS) are
// split once into nnz-balanced contiguous ranges by Chunks over the
// kind's non-zero prefix, one range per worker, and each apply runs the
// kind's body over every worker's range on a persistent par.Pool.
// Units own disjoint rows, so results do not depend on the worker count.
type kernel struct {
	// name is the metered kind; format is the layout it runs
	// ("crs", "SELL-8-256", ...), the label of its profile samples.
	name, format string
	rows, cols   int
	// permuted kernels (pJDS) compute in the stored basis and accept
	// len(y) ≥ rows; the others need len(y) == rows.
	permuted bool
	pool     *par.Pool
	mt       *meter
	job      *job
	runFn    func(w int) // job.run, bound once so Run stays zero-alloc
}

// job is the per-apply state the pool workers read (the pool's channel
// send and WaitGroup give the happens-before edges). It lives apart
// from kernel so runFn holds no path back to the kernel: an object
// that reaches itself is never collected, so its finalizer would never
// release the pool.
type job struct {
	bounds []int
	body   func(y, x []float64, lo, hi int, add bool)
	y, x   []float64
	add    bool
}

func (j *job) run(w int) {
	if lo, hi := j.bounds[w], j.bounds[w+1]; lo < hi {
		j.body(j.y, j.x, lo, hi, j.add)
	}
}

// newKernel builds the driver: prefix[u] is the non-zero count before
// unit u (len = units+1), workers ≤ 0 selects par.Default(), and format
// labels the pool's profile samples.
func newKernel(name, format string, rows, cols, nnz int, prefix []int, workers int, reg *telemetry.Registry, body func(y, x []float64, lo, hi int, add bool)) *kernel {
	workers = max(1, min(par.Resolve(workers), len(prefix)-1))
	j := &job{bounds: Chunks(prefix, workers), body: body}
	k := &kernel{
		name: name, format: format, rows: rows, cols: cols,
		pool:  par.NewPool(workers),
		mt:    newMeter(reg, name, int64(nnz), rows, cols),
		job:   j,
		runFn: j.run,
	}
	if workers > 1 {
		k.pool.Label(profiles.Ctx(profiles.PhaseHost, "kernel", name, "format", k.format))
		runtime.SetFinalizer(k, (*kernel).Close)
	}
	return k
}

// Name implements Kernel.
func (k *kernel) Name() string { return k.name }

// Rows implements Kernel.
func (k *kernel) Rows() int { return k.rows }

// Cols implements Kernel.
func (k *kernel) Cols() int { return k.cols }

// MulVec implements Kernel.
func (k *kernel) MulVec(y, x []float64) error { return k.apply(y, x, false) }

// MulVecAdd implements Kernel.
func (k *kernel) MulVecAdd(y, x []float64) error { return k.apply(y, x, true) }

func (k *kernel) apply(y, x []float64, add bool) error {
	if len(x) != k.cols || len(y) < k.rows || (!k.permuted && len(y) != k.rows) {
		return fmt.Errorf("hostkernel: %s |x|=%d |y|=%d on %dx%d: %w", k.name, len(x), len(y), k.rows, k.cols, matrix.ErrShape)
	}
	t0 := k.mt.start()
	j := k.job
	j.y, j.x, j.add = y, x, add
	k.pool.Run(k.runFn)
	j.y, j.x = nil, nil
	k.mt.observe(t0)
	return nil
}

// Close implements Kernel: it releases the worker pool and disarms
// the finalizer, which is there for kernels dropped without Close. An
// armed finalizer would keep a closed kernel, and the format its body
// reads, alive past the collection that finds it unreachable, until a
// collection after the finalizer has run. Close is idempotent.
func (k *kernel) Close() {
	k.pool.Close()
	runtime.SetFinalizer(k, nil)
}
