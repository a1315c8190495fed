// Package hostkernel is the high-performance CPU spMVM layer: the
// host execution path of the solver, the ECC-downgrade path of the
// device operators, and the CPU ranks of the distributed engine all
// route through it. The GPU numbers of the paper are
// simulator-modeled, but these kernels burn real cycles, so they get
// the same treatment a device kernel would: cache blocking, manual
// unrolling, nnz-balanced static partitioning, and a zero-alloc
// steady state.
//
// Four kernel kinds implement the Kernel interface:
//
//   - naive: the sequential CRS reference (exactly matrix.CSR.MulVec),
//     kept for cross-checks;
//   - blocked: CRS with rows split into nnz-balanced contiguous
//     chunks (one per worker), a bounds-check-free two-row-lockstep
//     inner loop (4 or 8 operand streams wide), and optional cache
//     blocking that walks x in L2-sized column tiles;
//   - sell: a SELL-C-σ kernel over core.SELL (Kreutzer et al.,
//     arXiv:1307.6209): rows are sorted by length in windows of σ and
//     processed C at a time, the chunk height playing the role of the
//     SIMD width;
//   - cmrs: the compressed multi-row storage kernel (Koza et al.,
//     arXiv:1203.2946): strips of consecutive rows share one
//     padding-free CSR-ordered element stream with per-element
//     row-in-strip routing, trading SELL's zero-padding for one
//     metadata byte per non-zero.
//
// NewPJDS runs the same SELL kernel over an existing pJDS matrix (the
// SELL-br-N preset) in the permuted basis: it is the host path of the
// solver's permuted operator and the ECC-downgrade path of the service,
// metered as "pjds".
//
// Every kernel is bit-identical to the naive reference at any worker
// count: floating-point sums are accumulated per row in stored column
// order with a single accumulator, parallelism only ever assigns whole
// rows to workers, and Go never reassociates floating-point expressions.
package hostkernel

import (
	"fmt"
	"sync/atomic"

	"pjds/internal/matrix"
	"pjds/internal/telemetry"
)

// Kernel is one host spMVM execution engine over a fixed matrix.
// MulVec computes y = A·x and MulVecAdd computes y += A·x (the
// accumulate variant the split local/non-local distributed kernels
// use). Both are bit-identical to the matrix.CSR reference kernels.
// Close releases the worker pool; kernels also carry a finalizer, so
// dropping the last reference without Close only delays the release
// to the next GC.
type Kernel interface {
	Name() string
	Rows() int
	Cols() int
	MulVec(y, x []float64) error
	MulVecAdd(y, x []float64) error
	Close()
}

// Kind names a host kernel implementation.
type Kind string

const (
	// KindNaive is the sequential CRS reference kernel.
	KindNaive Kind = "naive"
	// KindBlocked is the cache-blocked, unrolled CRS kernel.
	KindBlocked Kind = "blocked"
	// KindSELL is the SELL-C-σ-style chunked kernel.
	KindSELL Kind = "sell"
	// KindCMRS is the compressed multi-row storage kernel (Koza et
	// al., arXiv:1203.2946): strips of consecutive rows share one
	// padding-free CSR-ordered element stream, with a per-element
	// row-in-strip byte routing products to the right accumulator.
	KindCMRS Kind = "cmrs"
)

// ParseKind resolves a -host-kernel flag value.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case KindNaive, KindBlocked, KindSELL, KindCMRS:
		return Kind(s), nil
	}
	return "", fmt.Errorf("hostkernel: unknown kind %q (want naive, blocked, sell, or cmrs)", s)
}

// Kinds lists all kernel kinds in deterministic report order.
func Kinds() []Kind { return []Kind{KindNaive, KindBlocked, KindSELL, KindCMRS} }

// defaultKind holds the process-wide kernel selection (the CLIs'
// -host-kernel flag). Empty means KindBlocked.
var defaultKind atomic.Value

// SetDefaultKind selects the kernel kind used by callers that do not
// choose one themselves (the solver host path, distmv verification).
func SetDefaultKind(k Kind) error {
	if _, err := ParseKind(string(k)); err != nil {
		return err
	}
	defaultKind.Store(k)
	return nil
}

// DefaultKind returns the process-wide kernel selection.
func DefaultKind() Kind {
	if k, ok := defaultKind.Load().(Kind); ok {
		return k
	}
	return KindBlocked
}

// DefaultTileCols is the recommended x-vector tile width of the
// blocked kernel in elements: 1<<15 doubles = 256 KiB, half a typical
// per-core L2, so a tile of x and the streaming row data coexist.
// Tiling is opt-in (Options.TileCols > 0): the per-row cursor walk
// costs ~2× on short-row matrices, so it only pays when x misses
// cache badly — measure before enabling (see DESIGN.md).
const DefaultTileCols = 1 << 15

// DefaultSigma is the SELL sorting window σ when the caller does not
// set one: local enough to keep the row permutation cache-friendly,
// wide enough to remove most padding.
const DefaultSigma = 256

// Options configure kernel construction. The zero value selects the
// process-default worker count, 4-wide unrolling, the default tile
// width and SELL geometry, and no telemetry.
type Options struct {
	// Workers is the number of row-partition workers; ≤ 0 selects
	// par.Default(). Workers == 1 runs inline with no pool goroutines.
	Workers int
	// Unroll is the inner-loop unroll width: 4 or 8 (0 = 4). For the
	// SELL kernel it is also the default chunk height C.
	Unroll int
	// TileCols is the blocked kernel's x-tile width in elements; ≤ 0
	// leaves column tiling off (the default — it only pays when x
	// badly misses cache; DefaultTileCols is the recommended width
	// when enabling it). Tiling is also disabled automatically when a
	// row's columns are unsorted, because only ascending columns keep
	// the tile-by-tile sum in stored-column order.
	TileCols int
	// C is the SELL chunk height (0 = Unroll). The CMRS kernel reuses
	// it as the strip height (0 = formats.DefaultStripHeight).
	C int
	// Sigma is the SELL sorting window σ (0 = DefaultSigma).
	Sigma int
	// Metrics, when non-nil, receives the host_kernel_* series
	// (gflops/GB/s gauges and bytes/applies counters, labelled by
	// kernel kind). Handles are resolved once at construction so the
	// steady state stays allocation-free.
	Metrics *telemetry.Registry
}

// unroll resolves the unroll width.
func (o Options) unroll() int {
	switch o.Unroll {
	case 0, 4:
		return 4
	case 8:
		return 8
	}
	return 4
}

// New builds a kernel of the given kind over m.
func New(kind Kind, m *matrix.CSR[float64], opt Options) (Kernel, error) {
	switch kind {
	case KindNaive:
		return NewNaive(m, opt), nil
	case KindBlocked:
		return NewBlockedCRS(m, opt), nil
	case KindSELL:
		return NewSELL(m, opt)
	case KindCMRS:
		return NewCMRSKernel(m, opt)
	}
	return nil, fmt.Errorf("hostkernel: unknown kind %q", kind)
}

// MulVec is the one-shot convenience: build the default-kind kernel,
// apply it once, release it. Callers applying the operator repeatedly
// should hold a Kernel instead.
func MulVec(m *matrix.CSR[float64], y, x []float64) error {
	k, err := New(DefaultKind(), m, Options{})
	if err != nil {
		return err
	}
	defer k.Close()
	return k.MulVec(y, x)
}

// Chunks returns workers+1 row boundaries splitting a CSR row-pointer
// array into contiguous chunks of roughly equal non-zero count — the
// static schedule every parallel host kernel shares. Degenerate
// inputs are well-defined: workers < 1 is clamped to 1, workers >
// rows yields trailing empty chunks, rows whose non-zeros dwarf the
// per-worker target (all nnz in one row) simply make their chunk
// heavy and later chunks empty, and empty tail rows land in the last
// chunk. Boundaries are non-decreasing, bounds[0] = 0 and
// bounds[workers] = rows always hold, so every row belongs to exactly
// one chunk and parallel results stay bit-identical to sequential.
func Chunks(rowPtr []int, workers int) []int {
	if workers < 1 {
		workers = 1
	}
	rows := len(rowPtr) - 1
	if rows < 0 {
		rows = 0
	}
	bounds := make([]int, workers+1)
	if rows == 0 {
		return bounds
	}
	total := rowPtr[rows] - rowPtr[0]
	row := 0
	for w := 1; w < workers; w++ {
		target := rowPtr[0] + total*w/workers
		for row < rows && rowPtr[row] < target {
			row++
		}
		bounds[w] = row
	}
	bounds[workers] = rows
	return bounds
}
