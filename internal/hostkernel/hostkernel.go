// Package hostkernel is the high-performance CPU spMVM layer: the
// host execution path of the solver, the ECC-downgrade path of the
// device operators, and the CPU ranks of the distributed engine all
// route through it. The GPU numbers of the paper are
// simulator-modeled, but these kernels burn real cycles, so they get
// the same treatment a device kernel would: register blocking,
// nnz-balanced static partitioning, and a zero-alloc steady state.
//
// Every kind runs on one driver: the kind supplies a non-zero prefix
// over its work units (rows, slices or strips), which Chunks splits
// into one contiguous range per worker of a persistent par.Pool, and a
// body that computes the rows of one range. Four kinds implement the
// Kernel interface:
//
//   - naive: the sequential CRS reference (matrix.CSR.MulRows on one
//     worker), kept for cross-checks;
//   - blocked: CRS with rows split into nnz-balanced chunks, each
//     running a bounds-check-free two-row-lockstep inner loop;
//   - sell, the default: SELL-C-σ (Kreutzer et al., arXiv:1307.6209) at
//     C = 8 and σ = DefaultSigma: rows are sorted by length in windows
//     of σ and chunked C at a time, and each worker runs core's
//     SELL.MulRows — the one SELL-C-σ loop, also behind the device
//     replay — over its chunks. C = 8 is the AVX-512 width in doubles,
//     so every chunk runs core's eight-lane group kernel where the CPU
//     has one;
//   - cmrs: compressed multi-row storage (Koza et al., arXiv:1203.2946)
//     at core.DefaultStripHeight: strips of consecutive rows share one
//     padding-free CSR-ordered element stream with per-element
//     row-in-strip routing, and each worker runs core's CMRS.MulRows —
//     the one CMRS loop — over its strips.
//
// NewSELLFrom and NewCMRSOver run the same kernels over a layout of any
// geometry (the tuner's sweep); NewPJDS runs the SELL kernel over an
// existing pJDS matrix (the SELL-br-N preset) in the permuted basis:
// it is the host path of the solver's permuted operator and the
// ECC-downgrade path of the service, metered as "pjds".
//
// Every kernel is bit-identical to the naive reference at any worker
// count: floating-point sums are accumulated per row in stored column
// order with a single accumulator, parallelism only ever assigns whole
// rows to workers, and Go never reassociates floating-point expressions.
package hostkernel

import (
	"fmt"
	"sync/atomic"

	"pjds/internal/core"
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
	// KindBlocked is the parallel two-row-lockstep CRS kernel.
	KindBlocked Kind = "blocked"
	// KindSELL is the SELL-C-σ-style chunked kernel.
	KindSELL Kind = "sell"
	// KindCMRS is the compressed multi-row storage kernel (Koza et
	// al., arXiv:1203.2946): strips of consecutive rows share one
	// padding-free CSR-ordered element stream, with a per-element
	// row-in-strip byte naming each element's row.
	KindCMRS Kind = "cmrs"
)

// ParseKind resolves a -host-kernel flag value.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case KindNaive, KindBlocked, KindSELL, KindCMRS:
		return Kind(s), nil
	}
	return "", fmt.Errorf("hostkernel: unknown kind %q (want one of %v)", s, Kinds())
}

// Kinds lists all kernel kinds in deterministic report order.
func Kinds() []Kind { return []Kind{KindNaive, KindBlocked, KindSELL, KindCMRS} }

// defaultKind holds the process-wide kernel selection (the CLIs'
// -host-kernel flag). Empty means the host's default (DefaultKind).
var defaultKind atomic.Value

// SetDefaultKind selects the kernel kind used by callers that do not
// choose one themselves (the distributed operator's host path).
func SetDefaultKind(k Kind) error {
	if _, err := ParseKind(string(k)); err != nil {
		return err
	}
	defaultKind.Store(k)
	return nil
}

// DefaultKind returns the process-wide kernel selection. Unset, it is
// KindSELL where core runs SELL-8's groups on the AVX-512 kernel, else
// KindBlocked: the Go SELL-8 loop loses to blocked CRS on short rows.
func DefaultKind() Kind {
	if k, ok := defaultKind.Load().(Kind); ok {
		return k
	}
	if core.GroupKernel() {
		return KindSELL
	}
	return KindBlocked
}

// DefaultSigma is the sell kind's sorting window σ: local enough to
// keep the row permutation cache-friendly, wide enough to remove most
// padding.
const DefaultSigma = 256

// sellChunk is the sell kind's chunk height C: a multiple of 8, so
// core.SELL.MulRows runs every chunk on its AVX-512 group kernel.
const sellChunk = 8

// Options configure kernel construction. The zero value selects the
// process-default worker count and no telemetry.
type Options struct {
	// Workers is the number of row-partition workers; ≤ 0 selects
	// par.Default(). Workers == 1 runs inline with no pool goroutines.
	// The naive kind always runs on one.
	Workers int
	// Metrics, when non-nil, receives the host_kernel_* series
	// (gflops/GB/s gauges and bytes/applies counters, labelled by
	// kernel kind). Handles are resolved once at construction so the
	// steady state stays allocation-free.
	Metrics *telemetry.Registry
}

// New builds a kernel of the given kind over m.
func New(kind Kind, m *matrix.CSR[float64], opt Options) (Kernel, error) {
	conv := matrix.ConvertOptions{Workers: opt.Workers}
	switch kind {
	case KindNaive:
		return newNaive(m, opt), nil
	case KindBlocked:
		return newBlocked(m, opt), nil
	case KindSELL:
		s, err := core.NewSELL(m, sellChunk, DefaultSigma, conv)
		if err != nil {
			return nil, err
		}
		return NewSELLFrom(s, opt), nil
	case KindCMRS:
		c, err := core.NewCMRSWith(m, core.DefaultStripHeight, conv)
		if err != nil {
			return nil, err
		}
		return NewCMRSOver(c, opt), nil
	}
	return nil, fmt.Errorf("hostkernel: unknown kind %q", kind)
}

// MulVec is the one-shot convenience: build the blocked CRS kernel,
// apply it once, release it. It builds no layout, since a single
// product cannot pay back a sort and a fill. Callers applying the
// operator repeatedly should hold a Kernel instead.
func MulVec(m *matrix.CSR[float64], y, x []float64) error {
	k, err := New(KindBlocked, m, Options{})
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
