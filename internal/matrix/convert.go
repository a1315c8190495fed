package matrix

import (
	"slices"

	"pjds/internal/par"
)

// ConvertOptions configure the parallel ingest-and-convert pipeline:
// how many workers format construction may use, an optional scratch
// arena reused across conversions, and an optional phase timer feeding
// the convert telemetry lane. The zero value selects the process-wide
// default worker count (par.SetDefault, usually a CLI -workers flag),
// no arena, and no instrumentation — and is bit-identical to a
// sequential conversion for any worker count.
type ConvertOptions struct {
	// Workers is the goroutine count for the parallel construction
	// phases; 0 selects the process default, 1 forces sequential.
	Workers int
	// Arena, when non-nil, supplies reusable scratch buffers. See the
	// Arena type for the (non-concurrent) usage contract.
	Arena *Arena
	// Timer, when non-nil, receives one Phase call per pipeline phase
	// ("mm-parse", "csr-assemble", "sell-fill", ...); the returned
	// function is called when the phase ends. internal/convert provides
	// the telemetry-backed implementation.
	Timer PhaseTimer
	// ForceParallel disables the small-problem inline shortcut so the
	// determinism tests can drive the parallel path on tiny fixtures.
	ForceParallel bool
}

// PhaseTimer times named conversion phases. Implementations must be
// safe for sequential use; phases never overlap within one conversion.
type PhaseTimer interface {
	// Phase marks the start of a named phase and returns the function
	// that ends it.
	Phase(name string) func()
}

// Phase starts a named phase on the options' timer, returning a no-op
// closer when no timer is configured.
func (o ConvertOptions) Phase(name string) func() {
	if o.Timer == nil {
		return func() {}
	}
	return o.Timer.Phase(name)
}

// EffectiveWorkers resolves the worker count against the process
// default.
func (o ConvertOptions) EffectiveWorkers() int { return par.Resolve(o.Workers) }

// Run executes fn block-parallel over [0, n) with the options' worker
// count (see par.For for the determinism contract).
func (o ConvertOptions) Run(n int, fn func(w, lo, hi int)) {
	if o.ForceParallel {
		par.ForceFor(o.Workers, n, fn)
		return
	}
	par.For(o.Workers, n, fn)
}

// entrySource streams a deterministic sequence of (row, col, val)
// triples; assembleCSR consumes it twice (counting pass, then
// scatter), and both passes must yield the identical sequence.
type entrySource[T Float] func(yield func(row int, col int32, val T))

// assembleCSR compiles an entry stream into CSR with a counting pass
// and exactly one allocation per output array (no growth-by-append):
//
//  1. count  — one sequential pass increments per-row counts and the
//     prefix sum becomes RowPtr;
//  2. scatter — a second pass writes each entry into its row segment
//     in stream order;
//  3. sort   — rows are sorted by column in parallel, stably in the
//     stream order of duplicates, and duplicates are summed in place;
//  4. compact — only when duplicates shrank rows, a final parallel
//     pass re-packs the arrays (the no-duplicate fast path reuses the
//     scatter arrays as the result).
//
// Duplicate (row, col) pairs are summed in stream order, making the
// result independent of the worker count by construction.
func assembleCSR[T Float](rows, cols, nnz int, src entrySource[T], opt ConvertOptions) *CSR[T] {
	done := opt.Phase("csr-count")
	rowPtr := make([]int, rows+1)
	src(func(r int, c int32, v T) {
		rowPtr[r+1]++
	})
	maxLen := 0
	for i := 0; i < rows; i++ {
		if l := rowPtr[i+1]; l > maxLen {
			maxLen = l
		}
		rowPtr[i+1] += rowPtr[i]
	}
	total := rowPtr[rows]
	done()

	done = opt.Phase("csr-scatter")
	colIdx := make([]int32, total)
	val := make([]T, total)
	next := opt.Arena.Int(rows)
	copy(next, rowPtr[:rows])
	src(func(r int, c int32, v T) {
		p := next[r]
		next[r]++
		colIdx[p] = c
		val[p] = v
	})
	done()

	done = opt.Phase("csr-sort")
	workers := opt.EffectiveWorkers()
	// Per-worker sort scratch: (col, position) keys and a value copy.
	keys := make([][]uint64, workers)
	tmpV := make([][]T, workers)
	for w := range keys {
		keys[w] = opt.Arena.Uint64(maxLen)
		tmpV[w] = Floats[T](opt.Arena, maxLen)
	}
	newLen := opt.Arena.Int(rows)
	opt.Run(rows, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			newLen[i] = sortRowEntries(colIdx, val, rowPtr[i], rowPtr[i+1], keys[w], tmpV[w])
		}
	})
	done()

	compacted := 0
	for i := 0; i < rows; i++ {
		compacted += newLen[i]
	}
	if compacted == total {
		return &CSR[T]{NRows: rows, NCols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	}

	// Duplicates were summed: re-pack the shortened rows.
	done = opt.Phase("csr-compact")
	outPtr := make([]int, rows+1)
	for i := 0; i < rows; i++ {
		outPtr[i+1] = outPtr[i] + newLen[i]
	}
	outCol := make([]int32, compacted)
	outVal := make([]T, compacted)
	opt.Run(rows, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			src, dst := rowPtr[i], outPtr[i]
			n := newLen[i]
			copy(outCol[dst:dst+n], colIdx[src:src+n])
			copy(outVal[dst:dst+n], val[src:src+n])
		}
	})
	done()
	return &CSR[T]{NRows: rows, NCols: cols, RowPtr: outPtr, ColIdx: outCol, Val: outVal}
}

// sortRowEntries sorts one row segment [lo, hi) of (colIdx, val) by
// column — stably in input order for equal columns — and sums
// duplicate columns in place (in input order, so the floating-point
// result is deterministic). It returns the deduplicated length; the
// segment's first return-value entries hold the result.
func sortRowEntries[T Float](colIdx []int32, val []T, lo, hi int, keys []uint64, tmpV []T) int {
	n := hi - lo
	if n <= 1 {
		return n
	}
	// Composite keys (col, input position) give a total order, so an
	// unstable sort is stable in effect.
	keys = keys[:n]
	for k := 0; k < n; k++ {
		keys[k] = uint64(uint32(colIdx[lo+k]))<<32 | uint64(uint32(k))
	}
	slices.Sort(keys)
	tmpV = tmpV[:n]
	copy(tmpV, val[lo:hi])
	w := 0
	for k := 0; k < n; {
		col := int32(keys[k] >> 32)
		sum := tmpV[uint32(keys[k])]
		k++
		for k < n && int32(keys[k]>>32) == col {
			sum += tmpV[uint32(keys[k])]
			k++
		}
		colIdx[lo+w] = col
		val[lo+w] = sum
		w++
	}
	return w
}

// ToCSROpt compiles the COO matrix into CRS form like ToCSR, with
// explicit conversion options (worker count, arena, phase timer). The
// result is bit-identical for every worker count: duplicates are
// summed in insertion order regardless of how rows are distributed
// over workers.
func (m *COO[T]) ToCSROpt(opt ConvertOptions) *CSR[T] {
	return assembleCSR(m.Rows, m.Cols, len(m.Entries), func(yield func(int, int32, T)) {
		for _, e := range m.Entries {
			yield(e.Row, int32(e.Col), e.Val)
		}
	}, opt)
}
