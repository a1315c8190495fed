package gpu

import (
	"fmt"

	"pjds/internal/core"
	"pjds/internal/matrix"
)

// CSR plan sources: kernels compiled straight from the CSR arrays as
// stored. Two are Bell & Garland's (the paper's reference [1]) — the
// baselines whose weaknesses motivated GPU-specific formats like
// ELLPACK and, in turn, pJDS:
//
//   - CSR-scalar: one thread per row walking its compressed row. Each
//     lane reads from a different position of the val/colidx streams,
//     so a warp's loads are completely uncoalesced — the classic
//     failure mode.
//   - CSR-vector: one warp per row; the 32 lanes stride the row
//     jointly, restoring coalescing, but short rows leave most lanes
//     idle and each row pays a reduction.
//
// Both take the row pointers as the chunk starts, and a row is one
// group of one lane (scalar) or of a whole warp (vector).
//
// The third is ELLPACK-R (Listing 1) for a kernel that runs once: the
// plan is the one RunSELL compiles on core.NewELLPACKR(m), device
// addresses included, but each lane reads its column indices from its
// CSR row, so no padded layout is built (§II-C: a conversion pays only
// when many spMVMs reuse it).
//
// The numeric replay of all three is the sequential CRS row sum, so y
// is bit-identical to CRS up to NaN payload.

// RunCSRScalar executes the one-thread-per-row CSR spMVM.
func RunCSRScalar[T matrix.Float](d *Device, m *matrix.CSR[T], y, x []T, opt RunOptions) (*KernelStats, error) {
	return runCSR(d, m, y, x, opt, "CSR-scalar", func(src *planSource[T]) {
		// Lane i walks row i: chunk 1 starting at RowPtr[i].
		src.nPad, src.chunk, src.group = m.NRows, 1, 1
		src.chunkStart = rowStarts(m)
		src.metaSegs = 1 // row-pointer load
		src.mul = laneRows(d, m)
	})
}

// RunCSRVector executes the one-warp-per-row CSR spMVM.
func RunCSRVector[T matrix.Float](d *Device, m *matrix.CSR[T], y, x []T, opt RunOptions) (*KernelStats, error) {
	return runCSR(d, m, y, x, opt, "CSR-vector", func(src *planSource[T]) {
		// Warp i strides row i: lane t touches RowPtr[i] + t + j·ws.
		ws := d.WarpSize
		src.nPad, src.chunk, src.group = m.NRows*ws, ws, ws
		src.chunkStart = rowStarts(m)
		src.metaSegs = 1 // the row's two row pointers, one segment
		src.reduceSteps = int64(log2(ws))
		src.lhsRows = func(wbase, lanes int) (int, int) { return wbase / ws, wbase/ws + 1 }
		src.mul = func(y, x []T, wlo, whi int, accumulate bool) {
			m.MulRows(y, x, wlo, whi, accumulate)
		}
	})
}

// RunELLPACKR executes the ELLPACK-R spMVM of core.NewELLPACKR(m)
// without building the layout: the stats equal RunSELL's on it, and y
// is bit-identical up to NaN payload. Callers that replay one matrix
// many times, or read the layout itself, should build it and call
// RunSELL instead.
func RunELLPACKR[T matrix.Float](d *Device, m *matrix.CSR[T], y, x []T, opt RunOptions) (*KernelStats, error) {
	return runCSR(d, m, y, x, opt, "ELLPACK-R", func(src *planSource[T]) {
		// One column-major chunk of NPad lanes, as the layout stores
		// it; lane i stops at its row length.
		npad := core.ELLPACKHeight(m.NRows)
		src.nPad, src.chunk, src.group = npad, npad, 1
		src.chunkStart = []int64{0}
		src.rowPtr = m.RowPtr
		src.metaSegs = 1 // rowmax[]
		src.mul = laneRows(d, m)
	})
}

// rowStarts returns m's row pointers as chunk starts.
func rowStarts[T matrix.Float](m *matrix.CSR[T]) []int64 {
	starts := make([]int64, m.NRows)
	for i := range starts {
		starts[i] = int64(m.RowPtr[i])
	}
	return starts
}

// laneRows is the numeric replay of a one-lane-per-row source: warp w
// computes rows [w·ws, (w+1)·ws) clipped to the matrix.
func laneRows[T matrix.Float](d *Device, m *matrix.CSR[T]) func(y, x []T, wlo, whi int, accumulate bool) {
	ws := d.WarpSize
	return func(y, x []T, wlo, whi int, accumulate bool) {
		m.MulRows(y, x, min(wlo*ws, m.NRows), min(whi*ws, m.NRows), accumulate)
	}
}

// runCSR validates a CSR kernel launch and replays its plan; shape sets
// the kernel-specific fields of the plan source, and lens gets one
// entry per lane group, the row lengths followed by zeros.
func runCSR[T matrix.Float](d *Device, m *matrix.CSR[T], y, x []T, opt RunOptions, kernel string, shape func(*planSource[T])) (*KernelStats, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(x) != m.NCols || len(y) != m.NRows {
		return nil, fmt.Errorf("gpu: %s run |x|=%d |y|=%d on %dx%d: %w", kernel, len(x), len(y), m.NRows, m.NCols, matrix.ErrShape)
	}
	if err := eccCheck(opt, kernel); err != nil {
		return nil, err
	}
	p, ps := planFor(opt, d, m, kernel, func() *Plan[T] {
		src := planSource[T]{
			kernel: kernel, rows: m.NRows, cols: m.NCols,
			nnz: int64(m.Nnz()), col: m.ColIdx,
		}
		shape(&src)
		src.lens = make([]int32, src.nPad/src.group)
		for i := range m.NRows {
			src.lens[i] = int32(m.RowLen(i))
		}
		return compilePlan(d, src)
	})
	return p.run(d, y, x, opt, ps), nil
}
