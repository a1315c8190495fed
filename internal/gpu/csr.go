package gpu

import (
	"fmt"

	"pjds/internal/matrix"
)

// CSR kernels after Bell & Garland (the paper's reference [1]) — the
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
// Both are plan sources over the CSR arrays as stored: the row
// pointers are the chunk starts, and a row is one group of one lane
// (scalar) or of a whole warp (vector). The numeric replay is the
// sequential CRS row sum, so y is bit-identical to CRS.

// RunCSRScalar executes the one-thread-per-row CSR spMVM.
func RunCSRScalar[T matrix.Float](d *Device, m *matrix.CSR[T], y, x []T, opt RunOptions) (*KernelStats, error) {
	return runCSR(d, m, y, x, opt, "CSR-scalar", func(src *planSource[T]) {
		// Lane i walks row i: chunk 1 starting at RowPtr[i].
		ws := d.WarpSize
		src.nPad, src.chunk, src.group = m.NRows, 1, 1
		src.metaSegs = 1 // row-pointer load
		src.mul = func(y, x []T, wlo, whi int, accumulate bool) {
			m.MulRows(y, x, min(wlo*ws, m.NRows), min(whi*ws, m.NRows), accumulate)
		}
	})
}

// RunCSRVector executes the one-warp-per-row CSR spMVM. Its model
// charges no row-pointer load, unlike CSR-scalar's; DESIGN.md records
// why that should become one segment per warp.
func RunCSRVector[T matrix.Float](d *Device, m *matrix.CSR[T], y, x []T, opt RunOptions) (*KernelStats, error) {
	return runCSR(d, m, y, x, opt, "CSR-vector", func(src *planSource[T]) {
		// Warp i strides row i: lane t touches RowPtr[i] + t + j·ws.
		ws := d.WarpSize
		src.nPad, src.chunk, src.group = m.NRows*ws, ws, ws
		src.reduceSteps = int64(log2(ws))
		src.lhsRows = func(wbase, lanes int) (int, int) { return wbase / ws, wbase/ws + 1 }
		src.mul = func(y, x []T, wlo, whi int, accumulate bool) {
			m.MulRows(y, x, wlo, whi, accumulate)
		}
	})
}

// runCSR validates a CSR kernel launch and replays its plan; shape sets
// the kernel-specific fields of the plan source.
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
			lens:       make([]int32, m.NRows),
			chunkStart: make([]int64, m.NRows),
		}
		for i := range src.lens {
			src.lens[i] = int32(m.RowLen(i))
			src.chunkStart[i] = int64(m.RowPtr[i])
		}
		shape(&src)
		return compilePlan(d, src)
	})
	return p.run(d, y, x, opt, ps), nil
}
