package gpu

import (
	"fmt"

	"pjds/internal/core"
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

// RunCSRScalar executes the one-thread-per-row CSR spMVM.
func RunCSRScalar[T matrix.Float](d *Device, m *matrix.CSR[T], y, x []T, opt RunOptions) (*KernelStats, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(x) != m.NCols || len(y) != m.NRows {
		return nil, fmt.Errorf("gpu: CSR-scalar run |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), m.NRows, m.NCols, matrix.ErrShape)
	}
	if err := eccCheck(opt, "CSR-scalar"); err != nil {
		return nil, err
	}
	es := core.SizeofElem[T]()
	st := &KernelStats{Kernel: "CSR-scalar", Rows: m.NRows, Nnz: int64(m.Nnz()), UsefulFlops: 2 * int64(m.Nnz()), ElemBytes: es}
	ws := d.WarpSize
	segShift := log2(d.SegmentBytes)
	segBytes := int64(d.SegmentBytes)
	secShift := log2(d.GatherSectorBytes)
	secBytes := int64(d.GatherSectorBytes)
	l2 := newCache(d.L2, d.GatherSectorBytes)
	var valSegs, idxSegs, rhsSegs segCounter
	sum := make([]T, ws)

	for wbase := 0; wbase < m.NRows; wbase += ws {
		st.Warps++
		lanes := ws
		if wbase+lanes > m.NRows {
			lanes = m.NRows - wbase
		}
		maxLen := 0
		for lane := 0; lane < lanes; lane++ {
			if l := m.RowLen(wbase + lane); l > maxLen {
				maxLen = l
			}
		}
		if maxLen > 0 {
			st.ActiveWarps++
		}
		st.WarpSteps += int64(maxLen)
		st.BytesMeta += segBytes // row-pointer load
		clear(sum)
		for j := 0; j < maxLen; j++ {
			valSegs.reset()
			idxSegs.reset()
			rhsSegs.reset()
			for lane := 0; lane < lanes; lane++ {
				i := wbase + lane
				lo := m.RowPtr[i]
				if j >= m.RowPtr[i+1]-lo {
					continue
				}
				k := lo + j
				c := m.ColIdx[k]
				sum[lane] += m.Val[k] * x[c]
				st.ExecutedLaneSteps++
				// Lane k positions are scattered across the compressed
				// stream: every lane usually hits its own segment.
				valSegs.add(addrVal+int64(k)*int64(es), segShift)
				idxSegs.add(addrIdx+int64(k)*4, segShift)
				rhsSegs.add(addrRHS+int64(c)*int64(es), secShift)
			}
			st.BytesVal += int64(len(valSegs.segs)) * segBytes
			st.BytesIdx += int64(len(idxSegs.segs)) * segBytes
			for _, sec := range rhsSegs.segs {
				st.RHSProbes++
				if !l2.Probe(sec << secShift) {
					st.RHSMisses++
					st.BytesRHS += secBytes
				}
			}
		}
		hi := wbase + lanes
		st.BytesLHS += lhsBytes(wbase, hi, es, segShift, segBytes, opt.Accumulate)
		storeResult(y, sum[:lanes], wbase, m.NRows, opt.Accumulate)
	}
	st.finish(d, ws)
	st.Publish(opt.Metrics, opt.MetricLabels...)
	return st, nil
}

// RunCSRVector executes the one-warp-per-row CSR spMVM.
func RunCSRVector[T matrix.Float](d *Device, m *matrix.CSR[T], y, x []T, opt RunOptions) (*KernelStats, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(x) != m.NCols || len(y) != m.NRows {
		return nil, fmt.Errorf("gpu: CSR-vector run |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), m.NRows, m.NCols, matrix.ErrShape)
	}
	if err := eccCheck(opt, "CSR-vector"); err != nil {
		return nil, err
	}
	es := core.SizeofElem[T]()
	st := &KernelStats{Kernel: "CSR-vector", Rows: m.NRows, Nnz: int64(m.Nnz()), UsefulFlops: 2 * int64(m.Nnz()), ElemBytes: es}
	ws := d.WarpSize
	segShift := log2(d.SegmentBytes)
	segBytes := int64(d.SegmentBytes)
	secShift := log2(d.GatherSectorBytes)
	secBytes := int64(d.GatherSectorBytes)
	l2 := newCache(d.L2, d.GatherSectorBytes)
	var valSegs, idxSegs, rhsSegs segCounter
	redSteps := int64(log2(ws))

	for i := 0; i < m.NRows; i++ {
		st.Warps++
		lo, hiK := m.RowPtr[i], m.RowPtr[i+1]
		if hiK > lo {
			st.ActiveWarps++
		}
		steps := (hiK - lo + ws - 1) / ws
		st.WarpSteps += int64(steps) + redSteps
		var sum T
		for s := 0; s < steps; s++ {
			valSegs.reset()
			idxSegs.reset()
			rhsSegs.reset()
			for lane := 0; lane < ws; lane++ {
				k := lo + s*ws + lane
				if k >= hiK {
					break
				}
				c := m.ColIdx[k]
				sum += m.Val[k] * x[c]
				st.ExecutedLaneSteps++
				valSegs.add(addrVal+int64(k)*int64(es), segShift)
				idxSegs.add(addrIdx+int64(k)*4, segShift)
				rhsSegs.add(addrRHS+int64(c)*int64(es), secShift)
			}
			st.BytesVal += int64(len(valSegs.segs)) * segBytes
			st.BytesIdx += int64(len(idxSegs.segs)) * segBytes
			for _, sec := range rhsSegs.segs {
				st.RHSProbes++
				if !l2.Probe(sec << secShift) {
					st.RHSMisses++
					st.BytesRHS += secBytes
				}
			}
		}
		if opt.Accumulate {
			y[i] += sum
		} else {
			y[i] = sum
		}
		st.BytesLHS += lhsBytes(i, i+1, es, segShift, segBytes, opt.Accumulate)
	}
	st.finish(d, ws)
	st.Publish(opt.Metrics, opt.MetricLabels...)
	return st, nil
}
