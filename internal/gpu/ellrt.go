package gpu

import (
	"fmt"

	"pjds/internal/core"
	"pjds/internal/formats"
	"pjds/internal/matrix"
)

// RunELLRT executes the ELLR-T spMVM: T threads cooperate on each row,
// so a warp covers warpSize/T rows and finishes in ceil(maxLen/T)
// SIMT steps, followed by a log2(T) intra-warp reduction. More warps
// per row count means better latency hiding on small matrices — the
// tuned alternative the paper contrasts pJDS against.
func RunELLRT[T matrix.Float](d *Device, e *formats.ELLRT[T], y, x []T, opt RunOptions) (*KernelStats, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(x) != e.NCols || len(y) != e.N {
		return nil, fmt.Errorf("gpu: ELLR-T run |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), e.N, e.NCols, matrix.ErrShape)
	}
	if err := eccCheck(opt, e.Name()); err != nil {
		return nil, err
	}
	tpr := e.ThreadsPerRow
	ws := d.WarpSize
	if ws%tpr != 0 {
		return nil, fmt.Errorf("gpu: ELLR-T T=%d does not divide warp size %d", tpr, ws)
	}
	es := core.SizeofElem[T]()
	st := &KernelStats{Kernel: e.Name(), Rows: e.N, Nnz: int64(e.NnzV), UsefulFlops: 2 * int64(e.NnzV), ElemBytes: es}
	segShift := log2(d.SegmentBytes)
	segBytes := int64(d.SegmentBytes)
	secShift := log2(d.GatherSectorBytes)
	secBytes := int64(d.GatherSectorBytes)
	l2 := newCache(d.L2, d.GatherSectorBytes)
	var valSegs, idxSegs, rhsSegs segCounter
	rowsPerWarp := ws / tpr
	sum := make([]T, rowsPerWarp)
	redSteps := int64(0)
	for 1<<redSteps < tpr {
		redSteps++
	}

	for wbase := 0; wbase < e.NPad; wbase += rowsPerWarp {
		st.Warps++
		rows := rowsPerWarp
		if wbase+rows > e.NPad {
			rows = e.NPad - wbase
		}
		maxLen := 0
		for r := 0; r < rows; r++ {
			if l := int(e.RowLen[wbase+r]); l > maxLen {
				maxLen = l
			}
		}
		if maxLen > 0 {
			st.ActiveWarps++
		}
		for r := range sum {
			sum[r] = 0
		}
		steps := (maxLen + tpr - 1) / tpr
		// Cooperative iterations plus the intra-warp reduction.
		st.WarpSteps += int64(steps) + redSteps
		st.BytesMeta += segBytes // rowLen load
		for jj := 0; jj < steps; jj++ {
			valSegs.reset()
			idxSegs.reset()
			rhsSegs.reset()
			for lane := 0; lane < rows*tpr; lane++ {
				row := wbase + lane/tpr
				t := lane % tpr
				j := jj*tpr + t
				if j >= int(e.RowLen[row]) {
					continue
				}
				at := jj*e.NPad*tpr + row*tpr + t
				c := e.ColIdx[at]
				sum[lane/tpr] += e.Val[at] * x[c]
				st.ExecutedLaneSteps++
				valSegs.add(addrVal+int64(at)*int64(es), segShift)
				idxSegs.add(addrIdx+int64(at)*4, segShift)
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
		hi := wbase + rows
		if hi > e.N {
			hi = e.N
		}
		st.BytesLHS += lhsBytes(wbase, hi, es, segShift, segBytes, opt.Accumulate)
		storeResult(y, sum, wbase, e.N, opt.Accumulate)
	}
	st.finish(d, ws)
	st.Publish(opt.Metrics, opt.MetricLabels...)
	return st, nil
}
