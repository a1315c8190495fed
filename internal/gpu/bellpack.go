package gpu

import (
	"fmt"

	"pjds/internal/core"
	"pjds/internal/matrix"
)

// RunBELLPACK executes the blocked-ELLPACK spMVM: one thread per
// scalar row; at block slot j each lane walks its block's BC columns,
// with the column-major intra-block layout keeping the BR lanes of a
// block coalesced. One block-column index serves BR·BC values, which
// is the format's whole point — the index stream shrinks by the block
// area (reference [2]'s structure-aware advantage over pJDS).
func RunBELLPACK[T matrix.Float](d *Device, e *core.BELLPACK[T], y, x []T, opt RunOptions) (*KernelStats, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(x) != e.NCols || len(y) != e.N {
		return nil, fmt.Errorf("gpu: BELLPACK run |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), e.N, e.NCols, matrix.ErrShape)
	}
	if err := eccCheck(opt, e.Name()); err != nil {
		return nil, err
	}
	es := core.SizeofElem[T]()
	st := &KernelStats{Kernel: e.Name(), Rows: e.N, Nnz: int64(e.NnzV), UsefulFlops: 2 * int64(e.NnzV), ElemBytes: es}
	ws := d.WarpSize
	segShift := log2(d.SegmentBytes)
	segBytes := int64(d.SegmentBytes)
	secShift := log2(d.GatherSectorBytes)
	secBytes := int64(d.GatherSectorBytes)
	l2 := newCache(d.L2, d.GatherSectorBytes)
	var valSegs, idxSegs, rhsSegs segCounter
	sum := make([]T, ws)
	scalarRows := e.BlockRowsPad * e.BR

	for wbase := 0; wbase < scalarRows; wbase += ws {
		st.Warps++
		lanes := ws
		if wbase+lanes > scalarRows {
			lanes = scalarRows - wbase
		}
		maxBlocks := 0
		for lane := 0; lane < lanes; lane++ {
			b := (wbase + lane) / e.BR
			if b < len(e.BlockLen) {
				if l := int(e.BlockLen[b]); l > maxBlocks {
					maxBlocks = l
				}
			}
		}
		if maxBlocks > 0 {
			st.ActiveWarps++
		}
		for l := range sum {
			sum[l] = 0
		}
		// Each block slot costs BC SIMT steps (one per block column).
		st.WarpSteps += int64(maxBlocks * e.BC)
		st.BytesMeta += segBytes // BlockLen load
		for j := 0; j < maxBlocks; j++ {
			idxSegs.reset()
			// Block-column index: one load per lane's block.
			for lane := 0; lane < lanes; lane++ {
				b := (wbase + lane) / e.BR
				if j >= int(e.BlockLen[b]) {
					continue
				}
				idxSegs.add(addrIdx+int64(j*e.BlockRowsPad+b)*4, segShift)
			}
			st.BytesIdx += int64(len(idxSegs.segs)) * segBytes
			for c := 0; c < e.BC; c++ {
				valSegs.reset()
				rhsSegs.reset()
				for lane := 0; lane < lanes; lane++ {
					i := wbase + lane
					b := i / e.BR
					r := i % e.BR
					if j >= int(e.BlockLen[b]) {
						continue
					}
					xc := int(e.BlockCol[j*e.BlockRowsPad+b])*e.BC + c
					if xc >= e.NCols {
						continue
					}
					at := ((j*e.BC+c)*e.BlockRowsPad+b)*e.BR + r
					sum[lane] += e.Val[at] * x[xc]
					st.ExecutedLaneSteps++
					valSegs.add(addrVal+int64(at)*int64(es), segShift)
					rhsSegs.add(addrRHS+int64(xc)*int64(es), secShift)
				}
				st.BytesVal += int64(len(valSegs.segs)) * segBytes
				for _, sec := range rhsSegs.segs {
					st.RHSProbes++
					if !l2.Probe(sec << secShift) {
						st.RHSMisses++
						st.BytesRHS += secBytes
					}
				}
			}
		}
		hi := wbase + lanes
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
