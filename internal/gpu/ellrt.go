package gpu

import (
	"fmt"

	"pjds/internal/core"
	"pjds/internal/matrix"
)

// RunELLRT executes the ELLR-T spMVM: T threads cooperate on each row,
// so a warp covers warpSize/T rows and finishes in ceil(maxLen/T)
// SIMT steps, followed by a log2(T) intra-warp reduction. More warps
// per row count means better latency hiding on small matrices — the
// tuned alternative the paper contrasts pJDS against.
func RunELLRT[T matrix.Float](d *Device, e *core.ELLRT[T], y, x []T, opt RunOptions) (*KernelStats, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(x) != e.NCols || len(y) != e.N {
		return nil, fmt.Errorf("gpu: ELLR-T run |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), e.N, e.NCols, matrix.ErrShape)
	}
	name := e.Name()
	if err := eccCheck(opt, name); err != nil {
		return nil, err
	}
	tpr := e.ThreadsPerRow
	ws := d.WarpSize
	if ws%tpr != 0 {
		return nil, fmt.Errorf("gpu: ELLR-T T=%d does not divide warp size %d", tpr, ws)
	}
	p, ps := planFor(opt, d, e, name, func() *Plan[T] {
		// Lane l serves row l/T; its step j touches l + j·NPad·T, one
		// chunk of NPad·T lanes.
		rowsPerWarp := ws / tpr
		return compilePlan(d, planSource[T]{
			kernel: name, rows: e.N, cols: e.NCols, nPad: e.NPad * tpr,
			nnz: int64(e.NnzV), metaSegs: 1, // row-length load
			col: e.ColIdx, chunk: e.NPad * tpr, chunkStart: []int64{0},
			lens: e.RowLen, group: tpr, reduceSteps: int64(log2(tpr)),
			lhsRows: func(wbase, lanes int) (int, int) {
				return wbase / tpr, min((wbase+lanes)/tpr, e.N)
			},
			mul: func(y, x []T, wlo, whi int, accumulate bool) {
				e.MulRows(y, x, min(wlo*rowsPerWarp, e.N), min(whi*rowsPerWarp, e.N), accumulate)
			},
		})
	})
	return p.run(d, y, x, opt, ps), nil
}
