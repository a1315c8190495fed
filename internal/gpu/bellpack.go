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
//
// It is the plan source of block shape BR×BC: lanes are the scalar
// rows of the padded block rows, one chunk of them, and lens the block
// counts. The numeric replay is core's BELLPACK.MulRows, which sums
// each row in ascending column order, so y is bit-identical to CRS for
// finite x.
func RunBELLPACK[T matrix.Float](d *Device, e *core.BELLPACK[T], y, x []T, opt RunOptions) (*KernelStats, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(x) != e.NCols || len(y) != e.N {
		return nil, fmt.Errorf("gpu: BELLPACK run |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), e.N, e.NCols, matrix.ErrShape)
	}
	name := e.Name()
	if err := eccCheck(opt, name); err != nil {
		return nil, err
	}
	ws := d.WarpSize
	p, ps := planFor(opt, d, e, name, func() *Plan[T] {
		nPad := e.BlockRowsPad * e.BR
		return compilePlan(d, planSource[T]{
			kernel: name, rows: e.N, cols: e.NCols, nPad: nPad,
			nnz: int64(e.NnzV), metaSegs: 1, // block-length load
			col: e.BlockCol, chunk: nPad, chunkStart: []int64{0},
			lens: e.BlockLen, group: 1, block: [2]int{e.BR, e.BC},
			mul: func(y, x []T, wlo, whi int, accumulate bool) {
				e.MulRows(y, x, min(wlo*ws, e.N), min(whi*ws, e.N), accumulate)
			},
		})
	})
	return p.run(d, y, x, opt, ps), nil
}
