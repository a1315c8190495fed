package gpu

import (
	"fmt"

	"pjds/internal/core"
	"pjds/internal/matrix"
	"pjds/internal/telemetry"
)

// RunCMRS executes the CMRS spMVM of Koza et al. (arXiv:1203.2946):
// one warp per strip, lanes striding the strip's CSR-ordered elements
// jointly. Because the val/colidx streams are walked front to back
// with unit stride, every load is perfectly coalesced regardless of
// the row-length distribution — CMRS converts pJDS/SELL's potential
// zero-padding traffic into one row-in-strip metadata byte per
// element plus an in-warp scatter of at most Height partial sums.
//
// The numeric replay is core.CMRS.MulRows over each worker's strips,
// so results are bit-identical to the naive CRS reference at any
// worker count (warps own disjoint strips, strips own disjoint rows).
func RunCMRS[T matrix.Float](d *Device, c *core.CMRS[T], y, x []T, opt RunOptions) (*KernelStats, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(x) != c.NCols || len(y) != c.N {
		return nil, fmt.Errorf("gpu: CMRS run |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), c.N, c.NCols, matrix.ErrShape)
	}
	if c.Height > d.WarpSize {
		return nil, fmt.Errorf("gpu: CMRS strip height %d exceeds warp size %d (per-warp scatter must fit the lane registers)", c.Height, d.WarpSize)
	}
	if err := eccCheck(opt, c.Name()); err != nil {
		return nil, err
	}
	ws := d.WarpSize
	p, ps := planFor(opt, d, c, c.Name(), func() *Plan[T] {
		// One warp per strip: lane l of strip s touches elements
		// StripPtr[s] + j·ws + l, one group of ws lanes per strip.
		lens := make([]int32, c.NStrips)
		for s := range lens {
			lens[s] = int32(c.StripPtr[s+1] - c.StripPtr[s])
		}
		segBytes := int64(d.SegmentBytes)
		return compilePlan(d, planSource[T]{
			kernel: c.Name(), rows: c.N, cols: c.NCols, nPad: c.NStrips * ws,
			nnz: int64(c.NnzV), metaSegs: 1, // strip-pointer load (overridden per warp below)
			col: c.ColIdx, chunk: ws, chunkStart: c.StripPtr,
			lens: lens, group: ws,
			geometry: []telemetry.Label{telemetry.Li("height", c.Height)},
			stored:   c.StoredElems(),
			lhsRows: func(wbase, lanes int) (int, int) {
				lo := wbase / ws * c.Height
				hi := lo + c.Height
				if lo > c.N {
					lo = c.N
				}
				if hi > c.N {
					hi = c.N
				}
				return lo, hi
			},
			metaBytes: func(wbase, lanes int) int64 {
				// One coalesced segment for the strip pointers plus the
				// row-in-strip byte stream (1 B per element, streamed in
				// unit stride alongside the values).
				elems := c.StripPtr[wbase/ws+1] - c.StripPtr[wbase/ws]
				return (1 + (elems+segBytes-1)/segBytes) * segBytes
			},
			mul: c.MulRows, // warp s is strip s
		})
	})
	return p.run(d, y, x, opt, ps), nil
}
