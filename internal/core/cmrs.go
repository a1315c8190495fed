package core

import (
	"fmt"

	"pjds/internal/matrix"
)

// CMRS is the Compressed Multirow Storage format of Koza et al.
// (arXiv:1203.2946): rows are grouped into strips of Height
// consecutive rows, and the strip's non-zeros are stored in plain CSR
// element order — no padding at all. Each element carries its row's
// offset within the strip (RowInStrip), so a warp can process a
// strip's elements in perfectly coalesced order and scatter partial
// sums to at most Height distinct rows. CMRS trades pJDS/SELL's
// zero-padding for one extra byte of metadata per element and an
// in-warp reduction, which makes it the natural third contender for
// the format-selection engine: it wins when the row-length
// distribution is so irregular that any chunked-padded layout drowns
// in β.
type CMRS[T matrix.Float] struct {
	N     int
	NCols int
	NnzV  int
	// Height is the strip height (rows per strip), at most MaxStripHeight.
	Height  int
	NStrips int

	// Val and ColIdx hold the non-zeros in CSR element order — the
	// val/colidx streams are byte-identical to CRS, which is what makes
	// the warp loads perfectly coalesced.
	Val    []T
	ColIdx []int32
	// RowInStrip[e] is the row offset of element e within its strip.
	RowInStrip []uint8
	// StripPtr[s] is the element index where strip s begins
	// (NStrips+1 entries); strip s covers rows [s·Height, (s+1)·Height).
	StripPtr []int64
}

// MaxStripHeight bounds Height so RowInStrip fits one byte per
// element (the paper packs these bits into the column index; a
// separate byte array models the same traffic).
const MaxStripHeight = 256

// DefaultStripHeight is the strip height used when the caller does
// not choose one: tall enough to average short rows into full warp
// loads, short enough to keep the per-strip scatter in registers.
const DefaultStripHeight = 16

// NewCMRSWith builds the CMRS layout with the given strip height (0
// selects DefaultStripHeight) and conversion options. Strips are
// filled in parallel — each strip's element range is fixed by the CSR
// row pointers alone, so every worker count builds the identical
// arrays.
func NewCMRSWith[T matrix.Float](m *matrix.CSR[T], height int, opt matrix.ConvertOptions) (*CMRS[T], error) {
	c := new(CMRS[T])
	if err := c.Reset(m, height, opt); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset rebuilds c in place as the layout NewCMRSWith(m, height, opt)
// returns, reusing the capacity of its slices. Kernels over c must not
// be used across a Reset. On error c is unchanged.
func (c *CMRS[T]) Reset(m *matrix.CSR[T], height int, opt matrix.ConvertOptions) error {
	if height == 0 {
		height = DefaultStripHeight
	}
	if height < 1 || height > MaxStripHeight {
		return fmt.Errorf("core: CMRS strip height %d outside [1, %d]", height, MaxStripHeight)
	}
	done := opt.Phase("cmrs-fill")
	defer done()
	n := m.NRows
	nStrips := (n + height - 1) / height
	nnz := m.Nnz()
	*c = CMRS[T]{
		N: n, NCols: m.NCols, NnzV: nnz,
		Height: height, NStrips: nStrips,
		Val:        matrix.Resize(c.Val, nnz),
		ColIdx:     matrix.Resize(c.ColIdx, nnz),
		RowInStrip: matrix.Resize(c.RowInStrip, nnz),
		StripPtr:   matrix.Resize(c.StripPtr, nStrips+1),
	}
	for s := 0; s <= nStrips; s++ {
		row := s * height
		if row > n {
			row = n
		}
		c.StripPtr[s] = int64(m.RowPtr[row])
	}
	opt.Run(nStrips, func(w, lo, hi int) {
		for s := lo; s < hi; s++ {
			rlo := s * height
			rhi := rlo + height
			if rhi > n {
				rhi = n
			}
			at := c.StripPtr[s]
			for i := rlo; i < rhi; i++ {
				cols, vals := m.Row(i)
				r := uint8(i - rlo)
				for j := range cols {
					c.Val[at] = vals[j]
					c.ColIdx[at] = cols[j]
					c.RowInStrip[at] = r
					at++
				}
			}
		}
	})
	return nil
}

// Name implements Format.
func (c *CMRS[T]) Name() string { return "CMRS" }

// Rows implements Format.
func (c *CMRS[T]) Rows() int { return c.N }

// Cols implements Format.
func (c *CMRS[T]) Cols() int { return c.NCols }

// NonZeros implements Format.
func (c *CMRS[T]) NonZeros() int { return c.NnzV }

// StoredElems implements Format: CMRS stores exactly the non-zeros.
func (c *CMRS[T]) StoredElems() int64 { return int64(c.NnzV) }

// FootprintBytes implements Format: values, column indices, one
// row-in-strip byte per element, and the strip-pointer array.
func (c *CMRS[T]) FootprintBytes() int64 {
	return int64(c.NnzV)*int64(SizeofElem[T]()+4+1) + int64(len(c.StripPtr))*8
}

// MulVec implements Format: all strips through MulRows, y = A·x.
func (c *CMRS[T]) MulVec(y, x []T) error {
	if len(x) != c.NCols || len(y) != c.N {
		return fmt.Errorf("core: CMRS MulVec |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), c.N, c.NCols, matrix.ErrShape)
	}
	c.MulRows(y, x, 0, c.NStrips, false)
	return nil
}

// MulRows computes the rows of strips [slo, shi) of y = A·x (y += A·x
// when add) — the one CMRS loop, behind MulVec and the host kernel. A
// row's elements are consecutive in its strip, so each row sums its
// run from zero in element (stored column) order into one scalar, and
// every row of the strip is written, empty rows included:
// bit-identical to CRS, down to a −0 in y becoming +0 under add. Shapes
// are the caller's to check.
func (c *CMRS[T]) MulRows(y, x []T, slo, shi int, add bool) {
	val, idx, ris := c.Val, c.ColIdx, c.RowInStrip
	for s := slo; s < shi; s++ {
		base := s * c.Height
		e, end := c.StripPtr[s], c.StripPtr[s+1]
		for r := base; r < min(base+c.Height, c.N); r++ {
			off := uint8(r - base)
			var sum T
			for ; e < end && ris[e] == off; e++ {
				sum += val[e] * x[idx[e]]
			}
			if add {
				y[r] += sum
			} else {
				y[r] = sum
			}
		}
	}
}
