package core

import (
	"fmt"

	"pjds/internal/matrix"
)

// ELLRT is the ELLR-T format of Vázquez et al. (named in §II-A as one
// of the tuned alternatives pJDS avoids): ELLPACK-R storage reorganized
// so that T threads cooperate on each row. Row entries are stored in
// groups of T — element j of row i lives at
//
//	(j/T)·NPad·T + i·T + (j%T)
//
// so the T lanes of one row and the rows of one warp all touch
// consecutive addresses (coalescing holds for any T). The matching
// kernel finishes a row in ceil(len/T) SIMT steps, which helps long
// rows and small matrices at the price of a per-row reduction and a
// matrix-dependent tuning parameter T — exactly the kind of parameter
// the paper's format avoids.
type ELLRT[T matrix.Float] struct {
	N     int
	NCols int
	NPad  int
	NnzV  int
	// ThreadsPerRow is the tuning parameter T.
	ThreadsPerRow int
	// MaxRowLen is the true maximum row length; MaxLenPadded rounds it
	// up to a multiple of ThreadsPerRow (the iteration count of the
	// cooperative kernel is MaxLenPadded/T).
	MaxRowLen    int
	MaxLenPadded int

	Val    []T
	ColIdx []int32
	RowLen []int32
}

// NewELLRT builds the ELLR-T representation with T threads per row.
// T must divide the warp size.
func NewELLRT[T matrix.Float](m *matrix.CSR[T], threads int) (*ELLRT[T], error) {
	return NewELLRTWith(m, threads, matrix.ConvertOptions{})
}

// NewELLRTWith is NewELLRT with explicit conversion options: the fill
// is parallel over rows (row i writes only its own group slots), so
// the result is bit-identical for every worker count.
func NewELLRTWith[T matrix.Float](m *matrix.CSR[T], threads int, opt matrix.ConvertOptions) (*ELLRT[T], error) {
	if threads < 1 || WarpSize%threads != 0 {
		return nil, fmt.Errorf("core: ELLR-T with T=%d (must divide the warp size %d)", threads, WarpSize)
	}
	done := opt.Phase("ellrt-fill")
	defer done()
	n := m.NRows
	npad := ((n + WarpSize - 1) / WarpSize) * WarpSize
	maxLen := m.MaxRowLen()
	padded := ((maxLen + threads - 1) / threads) * threads
	e := &ELLRT[T]{
		N:             n,
		NCols:         m.NCols,
		NPad:          npad,
		NnzV:          m.Nnz(),
		ThreadsPerRow: threads,
		MaxRowLen:     maxLen,
		MaxLenPadded:  padded,
		Val:           make([]T, npad*padded),
		ColIdx:        make([]int32, npad*padded),
		RowLen:        make([]int32, npad),
	}
	opt.Run(n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			cols, vals := m.Row(i)
			e.RowLen[i] = int32(len(cols))
			safe := int32(0)
			if len(cols) > 0 {
				safe = cols[0]
			}
			for j := 0; j < padded; j++ {
				at := e.index(i, j)
				if j < len(cols) {
					e.Val[at] = vals[j]
					e.ColIdx[at] = cols[j]
				} else {
					e.ColIdx[at] = safe
				}
			}
		}
	})
	return e, nil
}

// index returns the storage position of element j of row i.
func (e *ELLRT[T]) index(i, j int) int {
	t := e.ThreadsPerRow
	return (j/t)*e.NPad*t + i*t + j%t
}

// Name implements Format.
func (e *ELLRT[T]) Name() string { return fmt.Sprintf("ELLR-T(%d)", e.ThreadsPerRow) }

// Rows implements Format.
func (e *ELLRT[T]) Rows() int { return e.N }

// Cols implements Format.
func (e *ELLRT[T]) Cols() int { return e.NCols }

// NonZeros implements Format.
func (e *ELLRT[T]) NonZeros() int { return e.NnzV }

// StoredElems implements Format.
func (e *ELLRT[T]) StoredElems() int64 { return int64(e.NPad) * int64(e.MaxLenPadded) }

// FootprintBytes implements Format.
func (e *ELLRT[T]) FootprintBytes() int64 {
	return e.StoredElems()*int64(SizeofElem[T]()+4) + int64(len(e.RowLen))*4
}

// MulVec implements Format with the host rendering of the cooperative
// kernel.
func (e *ELLRT[T]) MulVec(y, x []T) error {
	if len(x) != e.NCols || len(y) != e.N {
		return fmt.Errorf("core: ELLR-T MulVec |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), e.N, e.NCols, matrix.ErrShape)
	}
	e.MulRows(y, x, 0, e.N, false)
	return nil
}

// MulRows computes rows [lo, hi) of y = A·x (y += A·x when add). Each
// row sums its true length in stored column order, which the T lanes
// of the cooperative kernel split but do not reorder, so y is
// bit-identical to CRS. The caller checks the shapes.
func (e *ELLRT[T]) MulRows(y, x []T, lo, hi int, add bool) {
	for i := lo; i < hi; i++ {
		var sum T
		for j := 0; j < int(e.RowLen[i]); j++ {
			at := e.index(i, j)
			sum += e.Val[at] * x[e.ColIdx[at]]
		}
		if add {
			y[i] += sum
		} else {
			y[i] = sum
		}
	}
}
