package core

import "pjds/internal/matrix"

// This file holds the common Format surface of the spMVM storage
// formats. The SELL presets satisfy it structurally, and so do the
// formats that are not SELL-C-σ presets: ELLR-T (ellrt.go), blocked
// ELLPACK (bellpack.go), CMRS (cmrs.go) and the CRS adapter below.

// Format is the common surface of all spMVM storage formats. The
// SELL presets satisfy it structurally.
type Format[T matrix.Float] interface {
	// Name identifies the format ("ELLPACK", "ELLPACK-R", "pJDS", ...).
	Name() string
	// Rows and Cols are the logical (unpadded) matrix dimensions.
	Rows() int
	Cols() int
	// NonZeros is the number of genuine non-zero entries.
	NonZeros() int
	// StoredElems is the number of stored value slots including
	// padding; the data-reduction figures of Table I compare these.
	StoredElems() int64
	// FootprintBytes is the total device-memory footprint of the
	// matrix data (values, indices, auxiliary arrays).
	FootprintBytes() int64
	// MulVec computes y = A·x in the original basis.
	MulVec(y, x []T) error
}

// RowPermuted is implemented by formats that reorder rows (JDS, pJDS,
// sorted sliced ELLPACK); solvers use it to move in and out of the
// permuted basis exactly once per solve.
type RowPermuted interface {
	RowPerm() matrix.Perm
}

// DataReduction returns the fractional reduction of stored value slots
// of format b relative to format a: 1 − stored(b)/stored(a). Table I's
// first row is DataReduction(ELLPACK, pJDS).
func DataReduction[T matrix.Float](a, b Format[T]) float64 {
	sa := a.StoredElems()
	if sa == 0 {
		return 0
	}
	return 1 - float64(b.StoredElems())/float64(sa)
}

// CRS adapts matrix.CSR to the Format interface so the CPU reference
// participates in format comparisons (Table I's Westmere row).
type CRS[T matrix.Float] struct {
	M *matrix.CSR[T]
}

// NewCRS wraps an existing CSR matrix.
func NewCRS[T matrix.Float](m *matrix.CSR[T]) *CRS[T] { return &CRS[T]{M: m} }

// Name implements Format.
func (c *CRS[T]) Name() string { return "CRS" }

// Rows implements Format.
func (c *CRS[T]) Rows() int { return c.M.NRows }

// Cols implements Format.
func (c *CRS[T]) Cols() int { return c.M.NCols }

// NonZeros implements Format.
func (c *CRS[T]) NonZeros() int { return c.M.Nnz() }

// StoredElems implements Format: CRS stores exactly the non-zeros.
func (c *CRS[T]) StoredElems() int64 { return int64(c.M.Nnz()) }

// FootprintBytes implements Format: values, column indices and the
// row-pointer array (8-byte offsets, as for matrices beyond 2³¹ nnz).
func (c *CRS[T]) FootprintBytes() int64 {
	return int64(c.M.Nnz())*int64(SizeofElem[T]()+4) + int64(len(c.M.RowPtr))*8
}

// MulVec implements Format with the sequential reference kernel.
func (c *CRS[T]) MulVec(y, x []T) error { return c.M.MulVec(y, x) }
