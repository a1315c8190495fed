// Package matrix provides the sparse-matrix substrate of the pJDS
// reproduction: coordinate (COO) and compressed row storage (CRS/CSR)
// matrices, dense matrices for small-scale verification, MatrixMarket
// I/O, row/column permutations, and the row-length statistics that the
// paper's analysis (Fig. 3, Table I) is built on.
//
// CRS is the canonical in-memory representation: every GPU storage
// format in internal/core is constructed from a CRS matrix, and the
// CRS sequential kernel is the reference against which all other
// kernels are verified.
//
// Types are generic over the floating-point element type so that both
// single-precision (SP) and double-precision (DP) pipelines of the
// paper's Table I can be exercised with real arithmetic of the right
// width.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Float is the element-type constraint for all sparse-matrix containers.
type Float interface {
	~float32 | ~float64
}

// ErrShape reports an operation whose operand dimensions do not match.
var ErrShape = errors.New("matrix: dimension mismatch")

// Entry is one non-zero element in coordinate form.
type Entry[T Float] struct {
	Row, Col int
	Val      T
}

// COO is an unordered coordinate-format sparse matrix, assembled by
// hand and then compiled into CRS. Only Dense.ToCSR and the facade's
// NewCOO build one; generators and file readers build CRS directly.
type COO[T Float] struct {
	Rows, Cols int
	Entries    []Entry[T]
}

// NewCOO returns an empty COO matrix with the given dimensions.
func NewCOO[T Float](rows, cols int) *COO[T] {
	if rows < 0 || cols < 0 {
		// Contract: no reader builds a COO; dimensions come from code.
		panic("matrix: negative dimension")
	}
	return &COO[T]{Rows: rows, Cols: cols}
}

// Add appends a non-zero entry. Duplicate (row, col) pairs are allowed;
// they are summed when the matrix is compiled to CRS, matching the
// usual finite-element assembly convention.
func (m *COO[T]) Add(row, col int, val T) {
	if row < 0 || row >= m.Rows || col < 0 || col >= m.Cols {
		// Contract: callers add entries inside the shape they declared.
		panic(fmt.Sprintf("matrix: entry (%d,%d) outside %dx%d", row, col, m.Rows, m.Cols))
	}
	m.Entries = append(m.Entries, Entry[T]{row, col, val})
}

// Nnz returns the number of stored entries, including explicit zeros
// and not-yet-summed duplicates.
func (m *COO[T]) Nnz() int { return len(m.Entries) }

// ToCSR compiles the COO matrix into CRS form: entries are sorted by
// (row, col), duplicates are summed in insertion order, and explicitly
// stored zeros are kept (they are structurally part of the matrix, as
// in MatrixMarket). The assembly uses a counting pass with exactly one
// allocation per output array; ToCSROpt exposes the worker-count,
// arena and phase-timer knobs.
func (m *COO[T]) ToCSR() *CSR[T] { return m.ToCSROpt(ConvertOptions{}) }

// CSR is a compressed-row-storage (the paper's "CRS") sparse matrix.
// Row i occupies Val[RowPtr[i]:RowPtr[i+1]] with matching column
// indices in ColIdx. Column indices are int32, as on the GPU: the
// index array is half the size of the value array in DP, which is what
// the code-balance model (Eq. 1: 8+4 bytes per non-zero) assumes.
type CSR[T Float] struct {
	NRows, NCols int
	RowPtr       []int
	ColIdx       []int32
	Val          []T
}

// NewCSR assembles a CSR matrix directly from prebuilt arrays,
// validating their consistency.
func NewCSR[T Float](rows, cols int, rowPtr []int, colIdx []int32, val []T) (*CSR[T], error) {
	if len(rowPtr) != rows+1 {
		return nil, fmt.Errorf("matrix: rowPtr length %d, want %d: %w", len(rowPtr), rows+1, ErrShape)
	}
	if rowPtr[0] != 0 {
		return nil, fmt.Errorf("matrix: rowPtr[0] = %d, want 0: %w", rowPtr[0], ErrShape)
	}
	if len(colIdx) != len(val) {
		return nil, fmt.Errorf("matrix: colIdx length %d != val length %d: %w", len(colIdx), len(val), ErrShape)
	}
	if rowPtr[rows] != len(val) {
		return nil, fmt.Errorf("matrix: rowPtr[%d] = %d, want nnz %d: %w", rows, rowPtr[rows], len(val), ErrShape)
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return nil, fmt.Errorf("matrix: rowPtr not monotone at row %d: %w", i, ErrShape)
		}
	}
	for _, c := range colIdx {
		if c < 0 || int(c) >= cols {
			return nil, fmt.Errorf("matrix: column index %d outside [0,%d): %w", c, cols, ErrShape)
		}
	}
	return &CSR[T]{NRows: rows, NCols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}, nil
}

// Nnz returns the number of stored non-zeros.
func (m *CSR[T]) Nnz() int { return len(m.Val) }

// RowLen returns the number of stored entries in row i.
func (m *CSR[T]) RowLen(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// Row returns the column indices and values of row i as sub-slices of
// the matrix storage; callers must not modify them.
func (m *CSR[T]) Row(i int) ([]int32, []T) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// At returns the element at (row, col), zero if not stored. It is
// O(log rowlen) and intended for tests and small problems.
func (m *CSR[T]) At(row, col int) T {
	cols, vals := m.Row(row)
	k := sort.Search(len(cols), func(i int) bool { return cols[i] >= int32(col) })
	if k < len(cols) && cols[k] == int32(col) {
		return vals[k]
	}
	return 0
}

// MulVec computes y = A·x with the sequential CRS kernel. It is the
// correctness reference for every other kernel in the repository.
func (m *CSR[T]) MulVec(y, x []T) error {
	if len(x) != m.NCols || len(y) != m.NRows {
		return fmt.Errorf("matrix: MulVec with |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), m.NRows, m.NCols, ErrShape)
	}
	m.MulRows(y, x, 0, m.NRows, false)
	return nil
}

// MulVecAdd computes y += A·x, the accumulate variant used by the
// split local/non-local kernels of the distributed spMVM.
func (m *CSR[T]) MulVecAdd(y, x []T) error {
	if len(x) != m.NCols || len(y) != m.NRows {
		return fmt.Errorf("matrix: MulVecAdd with |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), m.NRows, m.NCols, ErrShape)
	}
	m.MulRows(y, x, 0, m.NRows, true)
	return nil
}

// MulRows computes rows [lo, hi) of y = A·x (y += A·x when add), each
// row summed from zero in stored column order. The caller checks the
// shapes.
func (m *CSR[T]) MulRows(y, x []T, lo, hi int, add bool) {
	for i := lo; i < hi; i++ {
		var sum T
		for k, end := m.RowPtr[i], m.RowPtr[i+1]; k < end; k++ {
			sum += m.Val[k] * x[m.ColIdx[k]]
		}
		if add {
			y[i] += sum
		} else {
			y[i] = sum
		}
	}
}

// Transpose returns Aᵀ as a new CSR matrix.
func (m *CSR[T]) Transpose() *CSR[T] {
	t := &CSR[T]{
		NRows:  m.NCols,
		NCols:  m.NRows,
		RowPtr: make([]int, m.NCols+1),
		ColIdx: make([]int32, m.Nnz()),
		Val:    make([]T, m.Nnz()),
	}
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for i := 0; i < m.NCols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := make([]int, m.NCols)
	copy(next, t.RowPtr[:m.NCols])
	for i := 0; i < m.NRows; i++ {
		for k, end := m.RowPtr[i], m.RowPtr[i+1]; k < end; k++ {
			c := m.ColIdx[k]
			p := next[c]
			next[c]++
			t.ColIdx[p] = int32(i)
			t.Val[p] = m.Val[k]
		}
	}
	return t
}

// Clone returns a deep copy.
func (m *CSR[T]) Clone() *CSR[T] {
	c := &CSR[T]{
		NRows:  m.NRows,
		NCols:  m.NCols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int32(nil), m.ColIdx...),
		Val:    append([]T(nil), m.Val...),
	}
	return c
}

// Equal reports whether two matrices have identical structure and
// element-wise values within tolerance tol.
func (m *CSR[T]) Equal(o *CSR[T], tol float64) bool {
	if m.NRows != o.NRows || m.NCols != o.NCols || m.Nnz() != o.Nnz() {
		return false
	}
	for i := range m.RowPtr {
		if m.RowPtr[i] != o.RowPtr[i] {
			return false
		}
	}
	for k := range m.ColIdx {
		if m.ColIdx[k] != o.ColIdx[k] {
			return false
		}
		if math.Abs(float64(m.Val[k])-float64(o.Val[k])) > tol {
			return false
		}
	}
	return true
}

// MaxRowLen returns max_i RowLen(i), the paper's N^max_nzr.
func (m *CSR[T]) MaxRowLen() int {
	max := 0
	for i := 0; i < m.NRows; i++ {
		if l := m.RowLen(i); l > max {
			max = l
		}
	}
	return max
}

// MinRowLen returns min_i RowLen(i).
func (m *CSR[T]) MinRowLen() int {
	if m.NRows == 0 {
		return 0
	}
	min := m.RowLen(0)
	for i := 1; i < m.NRows; i++ {
		if l := m.RowLen(i); l < min {
			min = l
		}
	}
	return min
}

// AvgRowLen returns Nnz/NRows, the paper's N_nzr.
func (m *CSR[T]) AvgRowLen() float64 {
	if m.NRows == 0 {
		return 0
	}
	return float64(m.Nnz()) / float64(m.NRows)
}

// Convert changes the element type of a CSR matrix, e.g. building the
// single-precision copy of a double-precision matrix for the SP rows
// of Table I.
func Convert[D, S Float](m *CSR[S]) *CSR[D] {
	c := &CSR[D]{
		NRows:  m.NRows,
		NCols:  m.NCols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int32(nil), m.ColIdx...),
		Val:    make([]D, len(m.Val)),
	}
	for i, v := range m.Val {
		c.Val[i] = D(v)
	}
	return c
}
