package matrix

import "fmt"

// Dense is a row-major dense matrix used for small-scale verification
// of the sparse kernels and for rendering the worked example of the
// paper's Fig. 1 in tests.
type Dense[T Float] struct {
	NRows, NCols int
	Data         []T // row-major, len = NRows*NCols
}

// NewDense returns a zero dense matrix.
func NewDense[T Float](rows, cols int) *Dense[T] {
	return &Dense[T]{NRows: rows, NCols: cols, Data: make([]T, rows*cols)}
}

// DenseFromRows builds a dense matrix from explicit row slices; all
// rows must have equal length.
func DenseFromRows[T Float](rows [][]T) *Dense[T] {
	if len(rows) == 0 {
		return NewDense[T](0, 0)
	}
	d := NewDense[T](len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != d.NCols {
			// Contract: the rows are a literal of equal-length rows.
			panic(fmt.Sprintf("matrix: ragged dense row %d: %d != %d", i, len(r), d.NCols))
		}
		copy(d.Data[i*d.NCols:], r)
	}
	return d
}

// At returns element (i, j).
func (d *Dense[T]) At(i, j int) T { return d.Data[i*d.NCols+j] }

// Set assigns element (i, j).
func (d *Dense[T]) Set(i, j int, v T) { d.Data[i*d.NCols+j] = v }

// MulVec computes y = D·x.
func (d *Dense[T]) MulVec(y, x []T) error {
	if len(x) != d.NCols || len(y) != d.NRows {
		return fmt.Errorf("matrix: dense MulVec with |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), d.NRows, d.NCols, ErrShape)
	}
	for i := 0; i < d.NRows; i++ {
		var sum T
		row := d.Data[i*d.NCols : (i+1)*d.NCols]
		for j, v := range row {
			sum += v * x[j]
		}
		y[i] = sum
	}
	return nil
}

// ToCSR extracts the non-zero structure of the dense matrix.
func (d *Dense[T]) ToCSR() *CSR[T] {
	coo := NewCOO[T](d.NRows, d.NCols)
	for i := 0; i < d.NRows; i++ {
		for j := 0; j < d.NCols; j++ {
			if v := d.At(i, j); v != 0 {
				coo.Add(i, j, v)
			}
		}
	}
	return coo.ToCSR()
}
