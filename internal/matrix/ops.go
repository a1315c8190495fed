package matrix

import "fmt"

// Matrix operations of the preprocessing pipelines: the structural
// sum and the symmetrization eigensolvers use.

// Add returns a + b for matrices of identical shape (structural
// union, values summed).
func Add[T Float](a, b *CSR[T]) (*CSR[T], error) {
	if a.NRows != b.NRows || a.NCols != b.NCols {
		return nil, fmt.Errorf("matrix: Add %dx%d and %dx%d: %w", a.NRows, a.NCols, b.NRows, b.NCols, ErrShape)
	}
	out := &CSR[T]{
		NRows:  a.NRows,
		NCols:  a.NCols,
		RowPtr: make([]int, a.NRows+1),
	}
	for i := 0; i < a.NRows; i++ {
		ca, va := a.Row(i)
		cb, vb := b.Row(i)
		x, y := 0, 0
		for x < len(ca) || y < len(cb) {
			switch {
			case y == len(cb) || (x < len(ca) && ca[x] < cb[y]):
				out.ColIdx = append(out.ColIdx, ca[x])
				out.Val = append(out.Val, va[x])
				x++
			case x == len(ca) || cb[y] < ca[x]:
				out.ColIdx = append(out.ColIdx, cb[y])
				out.Val = append(out.Val, vb[y])
				y++
			default:
				out.ColIdx = append(out.ColIdx, ca[x])
				out.Val = append(out.Val, va[x]+vb[y])
				x++
				y++
			}
		}
		out.RowPtr[i+1] = len(out.Val)
	}
	return out, nil
}

// Symmetrize returns (A + Aᵀ)/2 for a square matrix — the model
// operator used when an eigensolver needs a symmetric spectrum from a
// structurally nonsymmetric application matrix.
func Symmetrize[T Float](m *CSR[T]) (*CSR[T], error) {
	if m.NRows != m.NCols {
		return nil, fmt.Errorf("matrix: Symmetrize of a %dx%d matrix: %w", m.NRows, m.NCols, ErrShape)
	}
	s, err := Add(m, m.Transpose())
	if err != nil {
		return nil, err
	}
	for k := range s.Val {
		s.Val[k] /= 2
	}
	return s, nil
}
