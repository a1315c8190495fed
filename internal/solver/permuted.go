package solver

import (
	"fmt"

	"pjds/internal/core"
	"pjds/internal/hostkernel"
	"pjds/internal/matrix"
)

// PermutedPJDS is a square operator that works entirely in the
// pJDS-permuted basis: the matrix is symmetrically permuted by the
// row-length sort (PAPᵀ), stored as pJDS, and every Apply runs the
// pure Listing-2 kernel with no per-iteration gather/scatter. Enter
// and Leave convert vectors between the bases exactly once per solve,
// the usage §II-A prescribes for Krylov methods. Applications run on
// the unrolled hostkernel pJDS kernel (bit-identical to
// MulVecPermuted), so the host path of a solve — including the ECC
// downgrade path of DevicePJDS — gets the fast zero-alloc loop.
type PermutedPJDS struct {
	P *core.PJDS[float64]
	// Perm is the symmetric permutation applied (new → old).
	Perm matrix.Perm
	// K is the host execution kernel behind Apply.
	K *hostkernel.SELL
}

// NewPermutedPJDS builds the operator for a square matrix. The pJDS
// construction of the symmetrically permuted matrix yields the
// identity row sort (rows are already in descending length order), so
// its kernel needs no further reordering.
func NewPermutedPJDS(m *matrix.CSR[float64], opt core.Options) (*PermutedPJDS, error) {
	if m.NRows != m.NCols {
		return nil, fmt.Errorf("solver: permuted operator needs a square matrix, got %dx%d", m.NRows, m.NCols)
	}
	perm := matrix.SortRowsByLengthDesc(m)
	pm := matrix.PermuteSymmetric(m, perm)
	p, err := core.NewPJDS(pm, opt)
	if err != nil {
		return nil, err
	}
	// pm's rows are already sorted by descending length, so the inner
	// permutation must be the identity; anything else indicates an
	// instability in the sort.
	for i, v := range p.Perm {
		if v != i {
			return nil, fmt.Errorf("solver: internal: non-identity inner permutation at %d", i)
		}
	}
	return &PermutedPJDS{P: p, Perm: perm, K: hostkernel.NewPJDS(p, hostkernel.Options{})}, nil
}

// Dim implements Operator.
func (o *PermutedPJDS) Dim() int { return o.P.N }

// Apply implements Operator in the permuted basis.
func (o *PermutedPJDS) Apply(y, x []float64) error { return o.K.MulVec(y, x) }

// Close releases the kernel's worker pool (safe to omit — a finalizer
// covers abandoned operators).
func (o *PermutedPJDS) Close() { o.K.Close() }

// Enter gathers an original-basis vector into the permuted basis.
func (o *PermutedPJDS) Enter(dst, src []float64) []float64 {
	return matrix.Gather(dst, src, o.Perm)
}

// Leave scatters a permuted-basis vector back to the original basis.
func (o *PermutedPJDS) Leave(dst, src []float64) []float64 {
	return matrix.Scatter(dst, src, o.Perm)
}

// CSROperator adapts a CSR matrix to the Operator interface (the
// reference against which permuted solves are validated).
type CSROperator struct {
	M *matrix.CSR[float64]
}

// Dim implements Operator.
func (o CSROperator) Dim() int { return o.M.NRows }

// Apply implements Operator.
func (o CSROperator) Apply(y, x []float64) error { return o.M.MulVec(y, x) }
