package solver

import (
	"fmt"
	"math"

	"pjds/internal/matrix"
)

// The DLR matrices of the paper are nonsymmetric (adjoint CFD and
// aerodynamic-gradient systems), so the production solver stack needs
// more than CG: this file provides restarted GMRES with right
// preconditioning, plus the Jacobi preconditioner.

// Preconditioner solves z = M⁻¹·r approximately.
type Preconditioner interface {
	ApplySolve(z, r []float64) error
}

// IdentityPreconditioner is the no-op preconditioner.
type IdentityPreconditioner struct{}

// ApplySolve copies r into z.
func (IdentityPreconditioner) ApplySolve(z, r []float64) error {
	copy(z, r)
	return nil
}

// JacobiPreconditioner scales by the inverse diagonal.
type JacobiPreconditioner struct {
	invDiag []float64
}

// NewJacobi extracts the diagonal of m; zero diagonal entries are
// treated as 1 (no scaling).
func NewJacobi(m *matrix.CSR[float64]) *JacobiPreconditioner {
	inv := make([]float64, m.NRows)
	for i := range inv {
		if d := m.At(i, i); d != 0 {
			inv[i] = 1 / d
		} else {
			inv[i] = 1
		}
	}
	return &JacobiPreconditioner{invDiag: inv}
}

// ApplySolve computes z = D⁻¹·r.
func (j *JacobiPreconditioner) ApplySolve(z, r []float64) error {
	if len(z) != len(j.invDiag) || len(r) != len(j.invDiag) {
		return fmt.Errorf("solver: Jacobi size mismatch |z|=%d |r|=%d n=%d", len(z), len(r), len(j.invDiag))
	}
	for i := range r {
		z[i] = j.invDiag[i] * r[i]
	}
	return nil
}

// GMRESResult reports a GMRES solve.
type GMRESResult struct {
	Iterations int // total inner iterations across restarts
	Restarts   int
	Residual   float64 // final true residual norm
	History    []float64
}

// GMRES solves A·x = b with restarted GMRES(m) and right
// preconditioning, starting from the contents of x, until
// ‖b − A·x‖₂ ≤ tol·‖b‖₂ or maxIter total inner iterations. A nil
// preconditioner means identity.
func GMRES(a Operator, x, b []float64, restart int, tol float64, maxIter int, pre Preconditioner) (GMRESResult, error) {
	n := a.Dim()
	if len(x) != n || len(b) != n {
		return GMRESResult{}, fmt.Errorf("solver: GMRES size mismatch |x|=%d |b|=%d dim=%d", len(x), len(b), n)
	}
	if restart < 1 {
		return GMRESResult{}, fmt.Errorf("solver: GMRES restart %d < 1", restart)
	}
	if restart > n {
		restart = n
	}
	if pre == nil {
		pre = IdentityPreconditioner{}
	}

	bnorm := Norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	res := GMRESResult{}
	r := make([]float64, n)
	w := make([]float64, n)
	z := make([]float64, n)
	// Krylov basis and Hessenberg matrix (column-major H[j] has j+2
	// entries).
	v := make([][]float64, restart+1)
	for i := range v {
		v[i] = make([]float64, n)
	}
	h := make([][]float64, restart)
	cs := make([]float64, restart)
	sn := make([]float64, restart)
	g := make([]float64, restart+1)
	y := make([]float64, restart)

	for res.Iterations < maxIter {
		// Outer (restart) loop: true residual.
		if err := a.Apply(r, x); err != nil {
			return res, err
		}
		for i := range r {
			r[i] = b[i] - r[i]
		}
		beta := Norm2(r)
		res.Residual = beta
		if beta <= tol*bnorm {
			return res, nil
		}
		for i := range r {
			v[0][i] = r[i] / beta
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		k := 0
		for ; k < restart && res.Iterations < maxIter; k++ {
			res.Iterations++
			// w = A·M⁻¹·v[k]  (right preconditioning).
			if err := pre.ApplySolve(z, v[k]); err != nil {
				return res, err
			}
			if err := a.Apply(w, z); err != nil {
				return res, err
			}
			// Modified Gram-Schmidt.
			h[k] = make([]float64, k+2)
			for j := 0; j <= k; j++ {
				h[k][j] = Dot(w, v[j])
				Axpy(-h[k][j], v[j], w)
			}
			h[k][k+1] = Norm2(w)
			if h[k][k+1] > 1e-300 {
				for i := range w {
					v[k+1][i] = w[i] / h[k][k+1]
				}
			}
			// Apply the accumulated Givens rotations to the new column.
			for j := 0; j < k; j++ {
				t := cs[j]*h[k][j] + sn[j]*h[k][j+1]
				h[k][j+1] = -sn[j]*h[k][j] + cs[j]*h[k][j+1]
				h[k][j] = t
			}
			// New rotation zeroing h[k][k+1].
			denom := math.Hypot(h[k][k], h[k][k+1])
			if denom == 0 {
				cs[k], sn[k] = 1, 0
			} else {
				cs[k] = h[k][k] / denom
				sn[k] = h[k][k+1] / denom
			}
			h[k][k] = cs[k]*h[k][k] + sn[k]*h[k][k+1]
			h[k][k+1] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]
			res.History = append(res.History, math.Abs(g[k+1]))
			if math.Abs(g[k+1]) <= tol*bnorm {
				k++
				break
			}
		}

		// Solve the little triangular system H·y = g.
		for j := k - 1; j >= 0; j-- {
			y[j] = g[j]
			for l := j + 1; l < k; l++ {
				y[j] -= h[l][j] * y[l]
			}
			y[j] /= h[j][j]
		}
		// x += M⁻¹·(V·y).
		for i := range z {
			z[i] = 0
		}
		for j := 0; j < k; j++ {
			Axpy(y[j], v[j], z)
		}
		if err := pre.ApplySolve(w, z); err != nil {
			return res, err
		}
		for i := range x {
			x[i] += w[i]
		}
		res.Restarts++
	}
	// Final true residual.
	if err := a.Apply(r, x); err != nil {
		return res, err
	}
	for i := range r {
		r[i] = b[i] - r[i]
	}
	res.Residual = Norm2(r)
	if res.Residual > tol*bnorm {
		return res, fmt.Errorf("%w: GMRES residual %g after %d iterations", ErrNotConverged, res.Residual, res.Iterations)
	}
	return res, nil
}
