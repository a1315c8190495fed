package solver

import (
	"fmt"
	"math"
)

// BiCGSTABResult reports a BiCGSTAB solve.
type BiCGSTABResult struct {
	Iterations int
	Residual   float64
	History    []float64
}

// BiCGSTAB solves A·x = b for general nonsymmetric A with the
// stabilized bi-conjugate gradient method (van der Vorst) and optional
// right preconditioning — the other workhorse next to GMRES in CFD
// codes like the paper's TAU, with constant memory instead of a
// restart-length Krylov basis. x is updated in place.
func BiCGSTAB(a Operator, x, b []float64, tol float64, maxIter int, pre Preconditioner) (BiCGSTABResult, error) {
	n := a.Dim()
	if len(x) != n || len(b) != n {
		return BiCGSTABResult{}, fmt.Errorf("solver: BiCGSTAB size mismatch |x|=%d |b|=%d dim=%d", len(x), len(b), n)
	}
	if pre == nil {
		pre = IdentityPreconditioner{}
	}
	r := make([]float64, n)
	if err := a.Apply(r, x); err != nil {
		return BiCGSTABResult{}, err
	}
	for i := range r {
		r[i] = b[i] - r[i]
	}
	rHat := append([]float64(nil), r...) // shadow residual
	p := make([]float64, n)
	v := make([]float64, n)
	ph := make([]float64, n)
	sh := make([]float64, n)
	s := make([]float64, n)
	t := make([]float64, n)

	bnorm := Norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	res := BiCGSTABResult{Residual: Norm2(r)}
	rho, alpha, omega := 1.0, 1.0, 1.0
	for k := 0; k < maxIter; k++ {
		if res.Residual <= tol*bnorm {
			return res, nil
		}
		rhoNew := Dot(rHat, r)
		if rhoNew == 0 {
			return res, fmt.Errorf("solver: BiCGSTAB breakdown (rho = 0) at iteration %d", k)
		}
		if k == 0 {
			copy(p, r)
		} else {
			beta := (rhoNew / rho) * (alpha / omega)
			for i := range p {
				p[i] = r[i] + beta*(p[i]-omega*v[i])
			}
		}
		rho = rhoNew
		if err := pre.ApplySolve(ph, p); err != nil {
			return res, err
		}
		if err := a.Apply(v, ph); err != nil {
			return res, err
		}
		rhv := Dot(rHat, v)
		if rhv == 0 {
			return res, fmt.Errorf("solver: BiCGSTAB breakdown (rHat·v = 0) at iteration %d", k)
		}
		alpha = rho / rhv
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		if ns := Norm2(s); ns <= tol*bnorm {
			// Early half-step convergence.
			for i := range x {
				x[i] += alpha * ph[i]
			}
			res.Iterations = k + 1
			res.Residual = ns
			res.History = append(res.History, ns)
			return res, nil
		}
		if err := pre.ApplySolve(sh, s); err != nil {
			return res, err
		}
		if err := a.Apply(t, sh); err != nil {
			return res, err
		}
		tt := Dot(t, t)
		if tt == 0 {
			return res, fmt.Errorf("solver: BiCGSTAB breakdown (t = 0) at iteration %d", k)
		}
		omega = Dot(t, s) / tt
		if omega == 0 {
			return res, fmt.Errorf("solver: BiCGSTAB stagnation (omega = 0) at iteration %d", k)
		}
		for i := range x {
			x[i] += alpha*ph[i] + omega*sh[i]
		}
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
		res.Iterations = k + 1
		res.Residual = Norm2(r)
		res.History = append(res.History, res.Residual)
		if math.IsNaN(res.Residual) || math.IsInf(res.Residual, 0) {
			return res, fmt.Errorf("solver: BiCGSTAB diverged at iteration %d", k)
		}
	}
	if res.Residual > tol*bnorm {
		return res, fmt.Errorf("%w: BiCGSTAB residual %g after %d iterations", ErrNotConverged, res.Residual, res.Iterations)
	}
	return res, nil
}
