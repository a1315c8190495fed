// Package solver provides the iterative methods the paper motivates
// spMVM with (§I-A: "large eigenvalue problems or extremely sparse
// systems of linear equations"): conjugate gradients, power iteration
// and a Lanczos eigensolver — the "production-grade eigensolver" of
// the paper's outlook. All of them run their whole iteration in the
// pJDS-permuted basis, entering and leaving it exactly once, as §II-A
// prescribes for Krylov subspace methods.
package solver

import (
	"errors"
	"fmt"
	"math"

	"pjds/internal/profiles"
)

// Operator applies a linear map y = A·x; it abstracts over storage
// formats and devices.
type Operator interface {
	Apply(y, x []float64) error
	Dim() int
}

// OperatorFunc adapts a function to the Operator interface.
type OperatorFunc struct {
	N int
	F func(y, x []float64) error
}

// Apply implements Operator.
func (o OperatorFunc) Apply(y, x []float64) error { return o.F(y, x) }

// Dim implements Operator.
func (o OperatorFunc) Dim() int { return o.N }

// ErrNotConverged reports that an iteration hit its limit before
// meeting its tolerance.
var ErrNotConverged = errors.New("solver: not converged")

// Dot returns xᵀy.
func Dot(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Norm2 returns ‖x‖₂.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// Axpy computes y += a·x.
func Axpy(a float64, x, y []float64) {
	for i := range x {
		y[i] += a * x[i]
	}
}

// Scale multiplies x by a in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// CGResult reports a conjugate-gradient solve.
type CGResult struct {
	Iterations int
	Residual   float64
	// History holds ‖r‖₂ after every iteration.
	History []float64
}

// CG solves A·x = b for symmetric positive definite A, starting from
// the contents of x, until ‖r‖₂ ≤ tol·‖b‖₂ or maxIter iterations.
// x is updated in place. Probes observe every completed iteration.
func CG(a Operator, x, b []float64, tol float64, maxIter int, probes ...Probe) (CGResult, error) {
	n := a.Dim()
	if len(x) != n || len(b) != n {
		return CGResult{}, fmt.Errorf("solver: CG size mismatch |x|=%d |b|=%d dim=%d", len(x), len(b), n)
	}
	// Re-label the calling goroutine for the duration of the solve
	// (and beyond — sequential stage labeling, not scoped nesting;
	// see internal/profiles).
	profiles.SetPhase(profiles.PhaseSolver)
	r := make([]float64, n)
	if err := a.Apply(r, x); err != nil {
		return CGResult{}, err
	}
	for i := range r {
		r[i] = b[i] - r[i]
	}
	p := append([]float64(nil), r...)
	ap := make([]float64, n)
	rr := Dot(r, r)
	bnorm := Norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	res := CGResult{}
	for k := 0; k < maxIter; k++ {
		if math.Sqrt(rr) <= tol*bnorm {
			res.Residual = math.Sqrt(rr)
			return res, nil
		}
		if err := a.Apply(ap, p); err != nil {
			return res, err
		}
		pap := Dot(p, ap)
		if pap <= 0 {
			return res, fmt.Errorf("solver: CG operator not positive definite (pᵀAp = %g)", pap)
		}
		alpha := rr / pap
		// One pass for x += α·p, r -= α·ap and rᵀr, with the exact
		// per-element expressions and summation order of Axpy(α, p, x),
		// Axpy(−α, ap, r) and Dot(r, r).
		na := -alpha
		rrNew := 0.0
		for i := range x {
			x[i] += alpha * p[i]
			r[i] += na * ap[i]
			rrNew += r[i] * r[i]
		}
		beta := rrNew / rr
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rr = rrNew
		res.Iterations++
		res.History = append(res.History, math.Sqrt(rr))
		notify(probes, res.Iterations, math.Sqrt(rr))
	}
	res.Residual = math.Sqrt(rr)
	if res.Residual > tol*bnorm {
		return res, fmt.Errorf("%w: CG residual %g after %d iterations", ErrNotConverged, res.Residual, maxIter)
	}
	return res, nil
}

// PowerResult reports a power-iteration run.
type PowerResult struct {
	Eigenvalue float64
	Vector     []float64
	Iterations int
}

// PowerIteration finds the dominant eigenvalue (by magnitude) of a,
// starting from v0 (or a deterministic default when nil). Probes
// observe every step with the eigenvalue change as the residual.
func PowerIteration(a Operator, v0 []float64, tol float64, maxIter int, probes ...Probe) (PowerResult, error) {
	profiles.SetPhase(profiles.PhaseSolver)
	n := a.Dim()
	v := make([]float64, n)
	if v0 != nil {
		if len(v0) != n {
			return PowerResult{}, fmt.Errorf("solver: power iteration |v0|=%d dim=%d", len(v0), n)
		}
		copy(v, v0)
	} else {
		for i := range v {
			v[i] = 1 + 0.001*float64(i%17)
		}
	}
	Scale(1/Norm2(v), v)
	av := make([]float64, n)
	lambda := 0.0
	for k := 0; k < maxIter; k++ {
		if err := a.Apply(av, v); err != nil {
			return PowerResult{}, err
		}
		next := Dot(v, av)
		nv := Norm2(av)
		if nv == 0 {
			return PowerResult{}, fmt.Errorf("solver: power iteration hit the null space")
		}
		for i := range v {
			v[i] = av[i] / nv
		}
		notify(probes, k+1, math.Abs(next-lambda))
		if k > 0 && math.Abs(next-lambda) <= tol*math.Abs(next) {
			return PowerResult{Eigenvalue: next, Vector: v, Iterations: k + 1}, nil
		}
		lambda = next
	}
	return PowerResult{Eigenvalue: lambda, Vector: v, Iterations: maxIter},
		fmt.Errorf("%w: power iteration after %d steps", ErrNotConverged, maxIter)
}

// LanczosResult reports a Lanczos run: the tridiagonal coefficients
// and the Ritz values (eigenvalue estimates).
type LanczosResult struct {
	Alpha, Beta []float64 // tridiagonal diagonal / off-diagonal
	RitzValues  []float64 // ascending
	Steps       int
}

// Lanczos runs k steps of the symmetric Lanczos iteration on a and
// returns the Ritz values of the resulting tridiagonal matrix. Full
// reorthogonalization is applied — at the modest k used here its
// O(k²n) cost is irrelevant and it keeps the Ritz values clean.
func Lanczos(a Operator, k int, v0 []float64) (LanczosResult, error) {
	profiles.SetPhase(profiles.PhaseSolver)
	n := a.Dim()
	if k < 1 {
		return LanczosResult{}, fmt.Errorf("solver: Lanczos with k = %d", k)
	}
	if k > n {
		k = n
	}
	v := make([]float64, n)
	if v0 != nil {
		if len(v0) != n {
			return LanczosResult{}, fmt.Errorf("solver: Lanczos |v0|=%d dim=%d", len(v0), n)
		}
		copy(v, v0)
	} else {
		for i := range v {
			v[i] = math.Sin(float64(i) + 1)
		}
	}
	Scale(1/Norm2(v), v)

	basis := make([][]float64, 0, k)
	var alpha, beta []float64
	w := make([]float64, n)
	for j := 0; j < k; j++ {
		basis = append(basis, append([]float64(nil), v...))
		if err := a.Apply(w, v); err != nil {
			return LanczosResult{}, err
		}
		aj := Dot(v, w)
		alpha = append(alpha, aj)
		// w ← w − αⱼvⱼ − βⱼ₋₁vⱼ₋₁, then full reorthogonalization.
		Axpy(-aj, v, w)
		if j > 0 {
			Axpy(-beta[j-1], basis[j-1], w)
		}
		for _, q := range basis {
			Axpy(-Dot(q, w), q, w)
		}
		bj := Norm2(w)
		if j == k-1 {
			break
		}
		if bj < 1e-14 {
			// Invariant subspace found: stop early.
			break
		}
		beta = append(beta, bj)
		for i := range v {
			v[i] = w[i] / bj
		}
	}
	ritz, err := TridiagEigenvalues(append([]float64(nil), alpha...), append([]float64(nil), beta...))
	if err != nil {
		return LanczosResult{}, err
	}
	return LanczosResult{Alpha: alpha, Beta: beta, RitzValues: ritz, Steps: len(alpha)}, nil
}

// TridiagEigenvalues computes all eigenvalues of the symmetric
// tridiagonal matrix with diagonal d and off-diagonal e (len(e) =
// len(d)−1) with the implicit QL algorithm, returning them ascending.
// d and e are clobbered.
func TridiagEigenvalues(d, e []float64) ([]float64, error) {
	n := len(d)
	if n == 0 {
		return nil, nil
	}
	if len(e) != n-1 {
		return nil, fmt.Errorf("solver: tridiag with |d|=%d |e|=%d", n, len(e))
	}
	// Shift the off-diagonal for the classic indexing.
	ee := make([]float64, n)
	copy(ee, e)
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			if iter > 50 {
				return nil, fmt.Errorf("solver: QL failed to converge at row %d", l)
			}
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(ee[m]) <= 1e-18*dd {
					break
				}
			}
			if m == l {
				break
			}
			g := (d[l+1] - d[l]) / (2 * ee[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + ee[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * ee[i]
				b := c * ee[i]
				r = math.Hypot(f, g)
				ee[i+1] = r
				if r == 0 {
					d[i+1] -= p
					ee[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			ee[l] = g
			ee[m] = 0
		}
	}
	out := append([]float64(nil), d[:n]...)
	sortFloats(out)
	return out, nil
}

func sortFloats(x []float64) {
	// Insertion sort: the tridiagonal systems here are tiny.
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i - 1
		for j >= 0 && x[j] > v {
			x[j+1] = x[j]
			j--
		}
		x[j+1] = v
	}
}
