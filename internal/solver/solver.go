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
	// Re-label the calling goroutine for the duration of the solve
	// (and beyond — sequential stage labeling, not scoped nesting;
	// see internal/profiles).
	profiles.SetPhase(profiles.PhaseSolver)
	h := Hooks{After: fanOut(probes)}
	s, err := NewCGState(a, x, b, h)
	if err != nil {
		return CGResult{}, err
	}
	return s.Run(a, tol, maxIter, h)
}

// CGState is the resumable state of a CG solve: the iterate, residual
// and search direction (one rank's rows in a distributed solve), rᵀr,
// ‖b‖₂ and the iterations completed. Run on a restored copy replays
// the exact floating-point trajectory from Iter on.
type CGState struct {
	X, R, P   []float64
	RR, BNorm float64
	Iter      int
}

// NewCGState starts a solve of A·x = b from the contents of x, which
// the state then updates in place: r = b − A·x and p = r.
func NewCGState(a Operator, x, b []float64, h Hooks) (*CGState, error) {
	n := a.Dim()
	if len(x) != n || len(b) != n {
		return nil, fmt.Errorf("solver: CG size mismatch |x|=%d |b|=%d dim=%d", len(x), len(b), n)
	}
	r := make([]float64, n)
	if err := a.Apply(r, x); err != nil {
		return nil, err
	}
	for i := range r {
		r[i] = b[i] - r[i]
	}
	rr, err := h.sum(Dot(r, r))
	if err != nil {
		return nil, err
	}
	bb, err := h.sum(Dot(b, b))
	if err != nil {
		return nil, err
	}
	bnorm := math.Sqrt(bb)
	if bnorm == 0 {
		bnorm = 1
	}
	return &CGState{X: x, R: r, P: append([]float64(nil), r...), RR: rr, BNorm: bnorm}, nil
}

// Run is the only CG loop: it iterates until ‖r‖₂ ≤ tol·‖b‖₂ or Iter
// reaches maxIter. Serial, distributed and recoverable solves differ
// only in their hooks.
func (s *CGState) Run(a Operator, tol float64, maxIter int, h Hooks) (CGResult, error) {
	x, r, p := s.X, s.R, s.P
	ap := make([]float64, len(x))
	res := CGResult{Iterations: s.Iter}
	for s.Iter < maxIter {
		if math.Sqrt(s.RR) <= tol*s.BNorm {
			break
		}
		if err := h.before(s.Iter); err != nil {
			return res, err
		}
		if err := a.Apply(ap, p); err != nil {
			return res, err
		}
		pap, err := h.sum(Dot(p, ap))
		if err != nil {
			return res, err
		}
		if pap <= 0 {
			return res, fmt.Errorf("solver: CG operator not positive definite (pᵀAp = %g)", pap)
		}
		alpha := s.RR / pap
		// One pass for x += α·p, r -= α·ap and the local part of rᵀr,
		// with the exact per-element expressions and summation order of
		// Axpy(α, p, x), Axpy(−α, ap, r) and Dot(r, r).
		na := -alpha
		rrNew := 0.0
		for i := range x {
			x[i] += alpha * p[i]
			r[i] += na * ap[i]
			rrNew += r[i] * r[i]
		}
		if rrNew, err = h.sum(rrNew); err != nil {
			return res, err
		}
		beta := rrNew / s.RR
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		s.RR = rrNew
		s.Iter++
		res.Iterations = s.Iter
		res.History = append(res.History, math.Sqrt(s.RR))
		h.after(s.Iter, math.Sqrt(s.RR))
	}
	res.Residual = math.Sqrt(s.RR)
	if res.Residual > tol*s.BNorm {
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
	v, err := PowerStart(v0, a.Dim(), 0)
	if err != nil {
		return PowerResult{}, err
	}
	res := PowerResult{Vector: v}
	err = Power(a, &res, tol, maxIter, Hooks{After: fanOut(probes)})
	return res, err
}

// PowerStart returns the start vector of a power iteration over the n
// rows lo, lo+1, …: a copy of v0, or a deterministic default when v0
// is nil.
func PowerStart(v0 []float64, n, lo int) ([]float64, error) {
	v := make([]float64, n)
	if v0 == nil {
		for i := range v {
			v[i] = 1 + 0.001*float64((lo+i)%17)
		}
		return v, nil
	}
	if len(v0) != n {
		return nil, fmt.Errorf("solver: power iteration |v0|=%d dim=%d", len(v0), n)
	}
	copy(v, v0)
	return v, nil
}

// Power is the only power-iteration loop, serial and distributed. It
// normalizes the start vector in res.Vector (other fields zero) as
// v/‖v‖, then steps until the eigenvalue estimate settles to tol or
// maxIter steps. res tracks the estimate and step count as it goes,
// for hooks that close over it.
func Power(a Operator, res *PowerResult, tol float64, maxIter int, h Hooks) error {
	v := res.Vector
	vv, err := h.sum(Dot(v, v))
	if err != nil {
		return err
	}
	norm := math.Sqrt(vv)
	if err := checkStart("power iteration", norm); err != nil {
		return err
	}
	for i := range v {
		v[i] /= norm
	}
	av := make([]float64, len(v))
	for res.Iterations < maxIter {
		if err := h.before(res.Iterations); err != nil {
			return err
		}
		if err := a.Apply(av, v); err != nil {
			return err
		}
		next, err := h.sum(Dot(v, av))
		if err != nil {
			return err
		}
		nn, err := h.sum(Dot(av, av))
		if err != nil {
			return err
		}
		nv := math.Sqrt(nn)
		if nv == 0 {
			return fmt.Errorf("solver: power iteration hit the null space")
		}
		for i := range v {
			v[i] = av[i] / nv
		}
		change := math.Abs(next - res.Eigenvalue)
		res.Eigenvalue = next
		res.Iterations++
		h.after(res.Iterations, change)
		if res.Iterations > 1 && change <= tol*math.Abs(next) {
			return nil
		}
	}
	return fmt.Errorf("%w: power iteration after %d steps", ErrNotConverged, maxIter)
}

// checkStart rejects a start vector whose norm is 0 or not finite:
// normalizing it would put NaN into every step.
func checkStart(method string, norm float64) error {
	if norm == 0 || math.IsInf(norm, 0) || math.IsNaN(norm) {
		return fmt.Errorf("solver: %s start vector has norm %g", method, norm)
	}
	return nil
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
	norm := Norm2(v)
	if err := checkStart("Lanczos", norm); err != nil {
		return LanczosResult{}, err
	}
	Scale(1/norm, v)

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
