package solver

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pjds/internal/core"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
)

func TestVectorHelpers(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if Dot(x, y) != 4-10+18 {
		t.Error("dot")
	}
	if math.Abs(Norm2(x)-math.Sqrt(14)) > 1e-15 {
		t.Error("norm")
	}
	Axpy(2, x, y)
	if y[0] != 6 || y[1] != -1 || y[2] != 12 {
		t.Errorf("axpy: %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3 {
		t.Error("scale")
	}
}

func TestCGOnLaplacian(t *testing.T) {
	m := matgen.Stencil2D(30, 30)
	op := CSROperator{M: m}
	n := op.Dim()
	// Manufactured solution.
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Cos(0.05 * float64(i))
	}
	b := make([]float64, n)
	if err := m.MulVec(b, want); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	res, err := CG(op, x, b, 1e-10, 5000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-7 {
			t.Fatalf("x[%d] = %g, want %g (after %d iters)", i, x[i], want[i], res.Iterations)
		}
	}
	// Residual history must be recorded and end below tolerance·‖b‖.
	if len(res.History) != res.Iterations {
		t.Errorf("history length %d != iterations %d", len(res.History), res.Iterations)
	}
}

func TestCGErrors(t *testing.T) {
	m := matgen.Stencil2D(5, 5)
	op := CSROperator{M: m}
	if _, err := CG(op, make([]float64, 3), make([]float64, 25), 1e-8, 10); err == nil {
		t.Error("size mismatch accepted")
	}
	// Indefinite operator: -Laplacian.
	neg := m.Clone()
	for i := range neg.Val {
		neg.Val[i] = -neg.Val[i]
	}
	b := make([]float64, 25)
	b[0] = 1
	if _, err := CG(CSROperator{M: neg}, make([]float64, 25), b, 1e-8, 10); err == nil {
		t.Error("indefinite operator accepted")
	}
	// Not converged in 1 iteration.
	_, err := CG(op, make([]float64, 25), b, 1e-14, 1)
	if !errors.Is(err, ErrNotConverged) {
		t.Errorf("want ErrNotConverged, got %v", err)
	}
}

func TestCGZeroRHS(t *testing.T) {
	m := matgen.Stencil2D(6, 6)
	x := make([]float64, 36)
	res, err := CG(CSROperator{M: m}, x, make([]float64, 36), 1e-12, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 {
		t.Errorf("zero RHS took %d iterations", res.Iterations)
	}
}

// TestCGManufacturedSolution recovers a known x from b = A·x on SPD
// systems beyond the 2D Laplacian: a 3D stencil, random diagonally
// dominant matrices (whose jagged rows give pJDS a permutation that is
// not the identity, unlike a stencil's), and a nonzero initial guess.
func TestCGManufacturedSolution(t *testing.T) {
	for _, tc := range []struct {
		name  string
		m     *matrix.CSR[float64]
		pjds  bool
		guess float64
	}{
		{"stencil3d", matgen.Stencil3D(8, 8, 8), false, 0},
		{"random-spd", randomSPD(400, 3), false, 0},
		{"random-spd-pjds", randomSPD(400, 4), true, 0},
		{"nonzero-guess", matgen.Stencil2D(20, 20), false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.m.NRows
			want := make([]float64, n)
			for i := range want {
				want[i] = 1 + math.Sin(0.03*float64(i))
			}
			b := make([]float64, n)
			if err := tc.m.MulVec(b, want); err != nil {
				t.Fatal(err)
			}
			x := make([]float64, n)
			for i := range x {
				x[i] = tc.guess
			}
			var op Operator = CSROperator{M: tc.m}
			if tc.pjds {
				p, err := NewPermutedPJDS(tc.m, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				moved := 0
				for i, v := range p.Perm {
					if v != i {
						moved++
					}
				}
				if moved == 0 {
					t.Fatal("the row-length sort is the identity; the case exercises no permutation")
				}
				b = p.Enter(make([]float64, n), b)
				x = p.Enter(make([]float64, n), x)
				op = p
			}
			res, err := CG(op, x, b, 1e-11, 5000)
			if err != nil {
				t.Fatal(err)
			}
			if p, ok := op.(*PermutedPJDS); ok {
				x = p.Leave(make([]float64, n), x)
			}
			for i := range want {
				if math.Abs(x[i]-want[i]) > 1e-7 {
					t.Fatalf("x[%d] = %g, want %g (after %d iters)", i, x[i], want[i], res.Iterations)
				}
			}
		})
	}
}

// cgUnfused is CG with separate Axpy, Axpy and Dot passes for the x/r
// update, the reference the fused pass in CG must match bit for bit.
func cgUnfused(a Operator, x, b []float64, tol float64, maxIter int) (CGResult, error) {
	n := a.Dim()
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
			break
		}
		if err := a.Apply(ap, p); err != nil {
			return res, err
		}
		alpha := rr / Dot(p, ap)
		Axpy(alpha, p, x)
		Axpy(-alpha, ap, r)
		rrNew := Dot(r, r)
		beta := rrNew / rr
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rr = rrNew
		res.Iterations++
		res.History = append(res.History, math.Sqrt(rr))
	}
	res.Residual = math.Sqrt(rr)
	return res, nil
}

// randomSPD returns a random sparse symmetric, strictly diagonally
// dominant (hence positive definite) n×n matrix.
func randomSPD(n int, seed int64) *matrix.CSR[float64] {
	rng := rand.New(rand.NewSource(seed))
	coo := matrix.NewCOO[float64](n, n)
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.NormFloat64()
			coo.Add(i, j, v)
			coo.Add(j, i, v)
			diag[i] += math.Abs(v)
			diag[j] += math.Abs(v)
		}
	}
	for i, d := range diag {
		coo.Add(i, i, d+0.5+rng.Float64())
	}
	return coo.ToCSR()
}

// withoutVectorKernels runs CG's vector passes through the Go loops
// until the end of t.
func withoutVectorKernels(t testing.TB) {
	old := SetVectorKernels(false)
	t.Cleanup(func() { SetVectorKernels(old) })
}

// TestCGFusedUpdateBitIdentical: the fused x/r/rᵀr pass of CG leaves
// x, the iteration count and the residual history bit-identical to the
// unfused Axpy/Axpy/Dot reference, on the SIMD passes and on the Go
// loops.
func TestCGFusedUpdateBitIdentical(t *testing.T) {
	for _, mode := range []string{"simd", "go"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "go" {
				withoutVectorKernels(t)
			}
			testCGFusedUpdate(t)
		})
	}
}

func testCGFusedUpdate(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *matrix.CSR[float64]
	}{
		{"Stencil2D(32,32)", matgen.Stencil2D(32, 32)},
		{"random-SPD", randomSPD(500, 7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.m.NRows
			b := make([]float64, n)
			for i := range b {
				b[i] = math.Sin(0.3*float64(i)) + 0.25
			}
			x, xRef := make([]float64, n), make([]float64, n)
			res, err := CG(CSROperator{M: tc.m}, x, b, 1e-10, 2000)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := cgUnfused(CSROperator{M: tc.m}, xRef, b, 1e-10, 2000)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations != ref.Iterations || len(res.History) != len(ref.History) {
				t.Fatalf("iterations %d (history %d), reference %d (history %d)",
					res.Iterations, len(res.History), ref.Iterations, len(ref.History))
			}
			for i := range ref.History {
				if math.Float64bits(res.History[i]) != math.Float64bits(ref.History[i]) {
					t.Fatalf("History[%d] = %v, reference %v", i, res.History[i], ref.History[i])
				}
			}
			for i := range xRef {
				if math.Float64bits(x[i]) != math.Float64bits(xRef[i]) {
					t.Fatalf("x[%d] = %v, reference %v", i, x[i], xRef[i])
				}
			}
		})
	}
}

// diagOp is a diagonal operator with known spectrum.
type diagOp struct{ d []float64 }

func (o diagOp) Dim() int { return len(o.d) }
func (o diagOp) Apply(y, x []float64) error {
	for i := range x {
		y[i] = o.d[i] * x[i]
	}
	return nil
}

func TestPowerIterationDiagonal(t *testing.T) {
	d := make([]float64, 50)
	for i := range d {
		d[i] = float64(i + 1)
	}
	res, err := PowerIteration(diagOp{d}, nil, 1e-12, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Eigenvalue-50) > 1e-6 {
		t.Errorf("dominant eigenvalue = %g, want 50", res.Eigenvalue)
	}
	// Eigenvector concentrates on the last coordinate.
	if math.Abs(math.Abs(res.Vector[49])-1) > 1e-4 {
		t.Errorf("eigenvector[49] = %g", res.Vector[49])
	}
}

func TestPowerIterationErrors(t *testing.T) {
	if _, err := PowerIteration(diagOp{make([]float64, 4)}, []float64{1}, 1e-10, 5); err == nil {
		t.Error("bad v0 size accepted")
	}
	// A zero start vector is rejected before the first apply.
	applies := 0
	counting := OperatorFunc{N: 2, F: func(y, x []float64) error { applies++; copy(y, x); return nil }}
	if _, err := PowerIteration(counting, []float64{0, 0}, 1e-10, 5); err == nil || applies > 0 {
		t.Errorf("zero v0: err %v after %d applies", err, applies)
	}
	// Null operator: hits the null space.
	if _, err := PowerIteration(diagOp{make([]float64, 4)}, nil, 1e-10, 5); err == nil {
		t.Error("null operator should error")
	}
	// Non-convergence propagates.
	d := []float64{1, 1.0000001}
	_, err := PowerIteration(diagOp{d}, []float64{1, 1}, 1e-15, 2)
	if !errors.Is(err, ErrNotConverged) {
		t.Errorf("want ErrNotConverged, got %v", err)
	}
}

func TestTridiagEigenvalues(t *testing.T) {
	// 2x2: [[2,1],[1,2]] → {1,3}.
	ev, err := TridiagEigenvalues([]float64{2, 2}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev[0]-1) > 1e-12 || math.Abs(ev[1]-3) > 1e-12 {
		t.Errorf("eigenvalues = %v", ev)
	}
	// Known: tridiag(-1, 2, -1) of size n has eigenvalues
	// 2−2cos(kπ/(n+1)).
	n := 12
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2
	}
	for i := range e {
		e[i] = -1
	}
	ev, err = TridiagEigenvalues(d, e)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
		if math.Abs(ev[k-1]-want) > 1e-10 {
			t.Fatalf("ev[%d] = %g, want %g", k-1, ev[k-1], want)
		}
	}
	// Degenerate inputs.
	if _, err := TridiagEigenvalues([]float64{1, 2}, []float64{}); err == nil {
		t.Error("inconsistent sizes accepted")
	}
	if ev, _ := TridiagEigenvalues(nil, nil); ev != nil {
		t.Error("empty system")
	}
}

func TestLanczosExtremalEigenvalues(t *testing.T) {
	// Diagonal spectrum 1..100: after enough steps the extremal Ritz
	// values converge first.
	d := make([]float64, 100)
	for i := range d {
		d[i] = float64(i + 1)
	}
	res, err := Lanczos(diagOp{d}, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	ritz := res.RitzValues
	if math.Abs(ritz[len(ritz)-1]-100) > 1e-4 {
		t.Errorf("max Ritz = %g, want 100", ritz[len(ritz)-1])
	}
	if math.Abs(ritz[0]-1) > 1e-4 {
		t.Errorf("min Ritz = %g, want 1", ritz[0])
	}
}

func TestLanczosOnLaplacian(t *testing.T) {
	m := matgen.Stencil2D(20, 20)
	res, err := Lanczos(CSROperator{M: m}, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Largest eigenvalue of the 2D Laplacian stencil:
	// 4 + 2cos(π/(n+1)) + ... → max = 8 sin²-form; for 20×20:
	// λmax = 4 + 4cos(π/21) ≈ 7.955.
	want := 4 + 4*math.Cos(math.Pi/21)
	got := res.RitzValues[len(res.RitzValues)-1]
	if math.Abs(got-want) > 1e-3 {
		t.Errorf("λmax = %g, want %g", got, want)
	}
}

func TestLanczosValidation(t *testing.T) {
	if _, err := Lanczos(diagOp{[]float64{1, 2}}, 0, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Lanczos(diagOp{[]float64{1, 2}}, 2, []float64{1}); err == nil {
		t.Error("bad v0 accepted")
	}
	applies := 0
	counting := OperatorFunc{N: 2, F: func(y, x []float64) error { applies++; copy(y, x); return nil }}
	if _, err := Lanczos(counting, 2, []float64{0, 0}); err == nil || applies > 0 {
		t.Errorf("zero v0: err %v after %d applies", err, applies)
	}
	// k > n clamps.
	res, err := Lanczos(diagOp{[]float64{3, 7}}, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps > 2 {
		t.Errorf("steps = %d for a 2-dim operator", res.Steps)
	}
}

func TestPermutedPJDSEquivalence(t *testing.T) {
	m := matgen.Banded(600, 3, 17, 40, 5)
	op, err := NewPermutedPJDS(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The inner sort is the identity, so the pJDS form stores none.
	if op.P.Perm != nil {
		t.Fatalf("P.Perm has %d entries, want nil", len(op.P.Perm))
	}
	x := make([]float64, 600)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	// Apply in permuted basis == permuted apply in original basis.
	xp := op.Enter(make([]float64, 600), x)
	yp := make([]float64, 600)
	if err := op.Apply(yp, xp); err != nil {
		t.Fatal(err)
	}
	y := op.Leave(make([]float64, 600), yp)
	ref := make([]float64, 600)
	if err := m.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if math.Abs(y[i]-ref[i]) > 1e-10*(1+math.Abs(ref[i])) {
			t.Fatalf("y[%d] = %g, want %g", i, y[i], ref[i])
		}
	}
}

func TestPermutedPJDSRejectsRectangular(t *testing.T) {
	coo := matrix.NewCOO[float64](3, 4)
	coo.Add(0, 3, 1)
	if _, err := NewPermutedPJDS(coo.ToCSR(), core.Options{}); err == nil {
		t.Error("rectangular accepted")
	}
}

// TestCGInPermutedBasis is the paper's §II-A workflow: permute once,
// run the entire CG iteration on the pJDS kernel, permute back.
func TestCGInPermutedBasis(t *testing.T) {
	m := matgen.Stencil2D(25, 25)
	n := m.NRows
	op, err := NewPermutedPJDS(m, core.Options{BlockHeight: 32})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Sin(0.1 * float64(i))
	}
	b := make([]float64, n)
	if err := m.MulVec(b, want); err != nil {
		t.Fatal(err)
	}
	// Enter the permuted basis once.
	bp := op.Enter(make([]float64, n), b)
	xp := make([]float64, n)
	if _, err := CG(op, xp, bp, 1e-11, 5000); err != nil {
		t.Fatal(err)
	}
	// Leave once.
	x := op.Leave(make([]float64, n), xp)
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-7 {
			t.Fatalf("permuted-basis CG x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

// Property: OperatorFunc round-trips arbitrary linear maps.
func TestOperatorFunc(t *testing.T) {
	f := func(a0, b0 float64) bool {
		a := math.Mod(a0, 1e6)
		b := math.Mod(b0, 1e6)
		if math.IsNaN(a) || math.IsNaN(b) {
			a, b = 1, 2
		}
		op := OperatorFunc{N: 2, F: func(y, x []float64) error {
			y[0] = a*x[0] + b*x[1]
			y[1] = b*x[0] + a*x[1]
			return nil
		}}
		y := make([]float64, 2)
		if op.Apply(y, []float64{1, 1}) != nil {
			return false
		}
		return op.Dim() == 2 && math.Abs(y[0]-(a+b)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
