package pjds

// Integration tests: cross-module pipelines a downstream user would
// actually run, end to end, with every stage verified against an
// independent reference.

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestPipelineFileToClusterSolve walks the full life of a matrix:
// written to a MatrixMarket file, read back, analysed by the advisor,
// converted to pJDS, multiplied on the simulated GPU, distributed
// across a simulated cluster, and finally used inside a permuted-basis
// CG solve — with cross-checks at every hand-off.
func TestPipelineFileToClusterSolve(t *testing.T) {
	// Stage 1: build and round-trip through the exchange format.
	orig := Stencil2D(40, 40)
	path := filepath.Join(t.TempDir(), "lap.mtx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMatrixMarket(f, orig); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadMatrixMarket(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Equal(m, 0) {
		t.Fatal("file round trip changed the matrix")
	}

	// Stage 2: advisor sanity (constant rows, tiny Nnzr → CPU,
	// ELLPACK-R).
	rec := Recommend(ComputeStats(m))
	if rec.Format == "" || len(rec.Reasons) == 0 {
		t.Fatal("advisor gave no answer")
	}

	// Stage 3: GPU spMVM vs CRS.
	n := m.NRows
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(0.03 * float64(i))
	}
	ref := make([]float64, n)
	if err := m.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	p, err := NewPJDS(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	yp := make([]float64, p.NPad)
	if _, err := RunPJDS(TeslaC2070(), p, yp, x); err != nil {
		t.Fatal(err)
	}
	y := make([]float64, n)
	for i, old := range p.Perm {
		y[old] = yp[i]
	}
	for i := range ref {
		if math.Abs(y[i]-ref[i]) > 1e-10 {
			t.Fatalf("GPU result differs at %d", i)
		}
	}

	// Stage 4: distributed spMVM on 5 nodes, all modes.
	for _, mode := range []Mode{VectorMode, NaiveOverlap, TaskMode} {
		res, err := RunCluster(m, x, 5, mode, ClusterConfig{Iterations: 1})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for i := range ref {
			if math.Abs(res.Y[i]-ref[i]) > 1e-10 {
				t.Fatalf("%v: cluster result differs at %d", mode, i)
			}
		}
	}

	// Stage 5: permuted-basis CG solve against the known solution.
	op, err := NewPermutedPJDS(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bp := op.Enter(make([]float64, n), ref) // solve A·x = A·x_ref
	xp := make([]float64, n)
	if _, err := CG(op, xp, bp, 1e-11, 5000); err != nil {
		t.Fatal(err)
	}
	got := op.Leave(make([]float64, n), xp)
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-6 {
			t.Fatalf("CG solution differs at %d: %g vs %g", i, got[i], x[i])
		}
	}
}

// TestPipelineRCMThenPJDSSolve chains the reordering tools: RCM to
// recover locality, symmetric permutation, CG on the reordered
// system, and mapping the solution back.
func TestPipelineRCMThenPJDSSolve(t *testing.T) {
	// A scrambled banded SPD system.
	base := Stencil2D(30, 30)
	n := base.NRows
	scramble := RCM(base) // any valid permutation works for scrambling
	// Reverse it to actually scramble (RCM of a stencil is tame, so
	// compose with a deterministic shuffle).
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		scramble[i], scramble[j] = scramble[j], scramble[i]
	}
	m := PermuteSymmetric(base, scramble)

	// Recover locality.
	p := RCM(m)
	rm := PermuteSymmetric(m, p)

	// Solve rm·z = pb with CG, then undo both perms.
	want := make([]float64, n)
	for i := range want {
		want[i] = 1 + math.Cos(0.02*float64(i))
	}
	b := make([]float64, n)
	if err := m.MulVec(b, want); err != nil {
		t.Fatal(err)
	}
	pb := make([]float64, n)
	for i, old := range p {
		pb[i] = b[old]
	}
	op := csrOp{rm}
	z := make([]float64, n)
	if _, err := CG(op, z, pb, 1e-12, 8000); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	for i, old := range p {
		got[old] = z[i]
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-7 {
			t.Fatalf("solution differs at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

type csrOp struct{ m *CSR }

func (o csrOp) Dim() int                   { return o.m.NRows }
func (o csrOp) Apply(y, x []float64) error { return o.m.MulVec(y, x) }

// TestPipelineEigenBothBases cross-checks the eigensolvers: Lanczos in
// the permuted pJDS basis against power iteration in the original
// basis, on a generated Hamiltonian-like matrix.
func TestPipelineEigenBothBases(t *testing.T) {
	raw := Generate("HMEp", 0.002)
	m, err := Symmetrize(raw)
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewPermutedPJDS(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := Lanczos(op, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := PowerIteration(csrOp{m}, nil, 1e-11, 50000)
	if err != nil {
		t.Fatal(err)
	}
	lmax := lr.RitzValues[len(lr.RitzValues)-1]
	if math.Abs(lmax-pr.Eigenvalue) > 1e-5*(1+math.Abs(pr.Eigenvalue)) {
		t.Fatalf("Lanczos %.8f vs power iteration %.8f", lmax, pr.Eigenvalue)
	}
}

// TestPipelineExportImportStats: generated matrices survive export and
// re-import with identical structure statistics.
func TestPipelineExportImportStats(t *testing.T) {
	m := Generate("sAMG", 0.003)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := ComputeStats(m), ComputeStats(back)
	if a != b {
		t.Fatalf("stats changed: %+v vs %+v", a, b)
	}
}
