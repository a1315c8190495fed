package pjds

import (
	"bytes"
	"math"
	"testing"
)

// TestFacadeEndToEnd walks the README quick-start path through the
// public API: generate, convert, simulate, verify.
func TestFacadeEndToEnd(t *testing.T) {
	m := Generate("sAMG", 0.01)
	st := ComputeStats(m)
	if st.Rows == 0 || st.Nnz == 0 {
		t.Fatal("empty generated matrix")
	}
	p, err := NewPJDS(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1 + math.Sin(float64(i))
	}
	dev := TeslaC2070()
	yp := make([]float64, p.NPad)
	ks, err := RunPJDS(dev, p, yp, x)
	if err != nil {
		t.Fatal(err)
	}
	if ks.GFlops <= 0 {
		t.Error("no performance estimate")
	}
	// Scatter back and compare with the reference.
	y := make([]float64, m.NRows)
	for i, old := range p.Perm {
		y[old] = yp[i]
	}
	ref := make([]float64, m.NRows)
	if err := m.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if math.Abs(y[i]-ref[i]) > 1e-10*(1+math.Abs(ref[i])) {
			t.Fatalf("y[%d] mismatch", i)
		}
	}
}

func TestFacadeFormats(t *testing.T) {
	m := Generate("DLR1", 0.01)
	ell := NewELLPACK(m)
	ellr := NewELLPACKR(m)
	p, err := NewPJDS(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	jds, err := NewJDS(m)
	if err != nil {
		t.Fatal(err)
	}
	sell, err := NewSlicedELL(m, 32, m.NRows)
	if err != nil {
		t.Fatal(err)
	}
	red := DataReduction(ell, p)
	if red <= 0 || red >= 1 {
		t.Errorf("reduction = %g", red)
	}
	for _, f := range []Format{ell, ellr, p, jds, sell} {
		if f.NonZeros() != m.Nnz() {
			t.Errorf("%s: nnz mismatch", f.Name())
		}
	}
}

func TestFacadeSolver(t *testing.T) {
	m := Stencil2D(20, 20)
	op, err := NewPermutedPJDS(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := m.NRows
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	bp := op.Enter(make([]float64, n), b)
	xp := make([]float64, n)
	if _, err := CG(op, xp, bp, 1e-10, 2000); err != nil {
		t.Fatal(err)
	}
	x := op.Leave(make([]float64, n), xp)
	// Verify A·x = b.
	ax := make([]float64, n)
	if err := m.MulVec(ax, x); err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-6 {
			t.Fatalf("residual at %d: %g", i, ax[i]-b[i])
		}
	}
	// Eigen paths.
	lr, err := Lanczos(op, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.RitzValues) == 0 {
		t.Error("no Ritz values")
	}
	if _, err := PowerIteration(op, nil, 1e-8, 5000); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCluster(t *testing.T) {
	m := Generate("sAMG", 0.005)
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = float64(i%5) + 1
	}
	res, err := RunCluster(m, x, 4, TaskMode, ClusterConfig{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, m.NRows)
	if err := m.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if math.Abs(res.Y[i]-ref[i]) > 1e-9*(1+math.Abs(ref[i])) {
			t.Fatalf("cluster y[%d] mismatch", i)
		}
	}
	if QDRInfiniBand().Validate() != nil || PCIeGen2x16().Validate() != nil {
		t.Error("default models invalid")
	}
	if TeslaC2050().MemBytes >= TeslaC2070().MemBytes {
		t.Error("device presets")
	}
}

func TestFacadeDistributedSolvers(t *testing.T) {
	m := Stencil2D(30, 30)
	n := m.NRows
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Sin(0.04 * float64(i))
	}
	b := make([]float64, n)
	if err := m.MulVec(b, want); err != nil {
		t.Fatal(err)
	}
	problems, err := Distribute(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	if _, err := RunRanks(4, func(c *ClusterComm) error {
		rp := problems[c.Rank()]
		x := make([]float64, rp.LocalRows())
		if _, err := DistributedCG(c, rp, x, b[rp.RowLo:rp.RowHi], 1e-10, 4000); err != nil {
			return err
		}
		copy(got[rp.RowLo:rp.RowHi], x)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	// Power iteration facade path.
	if _, err := RunRanks(2, func(c *ClusterComm) error {
		problems2, err := Distribute(m, 2)
		if err != nil {
			return err
		}
		_, err = DistributedPowerIteration(c, problems2[c.Rank()], nil, 1e-6, 5000)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeNewFormats(t *testing.T) {
	m := Generate("DLR2", 0.003)
	bell, err := NewBELLPACK(m, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	ert, err := NewELLRT(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1
	}
	ref := make([]float64, m.NRows)
	if err := m.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	d := TeslaC2070()
	for _, run := range []func(y []float64) (*KernelStats, error){
		func(y []float64) (*KernelStats, error) { return RunBELLPACK(d, bell, y, x) },
		func(y []float64) (*KernelStats, error) { return RunELLRT(d, ert, y, x) },
	} {
		y := make([]float64, m.NRows)
		st, err := run(y)
		if err != nil {
			t.Fatal(err)
		}
		if st.GFlops <= 0 {
			t.Error("no estimate")
		}
		for i := range y {
			if math.Abs(y[i]-ref[i]) > 1e-9*(1+math.Abs(ref[i])) {
				t.Fatalf("mismatch at %d", i)
			}
		}
	}
	// CG + RCM facade paths, on an SPD system: solve s·x = s·1.
	p := RCM(m)
	if !p.Valid() {
		t.Fatal("invalid RCM perm")
	}
	s := Stencil2D(20, 20)
	xg, sref := make([]float64, s.NRows), make([]float64, s.NRows)
	for i := range xg {
		xg[i] = 1
	}
	if err := s.MulVec(sref, xg); err != nil {
		t.Fatal(err)
	}
	clear(xg)
	if _, err := CG(csrOp{s}, xg, sref, 1e-8, 4000); err != nil {
		t.Fatal(err)
	}
	for i := range xg {
		if math.Abs(xg[i]-1) > 1e-5 {
			t.Fatalf("CG solution off at %d", i)
		}
	}
}

func TestFacadeMatrixMarketRoundTrip(t *testing.T) {
	m := Generate("sAMG", 0.002)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back, 0) {
		t.Fatal("round trip changed matrix")
	}
	coo := NewCOO(2, 2)
	coo.Add(0, 1, 3)
	if coo.ToCSR().At(0, 1) != 3 {
		t.Error("COO path")
	}
}

func TestGenerateUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate("nope", 1)
}
