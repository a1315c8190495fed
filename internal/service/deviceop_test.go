package service

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/solver"
	"pjds/internal/telemetry"
)

// oneDeviceServer stores m in a one-device server and returns its entry.
func oneDeviceServer(t *testing.T, m *matrix.CSR[float64]) (*Server, *matrixEntry) {
	t.Helper()
	var buf bytes.Buffer
	if err := matrix.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Registry: telemetry.NewRegistry(), Devices: 1})
	t.Cleanup(s.Close)
	info, err := s.AddMatrix("m", &buf)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	return s, e
}

// TestDeviceApplyMatchesHostKernel: every device-tier application of
// the request operator is bit-identical to the host pJDS operator, and
// the device compiles the matrix's plan once and replays it after.
func TestDeviceApplyMatchesHostKernel(t *testing.T) {
	s, e := oneDeviceServer(t, matgen.Banded(1200, 3, 17, 77, 1))
	op := s.newApplyOp(context.Background(), e)
	defer op.close()
	if op.d == nil {
		t.Fatal("no device acquired")
	}
	before := s.plans.Stats()
	rng := rand.New(rand.NewSource(5))
	xp := make([]float64, op.Dim())
	yd := make([]float64, op.Dim())
	yh := make([]float64, op.Dim())
	const applies = 5
	for k := 0; k < applies; k++ {
		for i := range xp {
			xp[i] = rng.NormFloat64()
		}
		if err := op.Apply(yd, xp); err != nil {
			t.Fatal(err)
		}
		if err := e.op.Apply(yh, xp); err != nil {
			t.Fatal(err)
		}
		for i := range yh {
			if math.Float64bits(yh[i]) != math.Float64bits(yd[i]) {
				t.Fatalf("apply %d: y[%d] = %g on device, %g on host", k, i, yd[i], yh[i])
			}
		}
	}
	if op.tierName() != "device" {
		t.Fatalf("applies ran on the %s tier", op.tierName())
	}
	if n := op.d.applies.Load(); n != applies {
		t.Errorf("device applies = %d, want %d", n, applies)
	}
	after := s.plans.Stats()
	if c, h := after.Compiles-before.Compiles, after.Hits-before.Hits; c != 1 || h != applies-1 {
		t.Errorf("plan cache: %d compiles and %d hits, want 1 and %d", c, h, applies-1)
	}
}

// TestDeviceCGMatchesHostCG runs a full CG solve through the device-tier
// operator and checks it follows the host-operator solve iteration for
// iteration, to the bit, and recovers the known solution.
func TestDeviceCGMatchesHostCG(t *testing.T) {
	m := matgen.Stencil2D(25, 25)
	s, e := oneDeviceServer(t, m)
	n := m.NRows
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Sin(0.04 * float64(i))
	}
	b := make([]float64, n)
	if err := m.MulVec(b, want); err != nil {
		t.Fatal(err)
	}
	bp := e.op.Enter(make([]float64, n), b)
	solve := func(op solver.Operator) ([]float64, solver.CGResult) {
		xp := make([]float64, n)
		res, err := solver.CG(op, xp, bp, 1e-11, 5000)
		if err != nil {
			t.Fatal(err)
		}
		return xp, res
	}
	xh, rh := solve(e.op)
	dev := s.newApplyOp(context.Background(), e)
	defer dev.close()
	xd, rd := solve(dev)
	if dev.tierName() != "device" {
		t.Fatalf("solve ran on the %s tier", dev.tierName())
	}
	if rh.Iterations != rd.Iterations {
		t.Errorf("device CG took %d iterations, host %d", rd.Iterations, rh.Iterations)
	}
	for i := range xh {
		if math.Float64bits(xh[i]) != math.Float64bits(xd[i]) {
			t.Fatalf("solutions diverge at %d: %g vs %g", i, xd[i], xh[i])
		}
	}
	x := e.op.Leave(make([]float64, n), xd)
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-7 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
	// One application per iteration plus the initial residual.
	if got := dev.d.applies.Load(); got != int64(rd.Iterations+1) {
		t.Errorf("device applies = %d, iterations = %d", got, rd.Iterations)
	}
}

// TestDevicePlanAmortisedAcrossRequests: a solve and the SpMVs after it
// on one matrix compile its device plan once; every later application,
// in the same request or the next, replays it.
func TestDevicePlanAmortisedAcrossRequests(t *testing.T) {
	s, e := oneDeviceServer(t, matgen.Stencil2D(20, 20))
	before := s.plans.Stats()
	ctx := context.Background()
	res, err := s.Solve(ctx, e, SolveRequest{Seed: 5})
	if err != nil || !res.Converged || res.Tier != "device" {
		t.Fatalf("solve: %+v, %v", res, err)
	}
	const spmvs = 3
	for k := 0; k < spmvs; k++ {
		r, err := s.SpMV(ctx, e, SpMVRequest{Seed: uint64(k + 1)})
		if err != nil || r.Tier != "device" {
			t.Fatalf("spmv %d: %+v, %v", k, r, err)
		}
	}
	d := <-s.devPool
	s.devPool <- d
	applies := int64(res.Iterations + 1 + spmvs)
	if got := d.applies.Load(); got != applies {
		t.Errorf("device applies = %d, want %d (solve of %d iterations, %d SpMVs)", got, applies, res.Iterations, spmvs)
	}
	after := s.plans.Stats()
	if c, h := after.Compiles-before.Compiles, after.Hits-before.Hits; c != 1 || h != applies-1 {
		t.Errorf("plan cache: %d compiles and %d hits over %d applies, want 1 and %d", c, h, applies, applies-1)
	}
}
