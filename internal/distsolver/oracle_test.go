package distsolver

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"pjds/internal/distmv"
	"pjds/internal/gpu"
	"pjds/internal/hostkernel"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/mpi"
	"pjds/internal/simnet"
	"pjds/internal/solver"
	"pjds/internal/telemetry"
)

// bitsDigest hashes the Float64bits of v, so two vectors share a digest
// only when they are bit-identical.
func bitsDigest(v []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range v {
		u := math.Float64bits(f)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// cgSystem is the SPD stencil system of TestDeviceCGMatchesHost.
func cgSystem(t *testing.T) (*matrix.CSR[float64], []float64) {
	t.Helper()
	m := matgen.Stencil2D(30, 30)
	want := make([]float64, m.NRows)
	for i := range want {
		want[i] = math.Cos(0.07 * float64(i))
	}
	b := make([]float64, m.NRows)
	if err := m.MulVec(b, want); err != nil {
		t.Fatal(err)
	}
	return m, b
}

// powerSystem is the defect-weighted stencil of
// TestDistributedPowerIteration: a well-separated top eigenvalue.
func powerSystem() *matrix.CSR[float64] {
	m := matgen.Stencil2D(60, 60)
	for k := m.RowPtr[0]; k < m.RowPtr[1]; k++ {
		if m.ColIdx[k] == 0 {
			m.Val[k] = 40
		}
	}
	return m
}

// distCG runs distsolver.CG from x = 0 over p ranks and returns the
// assembled solution with rank 0's result.
func distCG(t *testing.T, m *matrix.CSR[float64], b []float64, p int, dev *gpu.Device) ([]float64, CGResult) {
	t.Helper()
	var res CGResult
	x, _ := runDistributed(t, m, p, func(c *mpi.Comm, rp *distmv.RankProblem, out []float64) error {
		inst := &Instrument{Metrics: telemetry.NewRegistry(), Device: dev}
		r, err := CG(c, rp, out, b[rp.RowLo:rp.RowHi], 1e-11, 5000, inst)
		if c.Rank() == 0 {
			res = r
		}
		return err
	})
	return x, res
}

// distPower runs distsolver.PowerIteration from the default start over
// p ranks and returns the assembled vector with rank 0's eigenvalue.
func distPower(t *testing.T, m *matrix.CSR[float64], p int) ([]float64, PowerResult) {
	t.Helper()
	var res PowerResult
	v, _ := runDistributed(t, m, p, func(c *mpi.Comm, rp *distmv.RankProblem, out []float64) error {
		r, err := PowerIteration(c, rp, nil, 1e-12, 20000, &Instrument{Metrics: telemetry.NewRegistry()})
		copy(out, r.Vector)
		if c.Rank() == 0 {
			res = r
		}
		return err
	})
	return v, res
}

// TestDistributedResultsPinned pins the bits of the 5-rank distributed
// CG (host and device operator) and power iteration to the values the
// per-method loops of distsolver produced before both moved onto the
// shared loops of internal/solver. The host operator runs once per
// hostkernel kind, each the process default in turn, so the split
// local/non-local product (the non-local block accumulating into y,
// through the row permutation for sell) holds the same pins on all.
func TestDistributedResultsPinned(t *testing.T) {
	m, b := cgSystem(t)
	const digest, iters, resid = "278c13d3cea634cd", 101, uint64(0x3dff0e13cb1d86dc)
	cg := func(t *testing.T, kind hostkernel.Kind, dev *gpu.Device) {
		if err := hostkernel.SetDefaultKind(kind); err != nil {
			t.Fatal(err)
		}
		x, res := distCG(t, m, b, 5, dev)
		if got := bitsDigest(x); got != digest {
			t.Errorf("CG: x digest %s, pinned %s", got, digest)
		}
		if res.Iterations != iters {
			t.Errorf("CG: %d iterations, pinned %d", res.Iterations, iters)
		}
		if got := math.Float64bits(res.Residual); got != resid {
			t.Errorf("CG: residual bits %#x, pinned %#x", got, resid)
		}
	}
	defer func(k hostkernel.Kind) { _ = hostkernel.SetDefaultKind(k) }(hostkernel.DefaultKind()) // a valid kind: cannot fail
	for _, k := range hostkernel.Kinds() {
		t.Run("host-"+string(k), func(t *testing.T) { cg(t, k, nil) })
	}
	t.Run("device", func(t *testing.T) { cg(t, hostkernel.KindSELL, gpu.TeslaC2050()) })

	v, pr := distPower(t, powerSystem(), 5)
	if got, pin := bitsDigest(v), "f1d8fe439583ee0d"; got != pin {
		t.Errorf("power: vector digest %s, pinned %s", got, pin)
	}
	if pr.Iterations != 9 {
		t.Errorf("power: %d iterations, pinned 9", pr.Iterations)
	}
	if got, pin := math.Float64bits(pr.Eigenvalue), uint64(0x4044071dda350755); got != pin {
		t.Errorf("power: eigenvalue bits %#x, pinned %#x", got, pin)
	}
}

// TestOneRankMatchesSerial is the one-rank oracle: at P = 1 the
// reductions are identities, so distributed CG, fault-free
// RecoverableCG and distributed power iteration must reproduce the
// serial solver bit for bit.
func TestOneRankMatchesSerial(t *testing.T) {
	m, b := cgSystem(t)
	xs := make([]float64, m.NRows)
	want, err := solver.CG(solver.CSROperator{M: m}, xs, b, 1e-11, 5000)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, x []float64, res CGResult) {
		t.Helper()
		if bitsDigest(x) != bitsDigest(xs) {
			t.Errorf("%s: x not bit-identical to serial CG", name)
		}
		if res.Iterations != want.Iterations || math.Float64bits(res.Residual) != math.Float64bits(want.Residual) {
			t.Errorf("%s: %d iterations, residual %v; serial %d, %v",
				name, res.Iterations, res.Residual, want.Iterations, want.Residual)
		}
	}
	x, res := distCG(t, m, b, 1, nil)
	check("distsolver.CG", x, res)

	pt, err := distmv.PartitionByRows(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	problems, err := distmv.Distribute(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	rres, rx, err := RecoverableCG(simnet.QDRInfiniBand(), problems, b, nil,
		RecoverConfig{Tol: 1e-11, MaxIter: 5000, CheckpointEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	check("RecoverableCG", rx, rres.CG)

	pm := powerSystem()
	ps, err := solver.PowerIteration(solver.CSROperator{M: pm}, nil, 1e-12, 20000)
	if err != nil {
		t.Fatal(err)
	}
	v, pr := distPower(t, pm, 1)
	if math.Float64bits(pr.Eigenvalue) != math.Float64bits(ps.Eigenvalue) || pr.Iterations != ps.Iterations {
		t.Errorf("power: lambda %v after %d; serial %v after %d", pr.Eigenvalue, pr.Iterations, ps.Eigenvalue, ps.Iterations)
	}
	diff := 0
	for i := range v {
		if math.Float64bits(v[i]) != math.Float64bits(ps.Vector[i]) {
			diff++
		}
	}
	if diff > 0 {
		t.Errorf("power: %d of %d vector entries differ from serial", diff, len(v))
	}
}
