package distsolver

import (
	"math"
	"testing"

	"pjds/internal/distmv"
	"pjds/internal/gpu"
	"pjds/internal/matgen"
	"pjds/internal/mpi"
	"pjds/internal/telemetry"
)

// TestDeviceOperatorMatchesHost runs the distributed operator through
// the GPU simulator and asserts the result is bit-identical to the
// host path — both sum each row in stored column order — while the
// virtual clock advances by the simulated kernel time.
func TestDeviceOperatorMatchesHost(t *testing.T) {
	m := matgen.Banded(2000, 4, 14, 151, 1)
	x := make([]float64, m.NRows)
	for i := range x {
		x[i] = math.Sin(0.013 * float64(i))
	}
	host, _ := runDistributed(t, m, 4, func(c *mpi.Comm, rp *distmv.RankProblem, out []float64) error {
		op := NewOperator(rp, c)
		return op.Apply(out, x[rp.RowLo:rp.RowHi])
	})
	dev, clocks := runDistributed(t, m, 4, func(c *mpi.Comm, rp *distmv.RankProblem, out []float64) error {
		op := NewOperator(rp, c)
		op.Inst = &Instrument{Metrics: telemetry.NewRegistry()}
		if err := op.UseDevice(gpu.TeslaC2050()); err != nil {
			return err
		}
		return op.Apply(out, x[rp.RowLo:rp.RowHi])
	})
	for i := range host {
		if math.Float64bits(host[i]) != math.Float64bits(dev[i]) {
			t.Fatalf("device y[%d] = %g, host %g (not bit-identical)", i, dev[i], host[i])
		}
	}
	for r, cl := range clocks {
		if cl <= 0 {
			t.Errorf("rank %d clock did not advance", r)
		}
	}
}

// TestDeviceCGMatchesHost solves the same SPD system with the host
// bytes/bandwidth operator and the device-simulated operator (enabled
// through Instrument.Device): iteration counts and the solution must
// agree exactly, since each application is bit-identical.
func TestDeviceCGMatchesHost(t *testing.T) {
	m := matgen.Stencil2D(30, 30)
	n := m.NRows
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Cos(0.07 * float64(i))
	}
	b := make([]float64, n)
	if err := m.MulVec(b, want); err != nil {
		t.Fatal(err)
	}
	solve := func(dev *gpu.Device) ([]float64, []int) {
		iters := make([]int, 4)
		got, _ := runDistributed(t, m, 4, func(c *mpi.Comm, rp *distmv.RankProblem, out []float64) error {
			x := make([]float64, rp.LocalRows())
			inst := &Instrument{Metrics: telemetry.NewRegistry(), Device: dev}
			res, err := CG(c, rp, x, b[rp.RowLo:rp.RowHi], 1e-11, 5000, inst)
			if err != nil {
				return err
			}
			iters[c.Rank()] = res.Iterations
			copy(out, x)
			return nil
		})
		return got, iters
	}
	hostX, hostIt := solve(nil)
	devX, devIt := solve(gpu.TeslaC2050())
	for r := range hostIt {
		if hostIt[r] != devIt[r] {
			t.Errorf("rank %d: device CG took %d iterations, host %d", r, devIt[r], hostIt[r])
		}
	}
	for i := range hostX {
		if math.Float64bits(hostX[i]) != math.Float64bits(devX[i]) {
			t.Fatalf("device solution diverges at %d: %g vs %g", i, devX[i], hostX[i])
		}
	}
	for i := range want {
		if math.Abs(devX[i]-want[i]) > 1e-7 {
			t.Fatalf("x[%d] = %g, want %g", i, devX[i], want[i])
		}
	}
}
