package distsolver

import (
	"math"
	"strings"
	"testing"

	"pjds/internal/distmv"
	"pjds/internal/faults"
	"pjds/internal/gpu"
	"pjds/internal/matgen"
	"pjds/internal/mpi"
	"pjds/internal/simnet"
	"pjds/internal/telemetry"
)

// recoverProblem builds a 4-rank SPD test system with a known solution.
func recoverProblem(t *testing.T) ([]*distmv.RankProblem, []float64, []float64) {
	t.Helper()
	m := matgen.Stencil2D(24, 24)
	n := m.NRows
	pt, err := distmv.PartitionByRows(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	problems, err := distmv.Distribute(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Sin(0.05 * float64(i))
	}
	b := make([]float64, n)
	if err := m.MulVec(b, want); err != nil {
		t.Fatal(err)
	}
	return problems, b, want
}

func runRecover(t *testing.T, problems []*distmv.RankProblem, b []float64, cfg RecoverConfig) (*RecoverResult, []float64) {
	t.Helper()
	res, x, err := RecoverableCG(simnet.QDRInfiniBand(), problems, b, nil, cfg)
	if err != nil {
		t.Fatalf("RecoverableCG: %v (failures: %v)", err, res.Failures)
	}
	return res, x
}

// TestRecoverableCGMatchesPlainCG: with no faults, the recoverable
// driver reproduces plain CG bit-for-bit — checkpoints are pure
// snapshots that never perturb the arithmetic.
func TestRecoverableCGMatchesPlainCG(t *testing.T) {
	problems, b, _ := recoverProblem(t)
	n := problems[0].GlobalN
	cfg := RecoverConfig{Tol: 1e-10, MaxIter: 2000, CheckpointEvery: 7}
	res, x := runRecover(t, problems, b, cfg)

	xPlain := make([]float64, n)
	var plain CGResult
	_, err := mpi.Run(problems[0].P, simnet.QDRInfiniBand(), func(c *mpi.Comm) error {
		rp := problems[c.Rank()]
		xl := make([]float64, rp.LocalRows())
		r, err := CG(c, rp, xl, b[rp.RowLo:rp.RowHi], 1e-10, 2000)
		if err != nil {
			return err
		}
		copy(xPlain[rp.RowLo:rp.RowHi], xl)
		if c.Rank() == 0 {
			plain = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CG.Iterations != plain.Iterations {
		t.Errorf("recoverable CG took %d iterations, plain %d", res.CG.Iterations, plain.Iterations)
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(xPlain[i]) {
			t.Fatalf("solutions diverge at %d: %g vs %g", i, x[i], xPlain[i])
		}
	}
	if res.Checkpoints == 0 || res.Restarts != 0 {
		t.Errorf("checkpoints=%d restarts=%d on a healthy run", res.Checkpoints, res.Restarts)
	}
}

// TestCrashRecoveryBitExact: a rank crash mid-solve triggers rollback
// to the last checkpoint, re-hosting, and a solution bit-identical to
// the fault-free run.
func TestCrashRecoveryBitExact(t *testing.T) {
	problems, b, want := recoverProblem(t)
	base := RecoverConfig{Tol: 1e-10, MaxIter: 2000, CheckpointEvery: 10}
	_, xClean := runRecover(t, problems, b, base)

	plan := mustParse(t, 7, "crash rank=2 iter=25")
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanLog()
	cfg := base
	cfg.Schedule = plan
	cfg.Inst = &Instrument{Metrics: reg, Spans: spans}
	res, x := runRecover(t, problems, b, cfg)

	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (failures: %v)", res.Restarts, res.Failures)
	}
	if len(res.DeadRanks) != 1 || res.DeadRanks[0] != 2 || res.HostOf[2] != 3 {
		t.Errorf("dead=%v hostOf=%v, want rank 2 re-hosted on 3", res.DeadRanks, res.HostOf)
	}
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "rank 2 crashed") {
		t.Errorf("failures = %v", res.Failures)
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(xClean[i]) {
			t.Fatalf("recovered solution diverges at %d: %g vs %g", i, x[i], xClean[i])
		}
	}
	// And it actually solves the system.
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-7 {
			t.Fatalf("recovered solution wrong at %d: %g vs %g", i, x[i], want[i])
		}
	}
	// Recovery telemetry: one rollback, some checkpoints, and rollback
	// spans on the recovery lane of every rank.
	if got := reg.Counter("distsolver_rollbacks_total").Value(); got != 1 {
		t.Errorf("rollbacks counter = %g", got)
	}
	rollSpans := 0
	for _, s := range spans.Spans() {
		if s.Lane == "recovery" && s.Name == "rollback" {
			rollSpans++
		}
	}
	if rollSpans != 4 {
		t.Errorf("rollback spans = %d, want one per rank", rollSpans)
	}
	if res.RecoverySeconds <= 0 {
		t.Errorf("RecoverySeconds = %g", res.RecoverySeconds)
	}
	// The final attempt's clocks sit beyond the failure point.
	for r, c := range res.Clocks {
		if c <= 0 {
			t.Errorf("rank %d clock = %g after recovery", r, c)
		}
	}
}

// TestCrashBeforeFirstCheckpoint: rollback with no committed
// checkpoint restarts from the initial state and still converges to
// the fault-free bits.
func TestCrashBeforeFirstCheckpoint(t *testing.T) {
	problems, b, _ := recoverProblem(t)
	base := RecoverConfig{Tol: 1e-10, MaxIter: 2000, CheckpointEvery: 50}
	_, xClean := runRecover(t, problems, b, base)

	cfg := base
	cfg.Schedule = mustParse(t, 7, "crash rank=0 iter=3")
	res, x := runRecover(t, problems, b, cfg)
	if res.Restarts != 1 || len(res.DeadRanks) != 1 || res.DeadRanks[0] != 0 {
		t.Fatalf("restarts=%d dead=%v", res.Restarts, res.DeadRanks)
	}
	if res.HostOf[0] != 1 {
		t.Errorf("hostOf[0] = %d, want 1", res.HostOf[0])
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(xClean[i]) {
			t.Fatalf("solution diverges at %d", i)
		}
	}
}

// TestECCDowngradeInDistributedSolve: an ECC event on one rank's
// device degrades only that rank to host execution; the solve
// completes without restart, bit-identical to the healthy run.
func TestECCDowngradeInDistributedSolve(t *testing.T) {
	problems, b, _ := recoverProblem(t)
	dev := gpu.TeslaC2070()
	reg := telemetry.NewRegistry()
	base := RecoverConfig{
		Tol: 1e-10, MaxIter: 2000, CheckpointEvery: 10,
		Inst: &Instrument{Metrics: telemetry.NewRegistry(), Device: dev},
	}
	_, xClean := runRecover(t, problems, b, base)

	plan := mustParse(t, 11, "ecc rank=1 launch=8")
	cfg := base
	cfg.Inst = &Instrument{Metrics: reg, Device: dev}
	cfg.Schedule = plan
	cfg.DeviceFaults = func(rank int) gpu.ECCInjector { return plan.DeviceFor(rank) }
	res, x := runRecover(t, problems, b, cfg)

	if res.Restarts != 0 {
		t.Fatalf("ECC downgrade should not restart: %d (failures %v)", res.Restarts, res.Failures)
	}
	if len(res.DegradedRanks) != 1 || res.DegradedRanks[0] != 1 {
		t.Errorf("degraded ranks = %v, want [1]", res.DegradedRanks)
	}
	if got := reg.Counter("distsolver_ecc_downgrades_total", telemetry.Li("rank", 1)).Value(); got != 1 {
		t.Errorf("downgrade counter = %g", got)
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(xClean[i]) {
			t.Fatalf("degraded solution diverges at %d: %g vs %g", i, x[i], xClean[i])
		}
	}
}

// TestMessageDropsRecovered: a lossy wire exercises the reliable
// transport under the solver; retries are charged, no restart happens,
// and the solution bits are unchanged.
func TestMessageDropsRecovered(t *testing.T) {
	problems, b, _ := recoverProblem(t)
	base := RecoverConfig{Tol: 1e-10, MaxIter: 2000}
	_, xClean := runRecover(t, problems, b, base)

	plan := mustParse(t, 42, "drop all prob=0.02")
	reg := telemetry.NewRegistry()
	cfg := base
	cfg.Wire = plan
	cfg.Inst = &Instrument{Metrics: reg}
	res, x := runRecover(t, problems, b, cfg)
	if res.Restarts != 0 {
		t.Fatalf("drops within the retry budget should not restart (failures %v)", res.Failures)
	}
	retries := 0.0
	for rank := 0; rank < 4; rank++ {
		retries += reg.Counter("mpi_retries_total", telemetry.Li("rank", rank)).Value()
	}
	if retries == 0 {
		t.Error("no retries charged under a 2% drop rate")
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(xClean[i]) {
			t.Fatalf("lossy-wire solution diverges at %d", i)
		}
	}
}

// TestSlowFactorIsTimingOnly: a scheduled rank slowdown stretches that
// rank's clock but never touches the numeric trajectory.
func TestSlowFactorIsTimingOnly(t *testing.T) {
	problems, b, _ := recoverProblem(t)
	base := RecoverConfig{Tol: 1e-10, MaxIter: 2000}
	resClean, xClean := runRecover(t, problems, b, base)

	cfg := base
	cfg.Schedule = mustParse(t, 5, "slow rank=1 factor=4")
	res, x := runRecover(t, problems, b, cfg)
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(xClean[i]) {
			t.Fatalf("slowed solution diverges at %d", i)
		}
	}
	if res.Clocks[1] <= resClean.Clocks[1] {
		t.Errorf("rank 1 clock %g not slowed (healthy %g)", res.Clocks[1], resClean.Clocks[1])
	}
}

// mustParse is Parse for a schedule the test knows to be valid.
func mustParse(t testing.TB, seed uint64, script string) *faults.Plan {
	t.Helper()
	p, err := faults.Parse(seed, script)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
