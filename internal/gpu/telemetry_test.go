package gpu

import (
	"math"
	"testing"

	"pjds/internal/matrix"
	"pjds/internal/telemetry"
)

// TestKernelTelemetryMatchesStats is the acceptance cross-check: every
// counter the kernel publishes must equal the corresponding KernelStats
// field exactly, and the derived gauges must agree (GF/s to 1e-9
// relative).
func TestKernelTelemetryMatchesStats(t *testing.T) {
	m := bandedCSR(512, 4, 24, 7)
	x := randVec(m.NCols, 3)
	y := make([]float64, m.NRows)
	reg := telemetry.NewRegistry()
	st, err := RunSELL(TeslaC2070(), newELLR(m), y, x, RunOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	lbl := []telemetry.Label{telemetry.L("kernel", st.Kernel), telemetry.L("device", st.Device)}

	counters := []struct {
		name string
		want float64
	}{
		{"gpu_kernel_runs_total", 1},
		{"gpu_kernel_rows_total", float64(st.Rows)},
		{"gpu_kernel_nnz_total", float64(st.Nnz)},
		{"gpu_kernel_useful_flops_total", float64(st.UsefulFlops)},
		{"gpu_kernel_lane_steps_total", float64(st.ExecutedLaneSteps)},
		{"gpu_kernel_warp_steps_total", float64(st.WarpSteps)},
		{"gpu_kernel_warps_total", float64(st.Warps)},
		{"gpu_kernel_active_warps_total", float64(st.ActiveWarps)},
		{"gpu_kernel_rhs_probes_total", float64(st.RHSProbes)},
		{"gpu_kernel_rhs_misses_total", float64(st.RHSMisses)},
	}
	for _, c := range counters {
		if got := reg.Counter(c.name, lbl...).Value(); got != c.want {
			t.Errorf("%s = %g, want %g", c.name, got, c.want)
		}
	}
	for stream, want := range map[string]int64{
		"val": st.BytesVal, "idx": st.BytesIdx, "rhs": st.BytesRHS,
		"lhs": st.BytesLHS, "meta": st.BytesMeta,
	} {
		got := reg.Counter("gpu_kernel_bytes_total",
			append([]telemetry.Label{telemetry.L("stream", stream)}, lbl...)...).Value()
		if got != float64(want) {
			t.Errorf("gpu_kernel_bytes_total{stream=%s} = %g, want %d", stream, got, want)
		}
	}
	gauges := []struct {
		name string
		want float64
	}{
		{"gpu_kernel_code_balance", st.CodeBalance},
		{"gpu_kernel_alpha", st.Alpha},
		{"gpu_kernel_coalescing_efficiency", st.CoalescingEfficiency},
		{"gpu_kernel_l2_hit_rate", st.L2HitRate},
		{"gpu_kernel_lane_efficiency", st.LaneEfficiency},
	}
	for _, g := range gauges {
		if got := reg.Gauge(g.name, lbl...).Value(); got != g.want {
			t.Errorf("%s = %g, want %g", g.name, got, g.want)
		}
	}
	gf := reg.Gauge("gpu_kernel_gflops", lbl...).Value()
	if math.Abs(gf-st.GFlops) > 1e-9*math.Abs(st.GFlops) {
		t.Errorf("gpu_kernel_gflops = %g, stats %g", gf, st.GFlops)
	}
	if st.GFlops <= 0 || st.KernelSeconds <= 0 {
		t.Errorf("degenerate stats: %+v", st)
	}
}

// TestKernelStatsZeroNnz runs a kernel over an empty matrix: every
// derived quantity must stay finite (no 0/0), and the structural
// edge values must hold.
func TestKernelStatsZeroNnz(t *testing.T) {
	m := matrix.NewCOO[float64](64, 64).ToCSR()
	x := make([]float64, 64)
	y := make([]float64, 64)
	reg := telemetry.NewRegistry()
	st, err := RunSELL(TeslaC2070(), newELLR(m), y, x, RunOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if st.Nnz != 0 || st.UsefulFlops != 0 {
		t.Fatalf("empty matrix has nnz %d", st.Nnz)
	}
	if st.ActiveWarps != 0 {
		t.Errorf("ActiveWarps = %d on all-empty rows", st.ActiveWarps)
	}
	if st.CoalescingEfficiency != 0 {
		t.Errorf("CoalescingEfficiency = %g with no val/idx traffic", st.CoalescingEfficiency)
	}
	for name, v := range map[string]float64{
		"CodeBalance":    st.CodeBalance,
		"Alpha":          st.Alpha,
		"L2HitRate":      st.L2HitRate,
		"LaneEfficiency": st.LaneEfficiency,
		"GFlops":         st.GFlops,
		"KernelSeconds":  st.KernelSeconds,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %g on zero-nnz kernel", name, v)
		}
	}
	// Telemetry must mirror the zeros, not invent traffic.
	lbl := []telemetry.Label{telemetry.L("kernel", st.Kernel), telemetry.L("device", st.Device)}
	if got := reg.Counter("gpu_kernel_nnz_total", lbl...).Value(); got != 0 {
		t.Errorf("gpu_kernel_nnz_total = %g", got)
	}
	if got := reg.Counter("gpu_kernel_runs_total", lbl...).Value(); got != 1 {
		t.Errorf("gpu_kernel_runs_total = %g", got)
	}
}

// TestKernelStatsEmptyWarpTail checks the partially-empty-warp case: a
// matrix whose rows beyond the first warp are all empty must report
// exactly one active warp and finite derived quantities.
func TestKernelStatsEmptyWarpTail(t *testing.T) {
	coo := matrix.NewCOO[float64](512, 512)
	for i := 0; i < 16; i++ { // only the first half-warp has entries
		coo.Add(i, i, 1.0)
	}
	m := coo.ToCSR()
	x := make([]float64, 512)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, 512)
	st, err := RunSELL(TeslaC2070(), newELLR(m), y, x, RunOptions{Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if st.ActiveWarps != 1 {
		t.Errorf("ActiveWarps = %d, want 1", st.ActiveWarps)
	}
	if st.Warps <= st.ActiveWarps {
		t.Errorf("Warps = %d not above ActiveWarps", st.Warps)
	}
	if math.IsNaN(st.CodeBalance) || math.IsInf(st.CodeBalance, 0) {
		t.Errorf("CodeBalance = %g", st.CodeBalance)
	}
	if st.CoalescingEfficiency <= 0 || st.CoalescingEfficiency > 1 {
		t.Errorf("CoalescingEfficiency = %g outside (0,1]", st.CoalescingEfficiency)
	}
	if st.LaneEfficiency <= 0 || st.LaneEfficiency > 1 {
		t.Errorf("LaneEfficiency = %g outside (0,1]", st.LaneEfficiency)
	}
}
