package gpu

import (
	"slices"
	"sync/atomic"

	"pjds/internal/flight"
	"pjds/internal/telemetry"
)

// kernelLabels is the label set of a kernel's series: kernel, device,
// then the caller's extras.
func kernelLabels(kernel, device string, extra []telemetry.Label) []telemetry.Label {
	return append([]telemetry.Label{
		telemetry.L("kernel", kernel),
		telemetry.L("device", device),
	}, extra...)
}

// kernelCounters are the counter families every replay writes and the
// statistic each adds per run; stream, when set, labels the series of
// gpu_kernel_bytes_total. Raw transaction counts go to counters: they
// accumulate across runs and are order-independent, hence
// deterministic even for concurrent rank goroutines.
var kernelCounters = []struct {
	name, stream, help string
	val                func(*KernelStats) float64
}{
	{"gpu_kernel_runs_total", "", "simulated kernel executions", func(*KernelStats) float64 { return 1 }},
	{"gpu_kernel_rows_total", "", "matrix rows processed", func(s *KernelStats) float64 { return float64(s.Rows) }},
	{"gpu_kernel_nnz_total", "", "non-zeros processed", func(s *KernelStats) float64 { return float64(s.Nnz) }},
	{"gpu_kernel_useful_flops_total", "", "useful flops (2·nnz, the paper's GF/s numerator)", func(s *KernelStats) float64 { return float64(s.UsefulFlops) }},
	{"gpu_kernel_lane_steps_total", "", "FMA slots executed by active lanes", func(s *KernelStats) float64 { return float64(s.ExecutedLaneSteps) }},
	{"gpu_kernel_warp_steps_total", "", "SIMT instruction steps summed over warps (Fig. 2's hardware reservation)", func(s *KernelStats) float64 { return float64(s.WarpSteps) }},
	{"gpu_kernel_warps_total", "", "warps launched", func(s *KernelStats) float64 { return float64(s.Warps) }},
	{"gpu_kernel_active_warps_total", "", "warps with at least one non-empty row", func(s *KernelStats) float64 { return float64(s.ActiveWarps) }},
	{"gpu_kernel_rhs_probes_total", "", "L2 lookups of the RHS gather", func(s *KernelStats) float64 { return float64(s.RHSProbes) }},
	{"gpu_kernel_rhs_misses_total", "", "L2 misses of the RHS gather", func(s *KernelStats) float64 { return float64(s.RHSMisses) }},
	{"gpu_kernel_seconds_total", "", "derived kernel wallclock", func(s *KernelStats) float64 { return s.KernelSeconds }},
	{"gpu_kernel_bytes_total", "val", "device-memory traffic by stream", func(s *KernelStats) float64 { return float64(s.BytesVal) }},
	{"gpu_kernel_bytes_total", "idx", "device-memory traffic by stream", func(s *KernelStats) float64 { return float64(s.BytesIdx) }},
	{"gpu_kernel_bytes_total", "rhs", "device-memory traffic by stream", func(s *KernelStats) float64 { return float64(s.BytesRHS) }},
	{"gpu_kernel_bytes_total", "lhs", "device-memory traffic by stream", func(s *KernelStats) float64 { return float64(s.BytesLHS) }},
	{"gpu_kernel_bytes_total", "meta", "device-memory traffic by stream", func(s *KernelStats) float64 { return float64(s.BytesMeta) }},
}

// kernelGauges are the last-value gauge families every replay writes:
// the derived model quantities of the paper (code balance B_code of
// Eq. 1, the RHS reuse factor α, coalescing and lane efficiency, GF/s).
var kernelGauges = []struct {
	name, help string
	val        func(*KernelStats) float64
}{
	{"gpu_kernel_code_balance", "bytes per useful flop (Eq. 1's B_code)", func(s *KernelStats) float64 { return s.CodeBalance }},
	{"gpu_kernel_alpha", "measured RHS traffic per non-zero in element widths (Eq. 1's α)", func(s *KernelStats) float64 { return s.Alpha }},
	{"gpu_kernel_coalescing_efficiency", "minimal / actual val+idx stream traffic", func(s *KernelStats) float64 { return s.CoalescingEfficiency }},
	{"gpu_kernel_l2_hit_rate", "RHS gather L2 hit rate", func(s *KernelStats) float64 { return s.L2HitRate }},
	{"gpu_kernel_lane_efficiency", "executed lane steps / reserved SIMT slots (warp divergence)", func(s *KernelStats) float64 { return s.LaneEfficiency }},
	{"gpu_kernel_gflops", "useful GF/s of the last run (as in Table I)", func(s *KernelStats) float64 { return s.GFlops }},
}

// kernelSeries holds the resolved handles of every kernel series
// for one label set, in kernelCounters and kernelGauges order.
type kernelSeries struct {
	counters []*telemetry.Counter
	gauges   []*telemetry.Gauge
}

func newKernelSeries(reg *telemetry.Registry, lbl []telemetry.Label) *kernelSeries {
	ks := &kernelSeries{}
	for _, kc := range kernelCounters {
		reg.Help(kc.name, kc.help)
		l := lbl
		if kc.stream != "" {
			l = append([]telemetry.Label{telemetry.L("stream", kc.stream)}, lbl...)
		}
		ks.counters = append(ks.counters, reg.Counter(kc.name, l...))
	}
	for _, kg := range kernelGauges {
		reg.Help(kg.name, kg.help)
		ks.gauges = append(ks.gauges, reg.Gauge(kg.name, lbl...))
	}
	return ks
}

// publish writes one run's statistics; atomic updates only.
func (ks *kernelSeries) publish(s *KernelStats) {
	for i, c := range ks.counters {
		c.Add(kernelCounters[i].val(s))
	}
	for i, g := range ks.gauges {
		g.Set(kernelGauges[i].val(s))
	}
}

// maxPlanSeries bounds the label sets one plan keeps handles for; a
// caller cycling through more (a fresh registry per run, say) just
// resolves them again.
const maxPlanSeries = 8

// planSeries is the telemetry of one plan replayed into one registry
// under one device name and one extra label set. Every handle is
// resolved once, the way hostkernel's meter does, so a warm replay
// publishes with atomic updates only. The plan-cache hit counter is
// resolved on the first hit, so a plan that has only missed exposes no
// hit series.
type planSeries struct {
	reg *telemetry.Registry
	lbl []telemetry.Label // kernel, device, then the extra labels

	kernel *kernelSeries
	hits   atomic.Pointer[telemetry.Counter]
	// beta and occ are the format-geometry gauges (nil when the plan
	// has no geometry labels).
	beta, occ *telemetry.Gauge
}

// seriesFor returns the plan's handles for (reg, device, extra),
// resolving them on first use.
func (p *Plan[T]) seriesFor(reg *telemetry.Registry, device string, extra []telemetry.Label) *planSeries {
	if reg == nil {
		reg = telemetry.Default()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ps := range p.series {
		if ps.reg == reg && ps.lbl[1].Value == device && slices.Equal(ps.lbl[2:], extra) {
			return ps
		}
	}
	lbl := kernelLabels(p.src.kernel, device, extra)
	ps := &planSeries{reg: reg, lbl: lbl, kernel: newKernelSeries(reg, lbl)}
	if p.src.geometry != nil {
		geo := append(lbl[:2:2], p.src.geometry...)
		reg.Help("gpu_format_zero_padding", "zero-padding overhead beta = stored/nnz - 1 of the compiled layout")
		ps.beta = reg.Gauge("gpu_format_zero_padding", geo...)
		reg.Help("gpu_format_chunk_occupancy", "fraction of stored slots holding genuine non-zeros (1/(1+beta))")
		ps.occ = reg.Gauge("gpu_format_chunk_occupancy", geo...)
	}
	if len(p.series) == maxPlanSeries {
		p.series = append(p.series[:0], p.series[1:]...)
	}
	p.series = append(p.series, ps)
	return ps
}

// lookup exports the deterministic plan-cache counters of one lookup.
// Wall-clock compile time is deliberately absent; see PlanCacheStats.
func (ps *planSeries) lookup(hit bool, warps int) {
	reg := ps.reg
	if hit {
		c := ps.hits.Load()
		if c == nil {
			reg.Help("gpu_plan_cache_hits_total", "kernel-plan cache lookups served from cache")
			c = reg.Counter("gpu_plan_cache_hits_total", ps.lbl...)
			ps.hits.Store(c)
		}
		c.Inc()
		return
	}
	reg.Help("gpu_plan_cache_misses_total", "kernel-plan cache lookups that compiled a new plan")
	reg.Counter("gpu_plan_cache_misses_total", ps.lbl...).Inc()
	reg.Help("gpu_plan_compile_warps_total", "warps analyzed by kernel-plan compilation")
	reg.Counter("gpu_plan_compile_warps_total", ps.lbl...).Add(float64(warps))
	flight.Record(flight.Debug, "gpu.plan_cache_miss", -1, 0, "kernel-plan cache miss compiled a new plan", float64(warps))
}

// publish writes one replay's kernel statistics and, for formats with
// geometry labels, the layout-quality gauges: the zero-padding overhead
// β = stored/nnz − 1 and the chunk occupancy nnz/stored = 1/(1+β).
func (ps *planSeries) publish(s *KernelStats, beta, occ float64) {
	ps.kernel.publish(s)
	if ps.beta != nil {
		ps.beta.Set(beta)
		ps.occ.Set(occ)
	}
}
