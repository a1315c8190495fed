package gpu

import "fmt"

// Base addresses of the simulated device allocations. Each array lives
// in its own naturally-aligned 1 TiB region, so segment and cache-line
// arithmetic never aliases across arrays.
const (
	addrVal int64 = iota << 40
	addrIdx
	addrRHS
	addrLHS
	addrMeta
)

// KernelStats reports everything the simulator learns from one spMVM
// kernel execution: functional totals, the transaction-level memory
// traffic per stream, L2 behaviour, and the derived timing.
type KernelStats struct {
	Kernel string
	Device string

	Rows int
	Nnz  int64
	// UsefulFlops is 2·Nnz: the flops the paper's GF/s numbers count.
	UsefulFlops int64
	// ExecutedLaneSteps counts the FMA slots actually executed by
	// active lanes; for plain ELLPACK it includes the padding work.
	ExecutedLaneSteps int64
	// WarpSteps counts SIMT instruction steps summed over warps: a
	// warp busy for k steps reserves its MP slot for k steps whether
	// or not all lanes are active (Fig. 2's "useless hardware
	// reservation").
	WarpSteps int64
	// Warps is the number of warps launched; ActiveWarps counts those
	// with at least one non-empty row. Only active warps request
	// memory and hide latency, which matters for the almost-empty
	// non-local kernels of the distributed spMVM (§III-B).
	Warps       int
	ActiveWarps int

	// Memory traffic per stream, in bytes fetched from device memory.
	BytesVal  int64 // matrix values
	BytesIdx  int64 // column indices
	BytesRHS  int64 // right-hand-side gather (L2 misses only)
	BytesLHS  int64 // result vector write (and read, if accumulating)
	BytesMeta int64 // row-length array

	// RHSProbes/RHSMisses count L2 segment lookups of the RHS gather.
	RHSProbes, RHSMisses int64

	// ElemBytes is the value width (4 SP, 8 DP); WarpSize is the SIMD
	// width the counters were collected with.
	ElemBytes int
	WarpSize  int

	// Derived quantities, filled by finish().
	L2HitRate      float64
	Alpha          float64 // measured RHS traffic per non-zero, in units of ElemBytes (Eq. 1's α)
	BytesTotal     int64
	CodeBalance    float64 // bytes per useful flop
	MemSeconds     float64
	ComputeSeconds float64
	KernelSeconds  float64 // max(mem, compute) + launch overhead
	GFlops         float64 // useful GF/s, excluding PCIe transfers (as in Table I)
	// LaneEfficiency is ExecutedLaneSteps/(WarpSteps·warpSize): the
	// fraction of reserved SIMT slots doing useful work.
	LaneEfficiency float64
	// CoalescingEfficiency is the ratio of the minimal val+idx stream
	// traffic (Nnz·(ElemBytes+4) bytes) to the bytes actually moved on
	// those streams: 1.0 means every transaction was a full segment,
	// lower means partially-filled transactions (the wasted parts of
	// Fig. 2's memory blocks). Zero-nnz kernels report 0.
	CoalescingEfficiency float64
}

// Rederive recomputes the derived timing of the same transaction
// counters on another device of identical SIMT geometry — e.g. the
// same board with ECC toggled, which changes only the sustained
// bandwidth (Table I's ECC=0 vs ECC=1 columns re-use one simulation).
func (s KernelStats) Rederive(d *Device) KernelStats {
	out := s
	out.finish(d, s.WarpSize)
	return out
}

// finish derives timing from the raw counters.
func (s *KernelStats) finish(d *Device, warpSize int) {
	s.WarpSize = warpSize
	s.Device = d.Name
	s.BytesTotal = s.BytesVal + s.BytesIdx + s.BytesRHS + s.BytesLHS + s.BytesMeta
	if s.RHSProbes > 0 {
		s.L2HitRate = 1 - float64(s.RHSMisses)/float64(s.RHSProbes)
	}
	if s.Nnz > 0 {
		s.Alpha = float64(s.BytesRHS) / float64(int64(s.ElemBytes)*s.Nnz)
	}
	if s.UsefulFlops > 0 {
		s.CodeBalance = float64(s.BytesTotal) / float64(s.UsefulFlops)
	}
	bw := d.EffectiveBandwidth(s.ActiveWarps)
	s.MemSeconds = float64(s.BytesTotal) / bw
	s.ComputeSeconds = float64(s.WarpSteps) * float64(warpSize) / d.PeakFMAPerSecond(s.ElemBytes)
	s.KernelSeconds = s.MemSeconds
	if s.ComputeSeconds > s.KernelSeconds {
		s.KernelSeconds = s.ComputeSeconds
	}
	s.KernelSeconds += d.KernelLaunchSeconds
	if s.KernelSeconds > 0 {
		s.GFlops = float64(s.UsefulFlops) / s.KernelSeconds / 1e9
	}
	if s.WarpSteps > 0 {
		s.LaneEfficiency = float64(s.ExecutedLaneSteps) / (float64(s.WarpSteps) * float64(warpSize))
	}
	if streamed := s.BytesVal + s.BytesIdx; streamed > 0 {
		s.CoalescingEfficiency = float64(s.Nnz*int64(s.ElemBytes+4)) / float64(streamed)
	}
}

// String renders a one-line summary.
func (s KernelStats) String() string {
	return fmt.Sprintf("%s on %s: %.2f GF/s, balance %.2f B/F, alpha %.2f, L2 %.0f%%, lanes %.0f%%, %.3f ms",
		s.Kernel, s.Device, s.GFlops, s.CodeBalance, s.Alpha, 100*s.L2HitRate, 100*s.LaneEfficiency, 1e3*s.KernelSeconds)
}

// log2 of a power-of-two integer.
func log2(v int) uint {
	n := uint(0)
	for 1<<n < v {
		n++
	}
	return n
}
