// Package gpu simulates the nVidia "Fermi" class of GPGPUs (GF100)
// that the paper benchmarks on, at the level of detail its results
// depend on. Kernels execute functionally — real arithmetic, bit-
// comparable to the CRS reference — while a transaction-level memory
// model counts coalesced 128-byte segments, simulates RHS reuse in the
// shared L2 cache, applies the ECC bandwidth derating, and accounts
// for warp divergence ("useless hardware reservation", Fig. 2) and
// occupancy-limited latency hiding.
//
// spMVM on Fermi is memory-bandwidth-bound, so simulated wallclock is
// derived from bytes moved and the device's sustained bandwidth, with
// a roofline-style max against the SIMT compute time. All hardware
// parameters come from §I-B of the paper or from the published
// streaming measurements it cites.
package gpu

import (
	"fmt"
)

// Device describes one GPGPU accelerator. The zero value is not
// useful; start from a preset (TeslaC2070, TeslaC2050, TeslaC1060) and
// override fields as needed.
type Device struct {
	Name string

	// SIMT geometry (§I-B: 14 MPs × 32 ALUs, warp size 32).
	NumMPs    int
	ALUsPerMP int
	WarpSize  int

	// ClockGHz is the ALU clock ("above 1 GHz" per the paper).
	ClockGHz float64

	// MemBytes is the device-memory capacity (3 GB C2050, 6 GB C2070).
	// Enabling ECC reserves 1/8 of it for check bits, as on real
	// Fermi boards; UsableMemBytes reports the remainder.
	MemBytes int64

	// Sustained streaming device-memory bandwidth in bytes/s with and
	// without ECC (91 and 120 GB/s per the Habich et al. measurement
	// cited in §I-B).
	BandwidthECC   float64
	BandwidthNoECC float64

	// ECC selects the operating mode of Table I's ECC=0/1 columns.
	ECC bool

	// SegmentBytes is the memory-coalescing granularity for streaming
	// loads: a warp's loads are serviced in aligned segments of this
	// size (128 B on Fermi).
	SegmentBytes int

	// GatherSectorBytes is the transfer granularity of scattered
	// gathers (the RHS accesses): GF100's L2 lines are sectored, so a
	// miss fetches a 32-byte sector, not the full 128-byte line.
	// Without this, scattered matrices pay a 16× overfetch the real
	// hardware does not show.
	GatherSectorBytes int

	// L2 describes the on-chip shared L2 cache (768 kB on GF100).
	// A nil L2 models the pre-Fermi Tesla C1060 generation without a
	// data cache, for which the paper reports more severe pJDS
	// permutation penalties.
	L2 *CacheConfig

	// KernelLaunchSeconds is the fixed host-side cost of launching a
	// kernel; it dominates tiny kernels such as the non-local spMVM
	// part at high node counts (§III-B).
	KernelLaunchSeconds float64

	// WarpsToSaturate is the number of resident warps per MP needed to
	// hide memory latency and reach the sustained bandwidth. Kernels
	// with fewer warps see proportionally less bandwidth; this drives
	// the small-subproblem performance drop of Fig. 5a. (DESIGN.md
	// ablation "Occupancy".)
	WarpsToSaturate float64
}

// TeslaC2070 returns the 6 GB Fermi board used for the Table I
// single-GPU measurements.
func TeslaC2070() *Device {
	return &Device{
		Name:                "Tesla C2070",
		NumMPs:              14,
		ALUsPerMP:           32,
		WarpSize:            32,
		ClockGHz:            1.15,
		MemBytes:            6 << 30,
		BandwidthECC:        91e9,
		BandwidthNoECC:      120e9,
		ECC:                 true,
		SegmentBytes:        128,
		GatherSectorBytes:   32,
		L2:                  DefaultL2(),
		KernelLaunchSeconds: 7e-6,
		WarpsToSaturate:     8,
	}
}

// TeslaC2050 returns the 3 GB Fermi board of the Dirac cluster nodes
// used for the scaling runs (§I-B, §III).
func TeslaC2050() *Device {
	d := TeslaC2070()
	d.Name = "Tesla C2050"
	d.MemBytes = 3 << 30
	return d
}

// TeslaC1060 returns the pre-Fermi board without an L2 cache that
// §II-A mentions when discussing permutation-induced locality loss.
func TeslaC1060() *Device {
	d := TeslaC2070()
	d.Name = "Tesla C1060"
	d.ClockGHz = 1.30
	d.MemBytes = 4 << 30
	d.BandwidthECC = 74e9 // C1060 has no ECC; keep both rates equal
	d.BandwidthNoECC = 74e9
	d.ECC = false
	d.L2 = nil
	return d
}

// Validate reports configuration errors.
func (d *Device) Validate() error {
	switch {
	case d.NumMPs <= 0 || d.ALUsPerMP <= 0 || d.WarpSize <= 0:
		return fmt.Errorf("gpu: %s: non-positive SIMT geometry", d.Name)
	case d.WarpSize&(d.WarpSize-1) != 0:
		return fmt.Errorf("gpu: %s: warp size %d not a power of two", d.Name, d.WarpSize)
	case d.ClockGHz <= 0:
		return fmt.Errorf("gpu: %s: non-positive clock", d.Name)
	case d.SegmentBytes <= 0 || d.SegmentBytes&(d.SegmentBytes-1) != 0:
		return fmt.Errorf("gpu: %s: segment size %d not a positive power of two", d.Name, d.SegmentBytes)
	case d.GatherSectorBytes <= 0 || d.GatherSectorBytes&(d.GatherSectorBytes-1) != 0:
		return fmt.Errorf("gpu: %s: gather sector size %d not a positive power of two", d.Name, d.GatherSectorBytes)
	case d.Bandwidth() <= 0:
		return fmt.Errorf("gpu: %s: non-positive bandwidth", d.Name)
	case d.WarpsToSaturate <= 0:
		return fmt.Errorf("gpu: %s: non-positive WarpsToSaturate", d.Name)
	case d.L2 != nil && (d.L2.Bytes <= 0 || d.L2.LineBytes <= 0 || d.L2.Assoc <= 0):
		return fmt.Errorf("gpu: %s: L2 of %d bytes, %d-byte lines, %d ways: every size must be positive",
			d.Name, d.L2.Bytes, d.L2.LineBytes, d.L2.Assoc)
	}
	return nil
}

// Bandwidth returns the sustained device-memory bandwidth for the
// current ECC mode, in bytes/s.
func (d *Device) Bandwidth() float64 {
	if d.ECC {
		return d.BandwidthECC
	}
	return d.BandwidthNoECC
}

// UsableMemBytes returns device memory available to allocations: ECC
// check bits consume 1/8 of the raw capacity when enabled.
func (d *Device) UsableMemBytes() int64 {
	if d.ECC {
		return d.MemBytes - d.MemBytes/8
	}
	return d.MemBytes
}

// Fits reports whether a problem of the given total footprint (matrix
// data plus vectors) fits in device memory under the current ECC mode.
// §II-A notes that the DP DLR2 matrix fits on a C2050 only in pJDS.
func (d *Device) Fits(bytes int64) bool { return bytes <= d.UsableMemBytes() }

// PeakFMAPerSecond returns the peak fused multiply-add throughput for
// the element width (4 = SP, 8 = DP); DP runs at half rate on GF100.
// One FMA is two flops, so peak flops = 2×this (896 flops/cycle SP on
// the full chip, per §I-B).
func (d *Device) PeakFMAPerSecond(elemBytes int) float64 {
	fma := float64(d.NumMPs*d.ALUsPerMP) * d.ClockGHz * 1e9
	if elemBytes == 8 {
		fma /= 2
	}
	return fma
}

// OccupancyFactor returns the fraction of sustained bandwidth
// achievable with the given number of warps in the whole kernel:
// min(1, warpsPerMP/WarpsToSaturate). Tiny kernels cannot hide the
// device-memory latency.
func (d *Device) OccupancyFactor(totalWarps int) float64 {
	if totalWarps <= 0 {
		return 1
	}
	perMP := float64(totalWarps) / float64(d.NumMPs)
	if perMP >= d.WarpsToSaturate {
		return 1
	}
	return perMP / d.WarpsToSaturate
}

// EffectiveBandwidth returns the bandwidth a kernel with totalWarps
// warps sustains, in bytes/s.
func (d *Device) EffectiveBandwidth(totalWarps int) float64 {
	return d.Bandwidth() * d.OccupancyFactor(totalWarps)
}
