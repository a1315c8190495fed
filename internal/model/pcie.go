package model

import (
	"fmt"
	"math"
)

// Link models the host↔device PCI-Express link whose limited bandwidth
// §II-B identifies as the decisive bottleneck for spMVM with few
// non-zeros per row: the RHS vector must be uploaded and the LHS
// vector downloaded for every multiplication, and in the distributed
// code all MPI traffic crosses this bus too. It has a fixed
// per-transfer latency and a sustained bandwidth. The paper reasons in
// terms of the ratio B_GPU/B_PCI ≈ 10–20; the default corresponds to a
// PCIe 2.0 ×16 slot as on the Dirac nodes.
type Link struct {
	Name string
	// BytesPerSecond is the sustained host↔device copy bandwidth.
	BytesPerSecond float64
	// LatencySeconds is the fixed setup cost per transfer (driver call,
	// DMA setup); it dominates small transfers such as the halo
	// buffers at high node counts.
	LatencySeconds float64
}

// Gen2x16 returns a PCIe 2.0 ×16 link as cudaMemcpy delivers it on the
// paper's era of hosts: ~5 GB/s sustained of the 8 GB/s raw rate and
// ~12 µs per-transfer overhead (driver call + DMA setup).
func Gen2x16() *Link {
	return &Link{Name: "PCIe 2.0 x16", BytesPerSecond: 5e9, LatencySeconds: 12e-6}
}

// Validate reports configuration errors: the bandwidth must be
// positive and the latency non-negative, both finite.
func (l *Link) Validate() error {
	if !(l.BytesPerSecond > 0) || math.IsInf(l.BytesPerSecond, 1) {
		return fmt.Errorf("model: PCIe link %q: bandwidth %g B/s, want positive and finite", l.Name, l.BytesPerSecond)
	}
	if !(l.LatencySeconds >= 0) || math.IsInf(l.LatencySeconds, 1) {
		return fmt.Errorf("model: PCIe link %q: latency %g s, want non-negative and finite", l.Name, l.LatencySeconds)
	}
	return nil
}

// TransferSeconds returns the wallclock cost of moving n bytes in one
// transfer. Zero-byte transfers are free (no driver call issued).
func (l *Link) TransferSeconds(n int64) float64 {
	if n <= 0 {
		return 0
	}
	return l.LatencySeconds + float64(n)/l.BytesPerSecond
}

// RoundTripSeconds returns the cost of uploading up bytes and
// downloading down bytes as two separate transfers, the per-spMVM
// T_PCI of Eq. (2) when up = down = 8N (DP).
func (l *Link) RoundTripSeconds(up, down int64) float64 {
	return l.TransferSeconds(up) + l.TransferSeconds(down)
}
