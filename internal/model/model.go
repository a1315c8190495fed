// Package model holds the paper's analytic models (§II-B and Table I):
// the worst-case code balance of the ELLPACK/pJDS kernels (Eq. 1), the
// wallclock decomposition into kernel and PCIe time (Eq. 2), the N_nzr
// ranges for which GPGPU acceleration pays off (Eqs. 3 and 4), the
// PCIe link those equations price, the Westmere CRS baseline of
// Table I's last row, and the set-associative LRU that measures the
// RHS reuse factor α for both the CPU baseline and the simulated GPU
// L2. The Eq. 3/4 analysis is what the paper uses to rule out the
// HMEp and sAMG matrices for multi-GPU runs.
package model

import (
	"fmt"
	"math"
)

// CodeBalanceDP returns B_W^DP of Eq. (1) in bytes/flop for double
// precision:
//
//	B = (8 + 4 + 8α + 16/N_nzr) / 2 = 6 + 4α + 8/N_nzr
//
// where α ∈ [1/N_nzr, 1] quantifies RHS cache reuse: α = 1 means every
// RHS access goes to memory; α = 1/N_nzr means each RHS element is
// loaded exactly once.
func CodeBalanceDP(alpha, nnzr float64) float64 {
	return 6 + 4*alpha + 8/nnzr
}

// AlphaIdeal returns the best possible α, 1/N_nzr: each RHS element
// loaded exactly once (the κ = 0 case of Schubert et al. [4]).
func AlphaIdeal(nnzr float64) float64 { return 1 / nnzr }

// Offload bundles the two bandwidths the §II-B offload analysis is
// parameterized by.
type Offload struct {
	// BGPU is the device-memory bandwidth in bytes/s.
	BGPU float64
	// BPCI is the host↔device PCIe bandwidth in bytes/s.
	BPCI float64
}

// Validate reports configuration errors.
func (m Offload) Validate() error {
	if m.BGPU <= 0 || m.BPCI <= 0 {
		return fmt.Errorf("model: non-positive bandwidth in %+v", m)
	}
	return nil
}

// TMVMSeconds returns the pure spMVM kernel time of Eq. (2) for a
// matrix of dimension n with nnzr non-zeros per row at RHS reuse
// alpha, double precision:
//
//	T_MVM = 8N/B_GPU · (N_nzr(α + 3/2) + 2)
func (m Offload) TMVMSeconds(n int, nnzr, alpha float64) float64 {
	return 8 * float64(n) / m.BGPU * (nnzr*(alpha+1.5) + 2)
}

// TPCISeconds returns the PCIe transfer time of Eq. (2): both the RHS
// upload and LHS download move 8N bytes (DP).
func (m Offload) TPCISeconds(n int) float64 {
	return 16 * float64(n) / m.BPCI
}

// PCIPenalty returns T_PCI/(T_MVM+T_PCI): the fraction of total
// wallclock spent on the bus.
func (m Offload) PCIPenalty(n int, nnzr, alpha float64) float64 {
	tm := m.TMVMSeconds(n, nnzr, alpha)
	tp := m.TPCISeconds(n)
	return tp / (tm + tp)
}

// MaxNnzrFor50PctPenalty returns the Eq. (3) bound: for N_nzr at or
// below this value the PCIe transfers cost at least as much as the
// kernel itself (T_MVM ≤ T_PCI):
//
//	N_nzr ≤ 2(B_GPU/B_PCI − 1)/(α + 3/2)
func (m Offload) MaxNnzrFor50PctPenalty(alpha float64) float64 {
	return 2 * (m.BGPU/m.BPCI - 1) / (alpha + 1.5)
}

// MinNnzrFor10PctPenalty returns the Eq. (4) bound: for N_nzr at or
// above this value the PCIe penalty is below 10% (T_MVM ≥ 10·T_PCI):
//
//	N_nzr ≥ (20·B_GPU/B_PCI − 2)/(α + 3/2)
func (m Offload) MinNnzrFor10PctPenalty(alpha float64) float64 {
	return (20*m.BGPU/m.BPCI - 2) / (alpha + 1.5)
}

// SolveAlphaSelfConsistent finds the α in the worst case α = 1/N_nzr
// of the Eq. (3) analysis: the paper plugs α = 1/N_nzr into the bound
// and reports N_nzr ≤ 25 at B_GPU ≳ 20·B_PCI. The bound then depends
// on its own result; iterate to a fixed point.
func (m Offload) SolveAlphaSelfConsistent(bound func(alpha float64) float64) float64 {
	nnzr := bound(1) // start from the α = 1 bound
	for i := 0; i < 100; i++ {
		next := bound(1 / math.Max(nnzr, 1))
		if math.Abs(next-nnzr) < 1e-9 {
			return next
		}
		nnzr = next
	}
	return nnzr
}

// GFlopsFromTime converts an spMVM wallclock into the paper's GF/s
// metric (2 flops per non-zero).
func GFlopsFromTime(nnz int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return 2 * float64(nnz) / seconds / 1e9
}
