package tuner

import (
	"fmt"

	"pjds/internal/gpu"
	"pjds/internal/matrix"
	"pjds/internal/model"
)

// deviceOr returns dev, or the Fermi C2070 every model and sweep
// defaults to when dev is nil.
func deviceOr(dev *gpu.Device) *gpu.Device {
	if dev == nil {
		return gpu.TeslaC2070()
	}
	return dev
}

// Verdict is the offload recommendation.
type Verdict int

// Offload verdicts.
const (
	// StayOnCPU: PCIe transfers dominate (≥50% penalty regime).
	StayOnCPU Verdict = iota
	// GPUMarginal: between the 50% and 10% penalty bounds.
	GPUMarginal
	// GPUWorthwhile: PCIe penalty below 10%, or vectors can stay
	// device-resident.
	GPUWorthwhile
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case StayOnCPU:
		return "stay on CPU"
	case GPUMarginal:
		return "GPU marginal"
	case GPUWorthwhile:
		return "GPU worthwhile"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Recommendation is the advisor's output.
type Recommendation struct {
	// Offload is the Eq. (3)/(4) verdict for spMVM with host-resident
	// vectors.
	Offload Verdict
	// PCIePenaltyPct is the estimated share of wallclock spent on the
	// bus (Eq. 2), with the α estimate below.
	PCIePenaltyPct float64
	// Format is the storage-format recommendation for the device.
	Format string
	// EstDataReductionPct estimates pJDS's saving over ELLPACK from
	// the row-length statistics (1 − N_nzr/N^max_nzr).
	EstDataReductionPct float64
	// AlphaEstimate is the locality-derived guess for Eq. (1)'s α.
	AlphaEstimate float64
	// Reasons explains every decision, one line each.
	Reasons []string
}

// EstimateAlpha guesses Eq. (1)'s RHS reuse factor α from locality
// statistics: if the average per-row column span (bytes) fits the
// RHS-visible share of the L2, gathers mostly hit; otherwise they
// mostly miss. Interpolates between the ideal 1/N_nzr and 1.
func EstimateAlpha(st matrix.Stats, dev *gpu.Device) float64 {
	dev = deviceOr(dev)
	cacheBytes := 0.0
	if dev.L2 != nil {
		cacheBytes = float64(dev.L2.Bytes) * dev.L2.RHSFraction
	}
	spanBytes := st.AvgColSpan * 8
	alpha := 1.0
	if st.AvgRowLen > 0 {
		ideal := model.AlphaIdeal(st.AvgRowLen)
		switch {
		case cacheBytes == 0:
			alpha = 1
		case spanBytes <= cacheBytes:
			alpha = ideal + (1-ideal)*0.15 // resident window: near-ideal reuse
		case spanBytes <= 4*cacheBytes:
			alpha = ideal + (1-ideal)*0.5
		default:
			alpha = 1
		}
	}
	return alpha
}

// Recommend analyses the statistics of a matrix for the given device
// and PCIe link (nil selects the Fermi C2070 and PCIe 2.0 defaults).
func Recommend(st matrix.Stats, dev *gpu.Device, link *model.Link) Recommendation {
	dev = deviceOr(dev)
	if link == nil {
		link = model.Gen2x16()
	}
	var rec Recommendation
	alpha := EstimateAlpha(st, dev)
	rec.AlphaEstimate = alpha

	// Offload verdict via Eqs. (3)/(4).
	off := model.Offload{BGPU: dev.Bandwidth(), BPCI: link.BytesPerSecond}
	lo := off.MaxNnzrFor50PctPenalty(alpha)
	hi := off.MinNnzrFor10PctPenalty(alpha)
	rec.PCIePenaltyPct = 100 * off.PCIPenalty(max(st.Rows, 1), max(st.AvgRowLen, 1), alpha)
	switch {
	case st.AvgRowLen <= lo:
		rec.Offload = StayOnCPU
		rec.Reasons = append(rec.Reasons, fmt.Sprintf(
			"N_nzr %.1f ≤ %.1f: PCIe transfers cost at least as much as the kernel (Eq. 3)", st.AvgRowLen, lo))
	case st.AvgRowLen >= hi:
		rec.Offload = GPUWorthwhile
		rec.Reasons = append(rec.Reasons, fmt.Sprintf(
			"N_nzr %.1f ≥ %.1f: PCIe penalty below 10%% (Eq. 4)", st.AvgRowLen, hi))
	default:
		rec.Offload = GPUMarginal
		rec.Reasons = append(rec.Reasons, fmt.Sprintf(
			"N_nzr %.1f between the Eq. 3/4 bounds (%.1f, %.1f): offload pays only if vectors stay device-resident",
			st.AvgRowLen, lo, hi))
	}

	// Format recommendation.
	if st.MaxRowLen > 0 {
		rec.EstDataReductionPct = 100 * (1 - st.AvgRowLen/float64(st.MaxRowLen))
	}
	warps := (st.Rows + dev.WarpSize - 1) / dev.WarpSize
	switch {
	case warps < dev.NumMPs*int(dev.WarpsToSaturate) && st.AvgRowLen >= 64:
		rec.Format = "ELLR-T"
		rec.Reasons = append(rec.Reasons, fmt.Sprintf(
			"only %d warps of row-parallel work for %d MPs with long rows: use T threads per row", warps, dev.NumMPs))
	case rec.EstDataReductionPct < 5:
		rec.Format = "ELLPACK-R"
		rec.Reasons = append(rec.Reasons, fmt.Sprintf(
			"near-constant row lengths (est. reduction %.1f%%): pJDS's sort buys nothing, keep ELLPACK-R",
			rec.EstDataReductionPct))
	default:
		rec.Format = "pJDS"
		rec.Reasons = append(rec.Reasons, fmt.Sprintf(
			"row-length spread (est. reduction %.1f%%, width %.1f): pJDS shrinks the footprint at equal or better speed",
			rec.EstDataReductionPct, st.RelativeWidth))
	}
	return rec
}
