package advisor

import (
	"fmt"
	"sort"

	"pjds/internal/formats"
	"pjds/internal/gpu"
	"pjds/internal/matrix"
)

// FormatScore is one contender in the format-selection ranking: the
// format (with the representative geometry scored), its Eq. 1-style
// modeled device traffic per non-zero, and the reasoning.
type FormatScore struct {
	// Format names the contender: "CRS", "pJDS", "SELL-C-σ" or "CMRS".
	Format string
	// C and Sigma are the SELL geometry scored (pJDS reports C=32,
	// Sigma=rows); Height is the CMRS strip height. Zero when not
	// applicable.
	C, Sigma, Height int
	// Beta is the predicted zero-padding overhead of the layout.
	Beta float64
	// BytesPerNnz is the modeled device traffic per non-zero:
	// 2·B_code of Eq. (1) scaled by the format's padding and metadata.
	BytesPerNnz float64
	// Reason is a one-line justification.
	Reason string
}

// RankFormats ranks the repository's GPU storage-format contenders —
// CRS, pJDS (= SELL-32-∞), a windowed SELL-C-σ, and CMRS — by modeled
// bytes moved per non-zero, cheapest first. The model is Eq. (1)'s
// per-nnz traffic 12 + 8α + 16/N_nzr with the format's own
// correction:
//
//   - pJDS/SELL: val+idx streams inflate by the zero-padding (1+β),
//     with β predicted exactly from the row lengths;
//   - CMRS: no padding, but one row-in-strip metadata byte per
//     non-zero;
//   - CRS: the scalar kernel's per-lane row walk breaks coalescing,
//     inflating val+idx by a device-dependent gather factor.
//
// lens are the matrix's row lengths (in original order); the ranking
// degrades gracefully to padding-free assumptions when lens is empty.
func RankFormats(st matrix.Stats, lens []int, dev *gpu.Device) []FormatScore {
	if dev == nil {
		dev = gpu.TeslaC2070()
	}
	alpha := EstimateAlpha(st, dev)
	nnzr := st.AvgRowLen
	if nnzr <= 0 {
		nnzr = 1
	}
	base := 8*alpha + 16/nnzr // RHS gather + LHS/rowLen streams, per nnz

	// Scalar-CSR gather factor: each lane streams its own row, so a
	// warp-step touches up to one segment per lane instead of sharing
	// them; half the segment granularity over the element size is the
	// simulator-observed midpoint between aligned and worst case.
	gather := float64(dev.SegmentBytes) / 16
	if gather < 1 {
		gather = 1
	}

	n := len(lens)
	pad := formats.NewPadding(lens)
	_, betaPJDS := pad.Estimate(32, n)
	sigma := 256
	if n > 0 && sigma > n {
		sigma = n
	}
	_, betaSELL := pad.Estimate(32, sigma)

	out := []FormatScore{
		{
			Format: "CRS", BytesPerNnz: 12*gather + base,
			Reason: fmt.Sprintf("no padding but uncoalesced row walks: val+idx ×%.1f gather factor", gather),
		},
		{
			Format: "pJDS", C: 32, Sigma: n, Beta: betaPJDS,
			BytesPerNnz: 12*(1+betaPJDS) + base,
			Reason:      fmt.Sprintf("global sort leaves β = %.3f padding", betaPJDS),
		},
		{
			Format: "SELL-C-σ", C: 32, Sigma: sigma, Beta: betaSELL,
			BytesPerNnz: 12*(1+betaSELL) + base,
			Reason:      fmt.Sprintf("σ = %d windowed sort leaves β = %.3f padding without a global permutation", sigma, betaSELL),
		},
		{
			Format: "CMRS", Height: formats.DefaultStripHeight,
			BytesPerNnz: 13 + base,
			Reason:      "padding-free CSR stream plus one row-in-strip byte per non-zero",
		},
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].BytesPerNnz < out[j].BytesPerNnz })
	return out
}
