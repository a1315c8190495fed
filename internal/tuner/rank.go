package tuner

import (
	"fmt"
	"sort"

	"pjds/internal/core"
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
// bytes moved per non-zero, cheapest first. It is the sweep's model
// pass (see modelBytesPerNnz) over a fixed four-cell grid: crs, pjds,
// sell with C = 32 and σ = min(256, n), and cmrs at the default strip
// height.
//
// lens are the matrix's row lengths (in original order); the ranking
// degrades gracefully to padding-free assumptions when lens is empty.
func RankFormats(st matrix.Stats, lens []int, dev *gpu.Device) []FormatScore {
	dev = deviceOr(dev)
	n := len(lens)
	sigma := 256
	if n > 0 {
		sigma = min(sigma, n)
	}
	cells := []Cell{
		{Format: "crs"},
		{Format: "pjds", C: 32, Sigma: n},
		{Format: "sell", C: 32, Sigma: sigma},
		{Format: "cmrs", Height: core.DefaultStripHeight},
	}
	modelPass(cells, st, lens, dev)
	out := make([]FormatScore, len(cells))
	for i, c := range cells {
		out[i] = FormatScore{C: c.C, Sigma: c.Sigma, Height: c.Height, Beta: c.Beta, BytesPerNnz: c.ModelBytesPerNnz}
		switch c.Format {
		case "crs":
			out[i].Format = "CRS"
			out[i].Reason = fmt.Sprintf("no padding but uncoalesced row walks: val+idx ×%.1f gather factor", crsGather(dev))
		case "pjds":
			out[i].Format = "pJDS"
			out[i].Reason = fmt.Sprintf("global sort leaves β = %.3f padding", c.Beta)
		case "sell":
			out[i].Format = "SELL-C-σ"
			out[i].Reason = fmt.Sprintf("σ = %d windowed sort leaves β = %.3f padding without a global permutation", c.Sigma, c.Beta)
		case "cmrs":
			out[i].Format = "CMRS"
			out[i].Reason = "padding-free CSR stream plus one row-in-strip byte per non-zero"
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].BytesPerNnz < out[j].BytesPerNnz })
	return out
}
