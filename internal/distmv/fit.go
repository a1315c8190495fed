package distmv

import (
	"errors"
	"fmt"
	"sort"

	"pjds/internal/core"
	"pjds/internal/gpu"
	"pjds/internal/matrix"
)

// ErrDeviceMemory reports that a rank's share of the problem does not
// fit its GPU's memory — the reason Fig. 5b starts at five nodes
// ("Due to memory restrictions on the C2050 cards it was not possible
// to run the UHBR case on fewer than five nodes").
var ErrDeviceMemory = errors.New("distmv: problem does not fit device memory")

// DeviceReserveBytes approximates the CUDA context and runtime
// allocations that are unavailable to user data on a real board.
const DeviceReserveBytes = 150 << 20

// FitReport describes one rank's device-memory demand.
type FitReport struct {
	Rank           int
	FootprintBytes int64
	UsableBytes    int64
	Fits           bool
}

// CheckFit estimates every rank's device footprint for the given
// format (matrix data in device format, RHS + halo + LHS vectors) and
// compares it against the device's usable memory. It needs only the
// row-length structure, not a format instance, so it is cheap enough
// to run before committing to a node count.
func CheckFit(problems []*RankProblem, dev *gpu.Device, kind FormatKind) ([]FitReport, error) {
	usable := dev.UsableMemBytes() - DeviceReserveBytes
	reports := make([]FitReport, len(problems))
	var firstBad *FitReport
	for i, rp := range problems {
		fp := estimateFootprint(rp.Local, kind) +
			estimateFootprint(rp.NonLocal, kind) +
			int64(8*(rp.LocalRows()*2+rp.HaloSize())) // x, y, halo buffer
		reports[i] = FitReport{
			Rank:           rp.Rank,
			FootprintBytes: fp,
			UsableBytes:    usable,
			Fits:           fp <= usable,
		}
		if !reports[i].Fits && firstBad == nil {
			firstBad = &reports[i]
		}
	}
	if firstBad != nil {
		return reports, fmt.Errorf("%w: rank %d needs %d MB of %d MB usable on %s (%s)",
			ErrDeviceMemory, firstBad.Rank, firstBad.FootprintBytes>>20, usable>>20, dev.Name, kind)
	}
	return reports, nil
}

// estimateFootprint computes a format's device bytes from the
// row-length structure alone (double precision).
func estimateFootprint(m *matrix.CSR[float64], kind FormatKind) int64 {
	n := m.NRows
	switch kind {
	case FormatPJDS:
		// Sorted row lengths, padded per block of the default height.
		lens := make([]int, n)
		for i := range lens {
			lens[i] = m.RowLen(i)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(lens)))
		br := core.DefaultBlockHeight
		var stored int64
		maxLen := 0
		for b := 0; b < n; b += br {
			// Every block, including the final partial one, is padded
			// to br rows at the length of its longest row.
			stored += int64(lens[b]) * int64(br)
			if lens[b] > maxLen {
				maxLen = lens[b]
			}
		}
		return stored*12 + int64(maxLen+1)*4 + int64(n)*8 // val+idx, col_start, rowLen+perm
	default: // ELLPACK-R
		npad := ((n + core.WarpSize - 1) / core.WarpSize) * core.WarpSize
		return int64(npad)*int64(m.MaxRowLen())*12 + int64(npad)*4
	}
}
