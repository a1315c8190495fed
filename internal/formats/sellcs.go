package formats

import (
	"pjds/internal/core"
	"pjds/internal/matrix"
)

// The SELL-C-σ layout itself (core.SELL) carries the paper's padded
// formats as presets; this file adds the layout-quality measures the
// (C, σ) auto-tuner works with: the zero-padding overhead β and its
// row-length estimate. See DESIGN.md "SELL-C-σ presets and the format
// tuner" for the mapping to the paper's quantities.

// ZeroPadding computes β = stored/nnz − 1 for any format; 0 for
// padding-free formats such as CRS and CMRS.
func ZeroPadding[T matrix.Float](f Format[T]) float64 {
	nnz := f.NonZeros()
	if nnz == 0 {
		return 0
	}
	return float64(f.StoredElems())/float64(nnz) - 1
}

// ChunkOccupancy returns nnz/stored = 1/(1+β): the fraction of stored
// slots holding genuine non-zeros (CMRS's "chunk occupancy" measure,
// 1.0 for padding-free formats).
func ChunkOccupancy[T matrix.Float](f Format[T]) float64 {
	stored := f.StoredElems()
	if stored == 0 {
		return 1
	}
	return float64(f.NonZeros()) / float64(stored)
}

// EstimateBeta predicts the zero-padding overhead β of a SELL-C-σ
// layout from row lengths alone, without building the matrix: it
// replays the conversion's window clamping and windowed sort on the
// length array and sums per-slice padded rectangles. The tuner's
// Eq. 1 pruning pass calls this for every (C, σ) grid cell, so only
// surviving cells pay for a real conversion.
func EstimateBeta(lens []int, c, sigma int) float64 {
	n := len(lens)
	if n == 0 || c < 1 {
		return 0
	}
	// Mirror core.NewSELL's clamping so the estimate is exact.
	sigma = core.ClampSigma(c, sigma, n)
	maxLen := 0
	var nnz int64
	for _, l := range lens {
		nnz += int64(l)
		if l > maxLen {
			maxLen = l
		}
	}
	if nnz == 0 {
		return 0
	}
	sorted := lens
	if sigma > 1 {
		perm := matrix.Identity(n)
		count := make([]int, maxLen+2)
		for lo := 0; lo < n; lo += sigma {
			matrix.SortRangeByLengthDesc(lens, lo, min(lo+sigma, n), perm, count)
		}
		sorted = make([]int, n)
		for i, p := range perm {
			sorted[i] = lens[p]
		}
	}
	var stored int64
	for lo := 0; lo < n; lo += c {
		sliceMax := 0
		for i := lo; i < lo+c && i < n; i++ {
			if sorted[i] > sliceMax {
				sliceMax = sorted[i]
			}
		}
		stored += int64(sliceMax) * int64(c)
	}
	return float64(stored)/float64(nnz) - 1
}
