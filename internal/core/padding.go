package core

import (
	"slices"

	"pjds/internal/matrix"
)

// The SELL-C-σ layout itself (SELL) carries the paper's padded
// formats as presets; this file adds the layout-quality measures the
// (C, σ) auto-tuner works with: the zero-padding overhead β and its
// row-length estimate, Padding. See DESIGN.md "SELL-C-σ presets and the
// format tuner" for the mapping to the paper's quantities.

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

// Padding predicts the stored slots and zero-padding overhead β of
// SELL-C-σ layouts from row lengths alone, without building them: it
// replays the conversion's window clamping and windowed sort on the
// length array and sums per-chunk padded rectangles. The lengths sorted
// inside σ windows are kept per σ and shared by every chunk height C,
// so the tuner's Eq. 1 pruning pass sorts once per distinct σ of its
// (C, σ) grid, and only surviving cells pay for a real conversion.
type Padding struct {
	lens   []int
	nnz    int64
	maxLen int
	sorted map[int][]int // clamped σ > 1 → lens sorted descending per window
}

// NewPadding prepares the padding estimates of a matrix with row
// lengths lens. lens is retained and must not change.
func NewPadding(lens []int) *Padding {
	p := &Padding{lens: lens, sorted: map[int][]int{}}
	for _, l := range lens {
		p.nnz += int64(l)
		p.maxLen = max(p.maxLen, l)
	}
	return p
}

// Estimate returns the number of value slots, padding included, of
// the layout NewSELL builds with chunk height c and sorting window
// sigma — exactly its len(Val) — and that layout's β = stored/nnz − 1
// (0 for an empty matrix). Both are 0 when c < 1.
func (p *Padding) Estimate(c, sigma int) (stored int64, beta float64) {
	n := len(p.lens)
	if c < 1 {
		return 0, 0
	}
	// Mirror NewSELL's clamping so the count is exact.
	sorted := p.sortedLens(ClampSigma(c, sigma, n))
	for lo := 0; lo < n; lo += c {
		stored += int64(slices.Max(sorted[lo:min(lo+c, n)])) * int64(c)
	}
	if p.nnz == 0 {
		return stored, 0
	}
	return stored, float64(stored)/float64(p.nnz) - 1
}

// sortedLens returns the row lengths sorted descending inside each
// window of sigma rows, as NewSELL sorts them (the lengths
// themselves when sigma ≤ 1).
func (p *Padding) sortedLens(sigma int) []int {
	if sigma <= 1 {
		return p.lens
	}
	if s, ok := p.sorted[sigma]; ok {
		return s
	}
	n := len(p.lens)
	perm := matrix.Identity(n)
	count := make([]int, p.maxLen+2)
	for lo := 0; lo < n; lo += sigma {
		matrix.SortRangeByLengthDesc(p.lens, lo, min(lo+sigma, n), perm, count)
	}
	s := make([]int, n)
	for i, old := range perm {
		s[i] = p.lens[old]
	}
	p.sorted[sigma] = s
	return s
}
