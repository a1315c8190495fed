// Package matgen generates synthetic sparse matrices that reproduce
// the published structure of the paper's five proprietary test
// matrices (§I-C): dimension, non-zero count, row-length distribution
// (Fig. 3), structural notes (HMEp's contiguous off-diagonals, DLR2's
// dense 5×5 blocks, DLR1's 6 unknowns per grid point, sAMG's
// short-row-dominated AMG stencils), and therefore the pJDS data-
// reduction potential of Table I.
//
// Every generator is deterministic in its seed and accepts a scale
// factor that shrinks the row count while preserving N_nzr and the
// row-length distribution, for memory-limited hosts (see the
// DESIGN.md scale note for UHBR).
package matgen

import (
	"fmt"
	"math/rand"
	"sort"

	"pjds/internal/matrix"
)

// builder assembles a CSR matrix row by row without the COO detour,
// which matters at the 10⁸-non-zero scale of DLR2.
type builder struct {
	n      int
	rowPtr []int
	colIdx []int32
	val    []float64
}

func newBuilder(n int, nnzEstimate int64) *builder {
	return &builder{
		n:      n,
		rowPtr: append(make([]int, 0, n+1), 0),
		colIdx: make([]int32, 0, nnzEstimate),
		val:    make([]float64, 0, nnzEstimate),
	}
}

// addRow appends the next row; cols must be sorted and unique.
func (b *builder) addRow(cols []int32, vals []float64) {
	b.colIdx = append(b.colIdx, cols...)
	b.val = append(b.val, vals...)
	b.rowPtr = append(b.rowPtr, len(b.colIdx))
}

func (b *builder) finish() *matrix.CSR[float64] {
	m, err := matrix.NewCSR(b.n, b.n, b.rowPtr, b.colIdx, b.val)
	if err != nil {
		// Contract: generators add sorted, in-range rows, so NewCSR cannot fail.
		panic(fmt.Sprintf("matgen: internal builder error: %v", err))
	}
	return m
}

// rowScratch holds reusable per-row buffers.
type rowScratch struct {
	cols []int32
	vals []float64
	seen map[int32]bool
}

func newScratch() *rowScratch {
	return &rowScratch{seen: make(map[int32]bool, 64)}
}

// reset clears the scratch for a new row.
func (s *rowScratch) reset() {
	s.cols = s.cols[:0]
	s.vals = s.vals[:0]
	for k := range s.seen {
		delete(s.seen, k)
	}
}

// add inserts column c if new and in range.
func (s *rowScratch) add(c int, n int, v float64) {
	if c < 0 || c >= n {
		return
	}
	ci := int32(c)
	if s.seen[ci] {
		return
	}
	s.seen[ci] = true
	s.cols = append(s.cols, ci)
	s.vals = append(s.vals, v)
}

// emit sorts the row by column and writes it to the builder.
func (s *rowScratch) emit(b *builder) {
	idx := make([]int, len(s.cols))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, c int) bool { return s.cols[idx[a]] < s.cols[idx[c]] })
	cols := make([]int32, len(idx))
	vals := make([]float64, len(idx))
	for i, j := range idx {
		cols[i] = s.cols[j]
		vals[i] = s.vals[j]
	}
	b.addRow(cols, vals)
}

// bandFill adds `count` random distinct columns within ±width of i
// (excluding already-present columns), preferring nearby ones.
func (s *rowScratch) bandFill(rng *rand.Rand, i, n, count, width int) {
	for added, attempts := 0, 0; added < count && attempts < 20*count; attempts++ {
		off := rng.Intn(2*width+1) - width
		c := i + off
		if c < 0 || c >= n {
			continue
		}
		if !s.seen[int32(c)] {
			s.add(c, n, symValue(rng))
			added++
		}
	}
}

// symValue draws a well-conditioned off-diagonal value.
func symValue(rng *rand.Rand) float64 { return 0.1 + 0.9*rng.Float64() }

// sortWindowsDesc sorts the values descending within consecutive
// windows of the given size. It is a permutation, so the marginal
// distribution is untouched, but it adds the spatial correlation of
// row lengths that real application matrices show (mesh regions and
// quantum-number blocks have locally similar stencils). Without it,
// i.i.d. lengths overstate warp-level imbalance and hence the
// ELLPACK-R penalty.
//
// Windows reuse matrix.SortRangeByLengthDesc — the same stable
// counting sort the σ-windowed SELL-C-σ conversion runs — so the
// generators and the formats share one sort path.
func sortWindowsDesc(vals []int, window int) {
	n := len(vals)
	if window <= 1 || n == 0 {
		return
	}
	maxLen := 0
	for _, v := range vals {
		if v > maxLen {
			maxLen = v
		}
	}
	perm := matrix.Identity(n)
	count := make([]int, maxLen+2)
	for lo := 0; lo < n; lo += window {
		matrix.SortRangeByLengthDesc(vals, lo, min(lo+window, n), perm, count)
	}
	sorted := make([]int, n)
	for i, p := range perm {
		sorted[i] = vals[p]
	}
	copy(vals, sorted)
}

// scaleDim shrinks a dimension by the scale factor, keeping at least
// one unit.
func scaleDim(n int, scale float64) int {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	s := int(float64(n) * scale)
	if s < 1 {
		s = 1
	}
	return s
}
