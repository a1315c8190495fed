package matrix

import "fmt"

// Perm is a permutation of [0, n): Perm[new] = old. Applying a Perm to
// a vector gathers elements from their old positions into the new
// order. The pJDS format stores its row-sorting permutation as a Perm
// so that iterative solvers can move in and out of the permuted basis
// exactly once, as §II-A of the paper prescribes.
type Perm []int

// Identity returns the identity permutation of size n.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Valid reports whether p is a bijection on [0, len(p)).
func (p Perm) Valid() bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Inverse returns q with q[p[i]] = i.
func (p Perm) Inverse() Perm {
	q := make(Perm, len(p))
	for i, v := range p {
		q[v] = i
	}
	return q
}

// Gather writes dst[i] = src[p[i]] and returns dst. dst and src must
// not alias.
func Gather[T Float](dst, src []T, p Perm) []T {
	if len(dst) != len(p) || len(src) != len(p) {
		// Contract: |dst| = |src| = |p|; the service checks |x| and |b| first.
		panic(fmt.Sprintf("matrix: Gather sizes dst=%d src=%d p=%d", len(dst), len(src), len(p)))
	}
	for i, v := range p {
		dst[i] = src[v]
	}
	return dst
}

// Scatter writes dst[p[i]] = src[i] and returns dst, the inverse
// motion of Gather. dst and src must not alias.
func Scatter[T Float](dst, src []T, p Perm) []T {
	if len(dst) != len(p) || len(src) != len(p) {
		// Contract: |dst| = |src| = |p|, as for Gather.
		panic(fmt.Sprintf("matrix: Scatter sizes dst=%d src=%d p=%d", len(dst), len(src), len(p)))
	}
	for i, v := range p {
		dst[v] = src[i]
	}
	return dst
}

// PermuteRows returns the matrix whose row i is row p[i] of m.
func PermuteRows[T Float](m *CSR[T], p Perm) *CSR[T] {
	if len(p) != m.NRows {
		// Contract: p permutes m's rows.
		panic(fmt.Sprintf("matrix: row permutation size %d on %d rows", len(p), m.NRows))
	}
	out := &CSR[T]{
		NRows:  m.NRows,
		NCols:  m.NCols,
		RowPtr: make([]int, m.NRows+1),
		ColIdx: make([]int32, m.Nnz()),
		Val:    make([]T, m.Nnz()),
	}
	for i, old := range p {
		out.RowPtr[i+1] = out.RowPtr[i] + m.RowLen(old)
	}
	for i, old := range p {
		lo, hi := m.RowPtr[old], m.RowPtr[old+1]
		copy(out.ColIdx[out.RowPtr[i]:], m.ColIdx[lo:hi])
		copy(out.Val[out.RowPtr[i]:], m.Val[lo:hi])
	}
	return out
}

// PermuteSymmetric returns P·A·Pᵀ for the permutation p: rows are
// reordered with PermuteRows and every column index c is renamed to
// p⁻¹(c). A symmetric permutation preserves eigenvalues, which is why
// solvers can run entirely in the pJDS-permuted basis.
func PermuteSymmetric[T Float](m *CSR[T], p Perm) *CSR[T] {
	if m.NRows != m.NCols {
		// Contract: m is square; solver.NewPermutedPJDS returns an error first.
		panic("matrix: symmetric permutation of a non-square matrix")
	}
	out := PermuteRows(m, p)
	inv := p.Inverse()
	for k, c := range out.ColIdx {
		out.ColIdx[k] = int32(inv[c])
	}
	// Re-sort column indices within each row (renaming breaks order).
	for i := 0; i < out.NRows; i++ {
		lo, hi := out.RowPtr[i], out.RowPtr[i+1]
		sortRow(out.ColIdx[lo:hi], out.Val[lo:hi])
	}
	return out
}

// sortRow sorts a (cols, vals) pair by column index using insertion
// sort; rows are short and nearly sorted after renaming.
func sortRow[T Float](cols []int32, vals []T) {
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1], vals[j+1] = cols[j], vals[j]
			j--
		}
		cols[j+1], vals[j+1] = c, v
	}
}

// SortRowsByLengthDesc returns a permutation ordering rows by
// descending stored length, breaking ties by ascending original row
// index. This is the pJDS "sort" step of Fig. 1; the stable tie-break
// keeps the construction deterministic.
func SortRowsByLengthDesc[T Float](m *CSR[T]) Perm {
	return SortRowsByLengthDescOpt(m, ConvertOptions{})
}

// SortRowsByLengthDescOpt is SortRowsByLengthDesc with explicit
// conversion options. The sort is a parallel stable counting sort:
// every worker histograms its own contiguous row block, an exclusive
// scan over (bucket, worker) assigns each worker its disjoint output
// slots per bucket, and the placement pass then runs with no
// synchronization. Ascending row order within each worker block plus
// the worker-major scan order reproduce exactly the sequential stable
// tie-break, so the permutation is identical for every worker count.
func SortRowsByLengthDescOpt[T Float](m *CSR[T], opt ConvertOptions) Perm {
	n := m.NRows
	p := make(Perm, n)
	if n == 0 {
		return p
	}
	done := opt.Phase("jds-sort")
	defer done()

	workers := opt.EffectiveWorkers()
	if workers > n {
		workers = n
	}
	// Pin the resolved count so every Run below uses one block split.
	opt.Workers = workers
	lens := opt.Arena.Int(n)
	maxW := opt.Arena.Int(workers)
	opt.Run(n, func(w, lo, hi int) {
		max := 0
		for i := lo; i < hi; i++ {
			l := m.RowLen(i)
			lens[i] = l
			if l > max {
				max = l
			}
		}
		if max > maxW[w] {
			maxW[w] = max
		}
	})
	maxLen := 0
	for _, v := range maxW {
		if v > maxLen {
			maxLen = v
		}
	}

	// Per-worker histograms over descending-length buckets
	// (bucket = maxLen − len, so bucket 0 is the longest row).
	buckets := maxLen + 1
	hist := opt.Arena.Int(workers * buckets)
	opt.Run(n, func(w, lo, hi int) {
		h := hist[w*buckets : (w+1)*buckets]
		for i := lo; i < hi; i++ {
			h[maxLen-lens[i]]++
		}
	})
	// Exclusive scan in (bucket, worker) order: worker w's slots for
	// bucket b start after every earlier bucket and after the same
	// bucket's counts from workers < w — the sequential stable order.
	run := 0
	for b := 0; b < buckets; b++ {
		for w := 0; w < workers; w++ {
			c := hist[w*buckets+b]
			hist[w*buckets+b] = run
			run += c
		}
	}
	opt.Run(n, func(w, lo, hi int) {
		h := hist[w*buckets : (w+1)*buckets]
		for i := lo; i < hi; i++ { // ascending i gives the stable tie-break
			b := maxLen - lens[i]
			p[h[b]] = i
			h[b]++
		}
	})
	return p
}

// SortRangeByLengthDesc writes into p[lo:hi] the stable
// descending-length order of rows [lo, hi) (global row indices),
// using the precomputed lens array and a scratch count buffer of at
// least maxLen+2 entries. It is the windowed-sort primitive of the
// sliced-ELLPACK σ ablation; windows are independent, so callers
// parallelize across them with one scratch buffer per worker.
func SortRangeByLengthDesc(lens []int, lo, hi int, p Perm, count []int) {
	maxLen := 0
	for i := lo; i < hi; i++ {
		if lens[i] > maxLen {
			maxLen = lens[i]
		}
	}
	count = count[:maxLen+2]
	clear(count)
	for i := lo; i < hi; i++ {
		count[maxLen-lens[i]+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	for i := lo; i < hi; i++ { // ascending i gives the stable tie-break
		b := maxLen - lens[i]
		p[lo+count[b]] = i
		count[b]++
	}
}
