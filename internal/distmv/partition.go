// Package distmv implements the paper's §III: distributed-memory
// spMVM across multiple GPUs. A square matrix is partitioned into
// contiguous row blocks (non-zero balanced); each rank holds a local
// sub-matrix (columns inside its row range) and a non-local one
// (columns owned by other ranks, remapped onto a compact halo). One
// spMVM then needs a halo exchange of RHS elements, host↔device PCIe
// transfers, and one or two kernel launches, choreographed in one of
// the three communication schemes of §III-A: vector mode, naive
// overlap, and task mode (dedicated communication thread, Fig. 4).
// Halo is the one halo-exchange engine: the three schemes place their
// kernels around its steps, and internal/distsolver's operator runs it
// once per application.
package distmv

import (
	"fmt"
	"slices"
	"sort"

	"pjds/internal/gpu"
	"pjds/internal/matrix"
)

// Partition is a contiguous row-block partition: rank r owns rows
// [Bounds[r], Bounds[r+1]).
type Partition struct {
	Bounds []int
}

// PartitionByNnz splits the matrix into p blocks of approximately
// equal non-zero count (the load-balancing choice of [4]).
func PartitionByNnz(m *matrix.CSR[float64], p int) (Partition, error) {
	if p < 1 {
		return Partition{}, fmt.Errorf("distmv: %d ranks", p)
	}
	if p > m.NRows && m.NRows > 0 {
		return Partition{}, fmt.Errorf("distmv: %d ranks for %d rows", p, m.NRows)
	}
	b := make([]int, p+1)
	total := m.Nnz()
	row := 0
	for r := 1; r < p; r++ {
		target := total * r / p
		for row < m.NRows && m.RowPtr[row] < target {
			row++
		}
		// Never leave a rank empty: advance at least one row per rank.
		if row <= b[r-1] {
			row = b[r-1] + 1
		}
		b[r] = row
	}
	b[p] = m.NRows
	return Partition{Bounds: b}, nil
}

// PartitionByRows splits the matrix into p blocks of (nearly) equal
// row count — simpler than non-zero balancing but load-imbalanced on
// matrices with varying row lengths; the ablation quantifies the
// difference.
func PartitionByRows(m *matrix.CSR[float64], p int) (Partition, error) {
	if p < 1 {
		return Partition{}, fmt.Errorf("distmv: %d ranks", p)
	}
	if p > m.NRows && m.NRows > 0 {
		return Partition{}, fmt.Errorf("distmv: %d ranks for %d rows", p, m.NRows)
	}
	b := make([]int, p+1)
	for r := 1; r < p; r++ {
		b[r] = m.NRows * r / p
		if b[r] <= b[r-1] {
			b[r] = b[r-1] + 1
		}
	}
	b[p] = m.NRows
	return Partition{Bounds: b}, nil
}

// PartitionByKernelTime balances the *estimated kernel time* of each
// block on the given device instead of raw non-zeros: a block's cost
// is its memory traffic divided by the bandwidth its occupancy can
// sustain, so a few very long rows no longer win a whole starved GPU
// (the failure mode the partitioning ablation exposes for plain nnz
// balancing). Implemented as a binary search over the bottleneck cost
// with a greedy feasibility check.
func PartitionByKernelTime(dev *gpu.Device) func(*matrix.CSR[float64], int) (Partition, error) {
	return func(m *matrix.CSR[float64], p int) (Partition, error) {
		if p < 1 {
			return Partition{}, fmt.Errorf("distmv: %d ranks", p)
		}
		if p > m.NRows && m.NRows > 0 {
			return Partition{}, fmt.Errorf("distmv: %d ranks for %d rows", p, m.NRows)
		}
		if err := dev.Validate(); err != nil {
			return Partition{}, err
		}
		// cost of rows [lo, hi): streaming bytes over occupancy-derated
		// bandwidth (halo effects are second-order for balancing).
		cost := func(lo, hi int) float64 {
			rows := hi - lo
			if rows <= 0 {
				return 0
			}
			nnz := m.RowPtr[hi] - m.RowPtr[lo]
			bytes := float64(nnz)*12 + float64(rows)*24
			warps := (rows + dev.WarpSize - 1) / dev.WarpSize
			return bytes / dev.EffectiveBandwidth(warps)
		}
		// feasible reports whether a max block cost of t admits ≤ p
		// non-empty blocks, and returns the greedy bounds.
		feasible := func(t float64) ([]int, bool) {
			b := []int{0}
			lo := 0
			for lo < m.NRows {
				// Largest hi with cost(lo, hi) ≤ t (cost is monotone in
				// hi); always take at least one row.
				hi := lo + 1
				step := 1
				for hi+step <= m.NRows && cost(lo, hi+step) <= t {
					hi += step
					step *= 2
				}
				for step > 1 {
					step /= 2
					for hi+step <= m.NRows && cost(lo, hi+step) <= t {
						hi += step
					}
				}
				b = append(b, hi)
				lo = hi
				if len(b) > p+1 {
					return nil, false
				}
			}
			return b, len(b) <= p+1
		}
		// Binary search the bottleneck cost.
		loT, hiT := 0.0, cost(0, m.NRows)
		for i := 0; i < 50; i++ {
			mid := (loT + hiT) / 2
			if _, ok := feasible(mid); ok {
				hiT = mid
			} else {
				loT = mid
			}
		}
		bounds, ok := feasible(hiT)
		if !ok {
			return Partition{}, fmt.Errorf("distmv: kernel-time partitioning failed for %d ranks", p)
		}
		// Greedy may use fewer blocks than p; split the largest-cost
		// blocks' row ranges until the count matches (every rank must
		// own at least one row).
		for len(bounds)-1 < p {
			worst, worstCost := -1, -1.0
			for r := 0; r+1 < len(bounds); r++ {
				if bounds[r+1]-bounds[r] >= 2 {
					if c := cost(bounds[r], bounds[r+1]); c > worstCost {
						worst, worstCost = r, c
					}
				}
			}
			if worst < 0 {
				return Partition{}, fmt.Errorf("distmv: cannot split %d rows over %d ranks", m.NRows, p)
			}
			mid := (bounds[worst] + bounds[worst+1]) / 2
			bounds = append(bounds[:worst+1], append([]int{mid}, bounds[worst+1:]...)...)
		}
		return Partition{Bounds: bounds}, nil
	}
}

// Ranks returns the number of row blocks.
func (pt Partition) Ranks() int { return len(pt.Bounds) - 1 }

// Range returns rank r's row interval [lo, hi).
func (pt Partition) Range(r int) (lo, hi int) { return pt.Bounds[r], pt.Bounds[r+1] }

// Owner returns the rank owning the given row/column index.
func (pt Partition) Owner(idx int) int {
	// The first bound greater than idx, minus one.
	r := sort.SearchInts(pt.Bounds[1:], idx+1)
	return r
}

// RankProblem is everything one rank needs for the distributed spMVM.
type RankProblem struct {
	Rank, P      int
	RowLo, RowHi int
	GlobalN      int

	// Local holds the columns inside [RowLo, RowHi), remapped to
	// 0-based local indices; NonLocal holds the remaining columns
	// remapped onto the compact halo [0, len(HaloCols)).
	Local    *matrix.CSR[float64]
	NonLocal *matrix.CSR[float64]

	// HaloCols lists the needed remote global column indices, sorted
	// ascending (hence grouped by owner, since blocks are contiguous).
	HaloCols []int32
	// HaloOffset[o] is the position in HaloCols where owner o's block
	// starts; owners not present are absent from the map.
	HaloOffset map[int]int
	// RecvCount[o] is the number of halo elements owned by rank o.
	RecvCount map[int]int
	// SendIdx[r] lists the local (0-based) row indices whose x values
	// this rank must send to rank r each iteration, in r's halo order.
	SendIdx map[int][]int32
}

// LocalRows returns the number of rows this rank owns.
func (rp *RankProblem) LocalRows() int { return rp.RowHi - rp.RowLo }

// HaloSize returns the number of remote RHS elements needed per
// iteration.
func (rp *RankProblem) HaloSize() int { return len(rp.HaloCols) }

// SendElems returns the total number of x elements sent per iteration.
func (rp *RankProblem) SendElems() int {
	n := 0
	for _, idx := range rp.SendIdx {
		n += len(idx)
	}
	return n
}

// Neighbors returns the number of distinct ranks communicated with
// (union of send and receive partners).
func (rp *RankProblem) Neighbors() int {
	set := map[int]bool{}
	for o := range rp.RecvCount {
		set[o] = true
	}
	for o := range rp.SendIdx {
		set[o] = true
	}
	return len(set)
}

// Distribute builds all rank problems for a square matrix under the
// given partition. This is the setup phase that real codes run once
// before the iteration loop; the paper's measurements exclude it.
func Distribute(m *matrix.CSR[float64], pt Partition) ([]*RankProblem, error) {
	return DistributeOpt(m, pt, matrix.ConvertOptions{})
}

// DistributeOpt is Distribute with explicit conversion options. Rank
// problems are independent, so their construction (column scan, halo
// discovery, local/non-local split) parallelizes over ranks, each
// worker reusing one halo-slot array for all its ranks; the send
// lists then parallelize over the *owning* rank, each worker writing
// only its owners' SendIdx maps. The result is identical to the
// sequential build for every worker count.
func DistributeOpt(m *matrix.CSR[float64], pt Partition, opt matrix.ConvertOptions) ([]*RankProblem, error) {
	if m.NRows != m.NCols {
		return nil, fmt.Errorf("distmv: matrix %dx%d not square", m.NRows, m.NCols)
	}
	p := pt.Ranks()
	problems := make([]*RankProblem, p)

	done := opt.Phase("partition-build")
	opt.Run(p, func(w, rLo, rHi int) {
		slot := make([]int32, m.NCols)
		for i := range slot {
			slot[i] = -1
		}
		for r := rLo; r < rHi; r++ {
			problems[r] = buildRankProblem(m, pt, r, slot)
		}
	})
	done()

	// Derive the send lists from the receive lists, parallel over the
	// owner: worker blocks over o write disjoint SendIdx maps.
	done = opt.Phase("partition-halo")
	opt.Run(p, func(w, oLo, oHi int) {
		for o := oLo; o < oHi; o++ {
			owner := problems[o]
			for _, rp := range problems {
				cnt := rp.RecvCount[o]
				if cnt == 0 {
					continue
				}
				off := rp.HaloOffset[o]
				idx := make([]int32, cnt)
				for k := 0; k < cnt; k++ {
					idx[k] = rp.HaloCols[off+k] - int32(owner.RowLo)
				}
				owner.SendIdx[rp.Rank] = idx
			}
		}
	})
	done()
	return problems, nil
}

// buildRankProblem assembles rank r's problem (everything except the
// send lists, which need all ranks' halos). slot is the calling
// worker's dense halo-slot array over the global columns, -1 on entry
// and again on return: in between, a remote column's entry first marks
// it as seen and then holds its position in HaloCols, so neither the
// halo discovery nor the column remap needs a map.
func buildRankProblem(m *matrix.CSR[float64], pt Partition, r int, slot []int32) *RankProblem {
	lo, hi := pt.Range(r)
	rp := &RankProblem{
		Rank: r, P: pt.Ranks(), RowLo: lo, RowHi: hi, GlobalN: m.NRows,
		HaloOffset: map[int]int{},
		RecvCount:  map[int]int{},
		SendIdx:    map[int][]int32{},
	}
	local := func(c int32) bool { return int(c) >= lo && int(c) < hi }

	// First pass: collect the distinct remote columns.
	var nnzLoc, nnzNl int
	for _, c := range m.ColIdx[m.RowPtr[lo]:m.RowPtr[hi]] {
		if local(c) {
			nnzLoc++
			continue
		}
		nnzNl++
		if slot[c] < 0 {
			slot[c] = 0
			rp.HaloCols = append(rp.HaloCols, c)
		}
	}
	slices.Sort(rp.HaloCols)
	// Number the halo and group it by owner: sorted columns of
	// contiguous blocks arrive one owner after another.
	for s := 0; s < len(rp.HaloCols); {
		o := pt.Owner(int(rp.HaloCols[s]))
		e := s
		for ; e < len(rp.HaloCols) && int(rp.HaloCols[e]) < pt.Bounds[o+1]; e++ {
			slot[rp.HaloCols[e]] = int32(e)
		}
		rp.HaloOffset[o] = s
		rp.RecvCount[o] = e - s
		s = e
	}

	// Second pass: split into local and non-local CSR.
	nloc := hi - lo
	rp.Local = &matrix.CSR[float64]{
		NRows: nloc, NCols: nloc,
		RowPtr: make([]int, nloc+1),
		ColIdx: make([]int32, 0, nnzLoc),
		Val:    make([]float64, 0, nnzLoc),
	}
	rp.NonLocal = &matrix.CSR[float64]{
		NRows: nloc, NCols: len(rp.HaloCols),
		RowPtr: make([]int, nloc+1),
		ColIdx: make([]int32, 0, nnzNl),
		Val:    make([]float64, 0, nnzNl),
	}
	loc, nl := rp.Local, rp.NonLocal
	for i := lo; i < hi; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			if local(c) {
				loc.ColIdx = append(loc.ColIdx, c-int32(lo))
				loc.Val = append(loc.Val, vals[k])
			} else {
				nl.ColIdx = append(nl.ColIdx, slot[c])
				nl.Val = append(nl.Val, vals[k])
			}
		}
		loc.RowPtr[i-lo+1] = len(loc.Val)
		nl.RowPtr[i-lo+1] = len(nl.Val)
	}
	for _, c := range rp.HaloCols {
		slot[c] = -1
	}
	return rp
}

// MergedSlice rebuilds the rank's full row slice with the extended
// column space [0, nloc+halo): local columns first, halo columns
// after. It is the operand of vector mode's single-step kernel; build
// it on demand and drop it after profiling, it duplicates the rank's
// matrix data.
func (rp *RankProblem) MergedSlice() *matrix.CSR[float64] {
	nloc := rp.LocalRows()
	nnz := rp.Local.Nnz() + rp.NonLocal.Nnz()
	mg := &matrix.CSR[float64]{
		NRows: nloc, NCols: nloc + rp.HaloSize(),
		RowPtr: make([]int, nloc+1),
		ColIdx: make([]int32, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	for i := 0; i < nloc; i++ {
		lc, lv := rp.Local.Row(i)
		nc, nv := rp.NonLocal.Row(i)
		// Keep column order sorted in the merged space: local columns
		// stay below nloc, halo columns are shifted above.
		mg.ColIdx = append(mg.ColIdx, lc...)
		mg.Val = append(mg.Val, lv...)
		for k, c := range nc {
			mg.ColIdx = append(mg.ColIdx, c+int32(nloc))
			mg.Val = append(mg.Val, nv[k])
		}
		mg.RowPtr[i+1] = len(mg.Val)
	}
	return mg
}
