package hostkernel

import "pjds/internal/matrix"

// newNaive is the sequential CRS reference: matrix.CSR.MulRows on one
// worker, the exact baseline every other kernel must be bit-identical
// to, kept so cross-checks, fuzzing and -host-kernel=naive exercise it.
func newNaive(m *matrix.CSR[float64], opt Options) *kernel {
	return newKernel(string(KindNaive), "crs", m.NRows, m.NCols, m.Nnz(), m.RowPtr, 1, opt.Metrics, m.MulRows)
}

// newBlocked is the parallel CRS kernel: each worker's rows run two at
// a time, the pair's common length prefix in lockstep through
// sub-slices whose shared length the compiler can prove, eliding every
// bounds check on v0/c0/v1/c1, with one accumulator per row; the
// ragged tails then finish row by row. Wider lockstep groups and a 2×
// unrolled inner loop were measured and rejected (see DESIGN.md). The
// set and add flavours are separate functions so the hot loop carries
// no mode branch (worth ~10% on this kernel). Per-row summation order
// never changes, so the result is bit-identical to the naive reference.
func newBlocked(m *matrix.CSR[float64], opt Options) *kernel {
	return newKernel(string(KindBlocked), "crs", m.NRows, m.NCols, m.Nnz(), m.RowPtr, opt.Workers, opt.Metrics,
		func(y, x []float64, lo, hi int, add bool) {
			if add {
				crsPairsAdd(m.RowPtr, m.Val, m.ColIdx, y, x, lo, hi)
			} else {
				crsPairsSet(m.RowPtr, m.Val, m.ColIdx, y, x, lo, hi)
			}
		})
}

func crsPairsSet(rp []int, val []float64, idx []int32, y, x []float64, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		p0, p1, q0, q1 := rp[i], rp[i+1], rp[i+1], rp[i+2]
		minL := q0 - p0
		if l := q1 - p1; l < minL {
			minL = l
		}
		v0 := val[p0 : p0+minL]
		c0 := idx[p0 : p0+minL]
		v1 := val[p1 : p1+minL]
		c1 := idx[p1 : p1+minL]
		var s0, s1 float64
		for j := range v0 {
			s0 += v0[j] * x[c0[j]]
			s1 += v1[j] * x[c1[j]]
		}
		y[i] = rowTail(s0, val, idx, x, p0+minL, q0)
		y[i+1] = rowTail(s1, val, idx, x, p1+minL, q1)
	}
	for ; i < hi; i++ {
		y[i] = rowTail(0, val, idx, x, rp[i], rp[i+1])
	}
}

func crsPairsAdd(rp []int, val []float64, idx []int32, y, x []float64, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		p0, p1, q0, q1 := rp[i], rp[i+1], rp[i+1], rp[i+2]
		minL := q0 - p0
		if l := q1 - p1; l < minL {
			minL = l
		}
		v0 := val[p0 : p0+minL]
		c0 := idx[p0 : p0+minL]
		v1 := val[p1 : p1+minL]
		c1 := idx[p1 : p1+minL]
		var s0, s1 float64
		for j := range v0 {
			s0 += v0[j] * x[c0[j]]
			s1 += v1[j] * x[c1[j]]
		}
		y[i] += rowTail(s0, val, idx, x, p0+minL, q0)
		y[i+1] += rowTail(s1, val, idx, x, p1+minL, q1)
	}
	for ; i < hi; i++ {
		y[i] += rowTail(0, val, idx, x, rp[i], rp[i+1])
	}
}

// rowTail accumulates sum += val[p]·x[idx[p]] over [p, q) — the
// remainder of one row after its pair's lockstep prefix, in the row's
// stored column order.
func rowTail(sum float64, val []float64, idx []int32, x []float64, p, q int) float64 {
	for ; p < q; p++ {
		sum += val[p] * x[idx[p]]
	}
	return sum
}
