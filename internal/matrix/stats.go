package matrix

import (
	"fmt"
	"math"
)

// Stats summarizes the sparsity structure of a matrix with the
// quantities the paper reports and reasons with: dimension, Nnz, the
// average / maximum / minimum row lengths (N_nzr, N^max_nzr), the
// relative row-length width max/min that §II-A uses to predict pJDS
// gains, and bandwidth/locality measures that drive RHS cache reuse.
type Stats struct {
	Rows, Cols int
	Nnz        int
	AvgRowLen  float64 // the paper's N_nzr
	MaxRowLen  int     // the paper's N^max_nzr
	MinRowLen  int
	// RelativeWidth is max(rowLen)/min(rowLen); the paper quotes ≈2 for
	// DLR1 and >4 for sAMG as the predictor of pJDS data reduction.
	RelativeWidth float64
	// RowLenStdDev is the standard deviation of the row lengths; large
	// values mean warp-level imbalance under ELLPACK-R.
	RowLenStdDev float64
	// Bandwidth is max |i - j| over stored entries: RHS locality proxy.
	Bandwidth int
	// AvgColSpan is the mean over rows of (max col − min col), a finer
	// locality proxy for the cache model's α parameter.
	AvgColSpan float64
}

// ComputeStats scans the matrix once and fills a Stats.
func ComputeStats[T Float](m *CSR[T]) Stats {
	s := Stats{Rows: m.NRows, Cols: m.NCols, Nnz: m.Nnz()}
	if m.NRows == 0 {
		return s
	}
	s.AvgRowLen = m.AvgRowLen()
	s.MinRowLen = math.MaxInt
	var sumSq float64
	var spanSum float64
	for i := 0; i < m.NRows; i++ {
		l := m.RowLen(i)
		if l > s.MaxRowLen {
			s.MaxRowLen = l
		}
		if l < s.MinRowLen {
			s.MinRowLen = l
		}
		d := float64(l) - s.AvgRowLen
		sumSq += d * d
		cols, _ := m.Row(i)
		if len(cols) > 0 {
			minC, maxC := cols[0], cols[0]
			for _, c := range cols {
				if c < minC {
					minC = c
				}
				if c > maxC {
					maxC = c
				}
				if bw := int(math.Abs(float64(int(c) - i))); bw > s.Bandwidth {
					s.Bandwidth = bw
				}
			}
			spanSum += float64(maxC - minC)
		}
	}
	s.RowLenStdDev = math.Sqrt(sumSq / float64(m.NRows))
	s.AvgColSpan = spanSum / float64(m.NRows)
	if s.MinRowLen > 0 {
		s.RelativeWidth = float64(s.MaxRowLen) / float64(s.MinRowLen)
	} else {
		s.RelativeWidth = math.Inf(1)
	}
	return s
}

// String renders the statistics in a compact single-matrix report.
func (s Stats) String() string {
	return fmt.Sprintf("N=%d Nnz=%d Nnzr=%.1f max=%d min=%d width=%.1f sigma=%.1f bw=%d",
		s.Rows, s.Nnz, s.AvgRowLen, s.MaxRowLen, s.MinRowLen, s.RelativeWidth, s.RowLenStdDev, s.Bandwidth)
}

// RowLenHistogram counts rows per stored-length bin with bin size 1,
// exactly as in the paper's Fig. 3. Index l of the returned slice is
// the number of rows with l non-zeros.
func RowLenHistogram[T Float](m *CSR[T]) []int {
	h := make([]int, m.MaxRowLen()+1)
	for i := 0; i < m.NRows; i++ {
		h[m.RowLen(i)]++
	}
	return h
}
