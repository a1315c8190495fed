package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"pjds/internal/matrix"
)

// Histogram is a bin-size-1 count histogram over non-negative ints:
// the row-length histograms of the paper's Fig. 3, rendered with a
// relative share on a logarithmic axis.
type Histogram struct {
	// Counts[l] is the number of samples with value l.
	Counts []int
	// Total is the number of samples.
	Total int
}

// rowLengthHistogram histograms the stored row lengths of a matrix.
func rowLengthHistogram[T matrix.Float](m *matrix.CSR[T]) Histogram {
	return Histogram{Counts: matrix.RowLenHistogram(m), Total: m.NRows}
}

// RelativeShare returns Counts[l]/Total, the y-axis of Fig. 3.
func (h Histogram) RelativeShare(l int) float64 {
	if h.Total == 0 || l < 0 || l >= len(h.Counts) {
		return 0
	}
	return float64(h.Counts[l]) / float64(h.Total)
}

// MaxBin returns the largest value with a non-zero count, -1 if empty.
func (h Histogram) MaxBin() int {
	for l := len(h.Counts) - 1; l >= 0; l-- {
		if h.Counts[l] > 0 {
			return l
		}
	}
	return -1
}

// Mean returns the sample mean.
func (h Histogram) Mean() float64 {
	if h.Total == 0 {
		return 0
	}
	s := 0.0
	for l, c := range h.Counts {
		s += float64(l) * float64(c)
	}
	return s / float64(h.Total)
}

// RenderLog writes a Fig. 3-style plot: x = value (bin size 1,
// decimated to fit width), y = log10 of the relative share down to
// floor decades. Each row of output is one decade boundary.
func (h Histogram) RenderLog(w io.Writer, title string, width int, decades int) error {
	if width < 10 {
		width = 10
	}
	if decades < 1 {
		decades = 4
	}
	maxBin := h.MaxBin()
	if maxBin < 0 {
		_, err := fmt.Fprintf(w, "%s: empty histogram\n", title)
		return err
	}
	if _, err := fmt.Fprintf(w, "%s  (N=%d, bins 0..%d, log10 relative share)\n", title, h.Total, maxBin); err != nil {
		return err
	}
	binsPerCol := (maxBin + width) / width
	nCols := (maxBin + 1 + binsPerCol - 1) / binsPerCol
	// Column share = max share within the column (preserves peaks).
	share := make([]float64, nCols)
	for l := 0; l <= maxBin; l++ {
		col := l / binsPerCol
		if s := h.RelativeShare(l); s > share[col] {
			share[col] = s
		}
	}
	rows := 2 * decades // half-decade resolution
	for r := 0; r < rows; r++ {
		// Row r covers log10 share in [-(r+1)/2, -r/2).
		hi := -float64(r) / 2
		line := make([]byte, nCols)
		for cIdx := range line {
			line[cIdx] = ' '
			if share[cIdx] > 0 {
				lg := math.Log10(share[cIdx])
				if lg >= hi-0.5 {
					line[cIdx] = '#'
				}
			}
		}
		label := ""
		if r%2 == 0 {
			label = fmt.Sprintf("1e%+d", -r/2)
		}
		if _, err := fmt.Fprintf(w, "%6s |%s\n", label, line); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%6s +%s\n", "", strings.Repeat("-", nCols)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%6s  0%s%d  (non-zeros per row, %d bins/col)\n", "", strings.Repeat(" ", max(nCols-len(fmt.Sprint(maxBin))-1, 0)), maxBin, binsPerCol)
	return err
}
