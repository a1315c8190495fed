// Package textplot renders simple ASCII line charts and tables for
// the benchmark binaries: the strong-scaling curves of Fig. 5, the
// Fig. 4 timeline, and the Table I grid.
package textplot

import (
	"fmt"
	"io"
	"math"
	"strings"

	"pjds/internal/telemetry"
)

// Series is one named curve.
type Series struct {
	Name string
	X, Y []float64
}

// markers cycle through the series.
var markers = []byte{'*', 'o', '+', 'x', '@', '%'}

// Plot renders the series into an ASCII grid of the given size. Axes
// start at 0; points are marked per series, with a legend below.
func Plot(w io.Writer, title string, width, height int, series []Series) error {
	if width < 20 {
		width = 20
	}
	if height < 5 {
		height = 5
	}
	var xMax, yMax float64
	for _, s := range series {
		for i := range s.X {
			xMax = math.Max(xMax, s.X[i])
			yMax = math.Max(yMax, s.Y[i])
		}
	}
	if xMax == 0 {
		xMax = 1
	}
	if yMax == 0 {
		yMax = 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		mark := markers[si%len(markers)]
		for i := range s.X {
			c := int(s.X[i] / xMax * float64(width-1))
			r := height - 1 - int(s.Y[i]/yMax*float64(height-1))
			if c >= 0 && c < width && r >= 0 && r < height {
				grid[r][c] = mark
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	for r, row := range grid {
		label := ""
		if r == 0 {
			label = fmt.Sprintf("%.4g", yMax)
		}
		if r == height-1 {
			label = "0"
		}
		if _, err := fmt.Fprintf(w, "%8s |%s\n", label, string(row)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%8s +%s\n", "", strings.Repeat("-", width)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%8s  0%s%.4g\n", "", strings.Repeat(" ", width-len(fmt.Sprintf("%.4g", xMax))-1), xMax); err != nil {
		return err
	}
	for si, s := range series {
		if _, err := fmt.Fprintf(w, "%10c %s\n", markers[si%len(markers)], s.Name); err != nil {
			return err
		}
	}
	return nil
}

// Table renders rows with aligned columns; the first row is the
// header, separated by a rule.
func Table(w io.Writer, rows [][]string) error {
	if len(rows) == 0 {
		return nil
	}
	widths := make([]int, 0)
	for _, row := range rows {
		for c, cell := range row {
			if c >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	print := func(row []string) error {
		var b strings.Builder
		for c, cell := range row {
			if c > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[c], cell)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := print(rows[0]); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total-2)); err != nil {
		return err
	}
	for _, row := range rows[1:] {
		if err := print(row); err != nil {
			return err
		}
	}
	return nil
}

// Gantt renders one labelled [start, end) bar per span, in the given
// order — the Fig. 4 timeline.
func Gantt(w io.Writer, title string, width int, spans []telemetry.Span) error {
	if width < 30 {
		width = 30
	}
	var tMax float64
	for _, s := range spans {
		tMax = math.Max(tMax, s.End)
	}
	if tMax == 0 {
		tMax = 1
	}
	if _, err := fmt.Fprintf(w, "%s (total %.3g s)\n", title, tMax); err != nil {
		return err
	}
	for _, s := range spans {
		a := int(s.Start / tMax * float64(width))
		b := int(s.End / tMax * float64(width))
		if b <= a {
			b = a + 1
		}
		if b > width {
			b = width
		}
		bar := strings.Repeat(" ", a) + strings.Repeat("=", b-a) + strings.Repeat(" ", width-b)
		if _, err := fmt.Fprintf(w, "%6s %-18s |%s|\n", s.Lane, s.Name, bar); err != nil {
			return err
		}
	}
	return nil
}
