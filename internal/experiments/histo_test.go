package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"pjds/internal/matgen"
	"pjds/internal/matrix"
)

func TestFromRowLengths(t *testing.T) {
	coo := matrix.NewCOO[float64](4, 8)
	for j := 0; j < 3; j++ {
		coo.Add(0, j, 1)
	}
	coo.Add(1, 0, 1)
	coo.Add(2, 0, 1)
	coo.Add(2, 1, 1)
	// row 3 empty
	h := rowLengthHistogram(coo.ToCSR())
	if h.Total != 4 {
		t.Fatalf("total = %d", h.Total)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 1 || h.Counts[3] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.RelativeShare(3) != 0.25 {
		t.Errorf("share(3) = %g", h.RelativeShare(3))
	}
	if h.RelativeShare(99) != 0 || h.RelativeShare(-1) != 0 {
		t.Error("out-of-range share should be 0")
	}
	if h.MaxBin() != 3 {
		t.Errorf("max bin %d", h.MaxBin())
	}
	if math.Abs(h.Mean()-1.5) > 1e-15 {
		t.Errorf("mean = %g", h.Mean())
	}
}

// TestFromCounts: a histogram over precomputed counts.
func TestFromCounts(t *testing.T) {
	h := Histogram{Counts: []int{0, 2, 0, 6}, Total: 8}
	if h.Total != 8 || h.RelativeShare(3) != 0.75 {
		t.Errorf("%+v", h)
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.MaxBin() != -1 || h.Mean() != 0 {
		t.Error("empty histogram invariants")
	}
	var buf bytes.Buffer
	if err := h.RenderLog(&buf, "empty", 40, 4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty histogram") {
		t.Error("empty render message missing")
	}
}

func TestRenderLogShape(t *testing.T) {
	m := matgen.SAMG(0.002, 3)
	h := rowLengthHistogram(m)
	var buf bytes.Buffer
	if err := h.RenderLog(&buf, "sAMG", 60, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sAMG") || !strings.Contains(out, "1e+0") {
		t.Errorf("render missing labels:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Error("no bars rendered")
	}
	// Must render at least the requested decades of axis rows.
	if lines := strings.Count(out, "\n"); lines < 8 {
		t.Errorf("only %d lines", lines)
	}
}

func TestRenderLogDegenerateArgs(t *testing.T) {
	h := Histogram{Counts: []int{0, 10}, Total: 10}
	var buf bytes.Buffer
	if err := h.RenderLog(&buf, "tiny", 1, 0); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("no output")
	}
}
