package textplot

import (
	"bytes"
	"strings"
	"testing"

	"pjds/internal/telemetry"
)

func TestPlotBasics(t *testing.T) {
	var buf bytes.Buffer
	err := Plot(&buf, "scaling", 40, 10, []Series{
		{Name: "task mode", X: []float64{1, 2, 4, 8}, Y: []float64{10, 19, 36, 60}},
		{Name: "vector mode", X: []float64{1, 2, 4, 8}, Y: []float64{10, 17, 28, 40}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"scaling", "task mode", "vector mode", "*", "o", "60", "0"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPlotEmptyAndDegenerate(t *testing.T) {
	var buf bytes.Buffer
	if err := Plot(&buf, "empty", 5, 2, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("no output for empty plot")
	}
	buf.Reset()
	// All-zero series must not divide by zero.
	if err := Plot(&buf, "zeros", 30, 8, []Series{{Name: "z", X: []float64{0}, Y: []float64{0}}}); err != nil {
		t.Fatal(err)
	}
}

func TestTable(t *testing.T) {
	var buf bytes.Buffer
	err := Table(&buf, [][]string{
		{"matrix", "ELLPACK-R", "pJDS"},
		{"DLR1", "12.9", "12.9"},
		{"sAMG", "7.8", "8.5"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Error("missing header rule")
	}
	// Columns aligned: "pJDS" starts at the same offset in all rows.
	idx := strings.Index(lines[0], "pJDS")
	if !strings.HasPrefix(lines[2][idx:], "12.9") {
		t.Errorf("misaligned columns:\n%s", out)
	}
	if err := Table(&buf, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGantt(t *testing.T) {
	var buf bytes.Buffer
	err := Gantt(&buf, "iteration timeline", 50, []telemetry.Span{
		{Lane: "host", Name: "MPI_Waitall", Start: 0, End: 0.4},
		{Lane: "gpu", Name: "local spMVM", Start: 0, End: 0.7},
		{Lane: "gpu", Name: "non-local spMVM", Start: 0.7, End: 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"host", "gpu", "local spMVM", "="} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	// Zero-length spans still render a mark.
	buf.Reset()
	if err := Gantt(&buf, "z", 10, []telemetry.Span{{Lane: "a", Name: "instant", Start: 0, End: 0}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "=") {
		t.Error("zero span invisible")
	}
}
