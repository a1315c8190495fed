package tuner

import (
	"strings"
	"testing"

	"pjds/internal/gpu"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
)

func statsOf(t *testing.T, m *matrix.CSR[float64]) matrix.Stats {
	t.Helper()
	return matrix.ComputeStats(m)
}

// TestPaperMatrixVerdicts reproduces the §II-B / §III conclusions: the
// DLR and UHBR matrices are GPU-worthy, HMEp and sAMG are not.
func TestPaperMatrixVerdicts(t *testing.T) {
	cases := []struct {
		name    string
		keepCPU bool
	}{
		{"DLR1", false},
		{"DLR2", false},
		{"UHBR", false},
		{"HMEp", true},
		{"sAMG", true},
	}
	for _, c := range cases {
		tm, err := matgen.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		m := tm.Generate(0.02, 1)
		rec := Recommend(statsOf(t, m), nil, nil)
		if c.keepCPU && rec.Offload == GPUWorthwhile {
			t.Errorf("%s: verdict %v, paper keeps it off the GPU", c.name, rec.Offload)
		}
		if !c.keepCPU && rec.Offload == StayOnCPU {
			t.Errorf("%s: verdict %v, paper runs it on the GPU", c.name, rec.Offload)
		}
		if len(rec.Reasons) == 0 {
			t.Errorf("%s: no reasons given", c.name)
		}
	}
}

func TestFormatChoiceConstantRows(t *testing.T) {
	// Constant row length: pJDS buys nothing (§II-A), expect ELLPACK-R.
	m := matgen.Stencil2D(200, 200)
	rec := Recommend(statsOf(t, m), nil, nil)
	// Interior rows have 5 entries, borders fewer — reduction under 5%.
	if rec.Format != "ELLPACK-R" {
		t.Errorf("format = %s for a constant-row matrix (est. red. %.1f%%)", rec.Format, rec.EstDataReductionPct)
	}
}

func TestFormatChoiceSpreadRows(t *testing.T) {
	m := matgen.PowerLaw(30000, 4, 200, 3, 1)
	rec := Recommend(statsOf(t, m), nil, nil)
	if rec.Format != "pJDS" {
		t.Errorf("format = %s for a power-law matrix", rec.Format)
	}
	if rec.EstDataReductionPct < 30 {
		t.Errorf("estimated reduction %.1f%% too low", rec.EstDataReductionPct)
	}
}

func TestFormatChoiceTinyLongRows(t *testing.T) {
	// Few rows, long rows: too few warps to saturate → ELLR-T.
	m := matgen.Random(512, 150, 200, 2)
	rec := Recommend(statsOf(t, m), nil, nil)
	if rec.Format != "ELLR-T" {
		t.Errorf("format = %s for a tiny long-row matrix", rec.Format)
	}
}

func TestAlphaEstimateBounds(t *testing.T) {
	banded := matgen.Banded(30000, 8, 16, 100, 3)
	scattered := matgen.Random(30000, 8, 16, 3)
	rb := Recommend(statsOf(t, banded), nil, nil)
	rs := Recommend(statsOf(t, scattered), nil, nil)
	if rb.AlphaEstimate >= rs.AlphaEstimate {
		t.Errorf("banded alpha %.2f not below scattered %.2f", rb.AlphaEstimate, rs.AlphaEstimate)
	}
	if rs.AlphaEstimate > 1 || rb.AlphaEstimate <= 0 {
		t.Errorf("alpha out of range: %.2f / %.2f", rb.AlphaEstimate, rs.AlphaEstimate)
	}
	// No-cache device pushes α to 1.
	c1060 := gpu.TeslaC1060()
	r := Recommend(statsOf(t, banded), c1060, nil)
	if r.AlphaEstimate != 1 {
		t.Errorf("no-cache alpha = %.2f, want 1", r.AlphaEstimate)
	}
}

func TestVerdictStringAndPenalty(t *testing.T) {
	for _, v := range []Verdict{StayOnCPU, GPUMarginal, GPUWorthwhile, Verdict(99)} {
		if v.String() == "" {
			t.Error("empty verdict name")
		}
	}
	m := matgen.Banded(10000, 5, 9, 50, 4)
	rec := Recommend(statsOf(t, m), nil, nil)
	if rec.PCIePenaltyPct <= 0 || rec.PCIePenaltyPct >= 100 {
		t.Errorf("penalty %.1f%%", rec.PCIePenaltyPct)
	}
	if !strings.Contains(strings.Join(rec.Reasons, "\n"), "Eq.") {
		t.Error("reasons do not cite the model")
	}
}

func TestEmptyMatrixDoesNotPanic(t *testing.T) {
	rec := Recommend(matrix.Stats{}, nil, nil)
	if rec.Format == "" {
		t.Error("no format for empty stats")
	}
}
