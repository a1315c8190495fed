package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCodeBalanceDPLimits(t *testing.T) {
	// α = 1, huge N_nzr → 10 bytes/flop; α ideal, huge N_nzr → 6.
	if b := CodeBalanceDP(1, 1e12); math.Abs(b-10) > 1e-9 {
		t.Errorf("worst-case balance = %g, want 10", b)
	}
	if b := CodeBalanceDP(0, 1e12); math.Abs(b-6) > 1e-9 {
		t.Errorf("streaming-only balance = %g, want 6", b)
	}
	// DLR1-like: N_nzr = 144, α = 0.2 → 6 + 0.8 + 0.056 ≈ 6.86.
	if b := CodeBalanceDP(0.2, 144); math.Abs(b-6.8555) > 1e-3 {
		t.Errorf("DLR1-like balance = %g", b)
	}
}

func TestCodeBalanceSPBelowDP(t *testing.T) {
	f := func(a, n float64) bool {
		alpha := math.Abs(math.Mod(a, 1))
		nnzr := 1 + math.Abs(math.Mod(n, 500))
		return CodeBalanceSP(alpha, nnzr) < CodeBalanceDP(alpha, nnzr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAlphaIdeal(t *testing.T) {
	if AlphaIdeal(8) != 0.125 {
		t.Error("alpha ideal")
	}
}

func TestEq3WorstCaseReproducesPaperNumbers(t *testing.T) {
	// §II-B: "In the worst case, α = 1/N_nzr and B_GPU ≳ 20 B_PCI lead
	// to N_nzr ≤ 25."
	m := Offload{BGPU: 20, BPCI: 1}
	got := m.SolveAlphaSelfConsistent(m.MaxNnzrFor50PctPenalty)
	if math.Abs(got-25) > 1.0 {
		t.Errorf("Eq. 3 worst case = %.1f, paper says ≈25", got)
	}
	// "if α = 1 and B_GPU ≈ 10 B_PCI we have N_nzr ≤ 7."
	m2 := Offload{BGPU: 10, BPCI: 1}
	if got := m2.MaxNnzrFor50PctPenalty(1); math.Abs(got-7.2) > 0.3 {
		t.Errorf("Eq. 3 α=1 case = %.1f, paper says ≈7", got)
	}
}

func TestEq4ReproducesPaperNumbers(t *testing.T) {
	// "at B_GPU ≈ 10 B_PCI and α = 1 a value of N_nzr ≳ 80 is
	// sufficient" for <10% penalty.
	m := Offload{BGPU: 10, BPCI: 1}
	if got := m.MinNnzrFor10PctPenalty(1); math.Abs(got-79.2) > 1 {
		t.Errorf("Eq. 4 α=1 = %.1f, paper says ≈80", got)
	}
	// "at B_GPU ≈ 20 B_PCI and α = 1/N_nzr one arrives at N_nzr ≳ 266."
	m2 := Offload{BGPU: 20, BPCI: 1}
	got := m2.SolveAlphaSelfConsistent(m2.MinNnzrFor10PctPenalty)
	if math.Abs(got-265) > 2 {
		t.Errorf("Eq. 4 worst case = %.1f, paper says ≈266", got)
	}
}

func TestTMVMAndTPCI(t *testing.T) {
	m := Offload{BGPU: 91e9, BPCI: 6e9}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	n := 1000000
	tm := m.TMVMSeconds(n, 100, 0.5)
	// 8e6/91e9 × (100×2 + 2) = 8e6×202/91e9.
	want := 8e6 * 202 / 91e9
	if math.Abs(tm-want) > 1e-12 {
		t.Errorf("TMVM = %g, want %g", tm, want)
	}
	tp := m.TPCISeconds(n)
	if math.Abs(tp-16e6/6e9) > 1e-15 {
		t.Errorf("TPCI = %g", tp)
	}
	pen := m.PCIPenalty(n, 100, 0.5)
	if math.Abs(pen-tp/(tm+tp)) > 1e-15 || pen <= 0 || pen >= 1 {
		t.Errorf("penalty = %g", pen)
	}
}

func TestPenaltyMonotoneInNnzr(t *testing.T) {
	m := Offload{BGPU: 91e9, BPCI: 6e9}
	prev := 1.0
	for _, nnzr := range []float64{5, 15, 50, 150, 400} {
		p := m.PCIPenalty(1<<20, nnzr, 0.5)
		if p >= prev {
			t.Errorf("penalty not decreasing at N_nzr=%g: %g >= %g", nnzr, p, prev)
		}
		prev = p
	}
}

// TestPaperMatrixClassification reproduces the §II-B / §III verdicts
// with the Dirac-like bandwidth ratio: HMEp (N_nzr≈15) and sAMG (≈7)
// fall in the PCIe-dominated regime; DLR1 (≈144), DLR2 (≈315) and
// UHBR (≈123) stay GPU-worthy.
func TestPaperMatrixClassification(t *testing.T) {
	m := Offload{BGPU: 91e9, BPCI: 6e9} // ratio ≈ 15.2
	cut50 := m.MaxNnzrFor50PctPenalty(1)
	for _, c := range []struct {
		name string
		nnzr float64
		good bool
	}{
		{"HMEp", 15, false},
		{"sAMG", 7, false},
		{"DLR1", 144, true},
		{"DLR2", 315, true},
		{"UHBR", 123, true},
	} {
		// A matrix is a "good candidate" when even in the α=1 worst
		// case its penalty stays below 50%.
		if c.good && c.nnzr <= cut50 {
			t.Errorf("%s: should be above the 50%% cutoff %.1f", c.name, cut50)
		}
		pen := m.PCIPenalty(1<<20, c.nnzr, 1)
		if c.good && pen > 0.35 {
			t.Errorf("%s: penalty %.2f too high for a good candidate", c.name, pen)
		}
		if !c.good && pen < 0.3 {
			t.Errorf("%s: penalty %.2f too low for a bad candidate", c.name, pen)
		}
	}
}

// TestEffectiveGFlopsDLR1 reproduces the §III quote "10.9 GF/s vs
// 12.9 GF/s for DLR1": with kernel-only performance near 12.9 GF/s,
// adding PCIe transfers should land near 10.9.
func TestEffectiveGFlopsDLR1(t *testing.T) {
	m := Offload{BGPU: 91e9, BPCI: 6e9}
	const n = 278502
	nnzr := 144.0
	nnz := int64(40025628)
	// Pick α so that the kernel-only GF/s is 12.9 (inverting Eq. 2).
	// 2·nnz/T = 12.9e9 → T = ...; T = 8N/B(nnzr(α+1.5)+2).
	tWant := 2 * float64(nnz) / 12.9e9
	alpha := ((tWant*m.BGPU/(8*n) - 2) / nnzr) - 1.5
	if alpha < 0 || alpha > 1 {
		t.Fatalf("implied alpha %.3f outside [0,1]", alpha)
	}
	eff := m.EffectiveGFlops(n, nnz, nnzr, alpha)
	if math.Abs(eff-10.9) > 1.0 {
		t.Errorf("PCIe-inclusive GF/s = %.1f, paper says 10.9", eff)
	}
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  interface{ Validate() error }
	}{
		{"zero BGPU", Offload{BGPU: 0, BPCI: 1}},
		{"negative BPCI", Offload{BGPU: 1, BPCI: -1}},
		{"zero link bandwidth", &Link{BytesPerSecond: 0}},
		{"negative link latency", &Link{BytesPerSecond: 1, LatencySeconds: -1}},
		{"NaN link bandwidth", &Link{BytesPerSecond: math.NaN()}},
		{"infinite link bandwidth", &Link{BytesPerSecond: math.Inf(1)}},
		{"NaN link latency", &Link{BytesPerSecond: 1, LatencySeconds: math.NaN()}},
		{"infinite link latency", &Link{BytesPerSecond: 1, LatencySeconds: math.Inf(1)}},
	} {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if err := Gen2x16().Validate(); err != nil {
		t.Errorf("default link rejected: %v", err)
	}
}

func TestGFlopsFromTime(t *testing.T) {
	if GFlopsFromTime(1e9, 2) != 1 {
		t.Error("GF/s arithmetic")
	}
	if GFlopsFromTime(100, 0) != 0 {
		t.Error("zero time should give 0")
	}
}

// TestModelAgainstPCIeLink: the abstract model and the PCIe Link
// substrate agree on transfer times when latency is zero.
func TestModelAgainstPCIeLink(t *testing.T) {
	link := Gen2x16()
	link.LatencySeconds = 0
	m := Offload{BGPU: 91e9, BPCI: link.BytesPerSecond}
	n := 500000
	got := link.RoundTripSeconds(int64(8*n), int64(8*n))
	want := m.TPCISeconds(n)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("link %g vs model %g", got, want)
	}
}
