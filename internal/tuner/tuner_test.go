package tuner

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pjds/internal/core"
	"pjds/internal/gpu"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/telemetry"
)

func zoo(t *testing.T) map[string]*matrix.CSR[float64] {
	t.Helper()
	return map[string]*matrix.CSR[float64]{
		"banded":   matgen.Banded(600, 4, 20, 50, 7),
		"powerlaw": matgen.PowerLaw(500, 2, 80, 0.7, 11),
		"random":   matgen.Random(400, 3, 10, 13),
		"fem":      matgen.Stencil3D(8, 8, 8),
	}
}

// TestTuneWinnerBeatsOrMatchesFixedFormats: across the zoo, the tuned
// winner's measured speed must be within tolerance of every fixed
// measured cell — in particular it can never lose to the pJDS preset,
// which is never pruned.
func TestTuneWinnerBeatsOrMatchesFixedFormats(t *testing.T) {
	for name, m := range zoo(t) {
		reg := telemetry.NewRegistry()
		e, err := Tune(m, name, Config{Workers: 2, Metrics: reg})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.Winner.MeasuredNsPerNnz <= 0 {
			t.Fatalf("%s: winner has no measurement", name)
		}
		sawPJDS := false
		for _, c := range e.Cells {
			if c.Format == "pjds" {
				sawPJDS = true
				if c.Pruned {
					t.Fatalf("%s: pJDS reference cell was pruned", name)
				}
			}
			if c.Pruned {
				if c.MeasuredNsPerNnz != 0 {
					t.Fatalf("%s: pruned cell %s has a measurement", name, c.Label())
				}
				continue
			}
			if e.Winner.MeasuredNsPerNnz > c.MeasuredNsPerNnz*1.001 {
				t.Errorf("%s: winner %s (%.3f ns/nnz) slower than %s (%.3f)",
					name, e.Winner.Label(), e.Winner.MeasuredNsPerNnz, c.Label(), c.MeasuredNsPerNnz)
			}
			if c.ModelBytesPerNnz <= 0 {
				t.Errorf("%s: cell %s lacks a model score", name, c.Label())
			}
		}
		if !sawPJDS {
			t.Fatalf("%s: grid lost the pJDS reference", name)
		}
	}
}

// TestTuneSpansAndCounters: the sweep emits tune-lane spans and the
// tuner_* counters.
func TestTuneSpansAndCounters(t *testing.T) {
	m := matgen.PowerLaw(300, 2, 50, 0.7, 3)
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanLog()
	if _, err := Tune(m, "pl", Config{Workers: 1, Metrics: reg, Spans: spans}); err != nil {
		t.Fatal(err)
	}
	got := spans.Spans()
	if len(got) < 2 {
		t.Fatalf("expected model + measure spans, got %d", len(got))
	}
	for _, s := range got {
		if s.Lane != SpanLane || s.Cat != SpanLane {
			t.Fatalf("span %q on lane %q cat %q, want tune", s.Name, s.Lane, s.Cat)
		}
		if s.End < s.Start {
			t.Fatalf("span %q ends before it starts", s.Name)
		}
	}
	var sweeps, measured float64
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "tuner_sweeps_total":
			sweeps = s.Value
		case "tuner_candidates_measured_total":
			measured = s.Value
		}
	}
	if sweeps != 1 || measured < 2 {
		t.Fatalf("sweeps=%g measured=%g", sweeps, measured)
	}
}

// TestDBRoundTripTolerant: entries survive the JSONL round trip with
// corrupt and foreign-schema trailing lines interleaved, and a missing
// file reads as empty.
func TestDBRoundTripTolerant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "tuning.jsonl")
	if es, err := Read(path); err != nil || es != nil {
		t.Fatalf("missing file: %v %v", es, err)
	}
	e1 := Entry{Fingerprint: "f1", Device: "devA", Matrix: "m1",
		Winner: Cell{Format: "sell", C: 8, Sigma: 256, MeasuredNsPerNnz: 1.5}}
	e2 := Entry{Fingerprint: "f1", Device: "devA", Matrix: "m1",
		Winner: Cell{Format: "cmrs", Height: 16, MeasuredNsPerNnz: 1.2}}
	if err := Append(path, e1); err != nil {
		t.Fatal(err)
	}
	// Corruption between valid records: truncated JSON, wrong schema,
	// garbage bytes.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{\"schema\":\"pjds-tuning/v1\",\"fingerprint\":\"trunc\n")
	f.WriteString("{\"schema\":\"other/v9\",\"fingerprint\":\"f9\"}\n")
	f.WriteString("\x00\x01 not json at all\n")
	f.Close()
	if err := Append(path, e2); err != nil {
		t.Fatal(err)
	}
	es, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 {
		t.Fatalf("read %d entries, want 2", len(es))
	}
	if es[0].Schema != Schema || es[0].GitRev == "" && es[0].Host.GoVersion == "" {
		t.Error("bookkeeping fields not filled on append")
	}
	got, ok := Lookup(es, "f1", "devA")
	if !ok || got.Winner.Label() != "CMRS-h16" {
		t.Fatalf("Lookup returned %+v, want the newest (CMRS) entry", got.Winner)
	}
	if _, ok := Lookup(es, "f1", "devB"); ok {
		t.Error("Lookup matched the wrong device")
	}
}

// TestTuneOrLookupCachesByFingerprint: the first call sweeps and
// persists, the second answers from the DB without re-sweeping, and a
// structurally different matrix misses.
func TestTuneOrLookupCachesByFingerprint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tuning.jsonl")
	m := matgen.Banded(300, 3, 12, 30, 5)
	reg := telemetry.NewRegistry()
	cfg := Config{Workers: 1, Metrics: reg}

	e1, hit, err := TuneOrLookup(m, "banded", path, cfg)
	if err != nil || hit {
		t.Fatalf("first call: hit=%v err=%v", hit, err)
	}
	e2, hit, err := TuneOrLookup(m, "banded", path, cfg)
	if err != nil || !hit {
		t.Fatalf("second call: hit=%v err=%v", hit, err)
	}
	if e1.Winner.Label() != e2.Winner.Label() || e1.Fingerprint != e2.Fingerprint {
		t.Fatalf("cache returned a different winner: %+v vs %+v", e1.Winner, e2.Winner)
	}
	var sweeps, hits, misses float64
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "tuner_sweeps_total":
			sweeps = s.Value
		case "tuner_cache_hits_total":
			hits = s.Value
		case "tuner_cache_misses_total":
			misses = s.Value
		}
	}
	if sweeps != 1 || hits != 1 || misses != 1 {
		t.Fatalf("sweeps=%g hits=%g misses=%g, want 1/1/1", sweeps, hits, misses)
	}

	// Same shape, different structure → different fingerprint → miss.
	other := matgen.Random(300, 3, 12, 99)
	if Fingerprint(m) == Fingerprint(other) {
		t.Fatal("fingerprints collide across different structures")
	}
	if _, hit, err := TuneOrLookup(other, "random", path, cfg); err != nil || hit {
		t.Fatalf("different structure: hit=%v err=%v", hit, err)
	}
}

// TestGridShape: presets present, dedup on small n, CMRS strips fit
// the warp, σ never exceeds n.
func TestGridShape(t *testing.T) {
	g := Grid(100, nil)
	seen := map[string]bool{}
	var haveCRS, havePJDS, haveCMRS bool
	for _, c := range g {
		if seen[c.key()] {
			t.Fatalf("duplicate grid cell %s", c.Label())
		}
		seen[c.key()] = true
		switch c.Format {
		case "crs":
			haveCRS = true
		case "pjds":
			havePJDS = true
		case "cmrs":
			haveCMRS = true
			if c.Height > 32 {
				t.Fatalf("CMRS height %d exceeds warp", c.Height)
			}
		case "sell":
			if c.Sigma > 100 || c.Sigma < 1 {
				t.Fatalf("σ = %d outside [1, n]", c.Sigma)
			}
		}
	}
	if !haveCRS || !havePJDS || !haveCMRS {
		t.Fatal("grid lost a preset contender")
	}
}

// TestModelPruningMonotone: with a tight band, strictly worse-model
// cells get pruned; the winner's model score is finite and positive.
func TestModelPruningMonotone(t *testing.T) {
	m := matgen.PowerLaw(400, 2, 60, 0.8, 17)
	e, err := Tune(m, "pl", Config{Workers: 1, PruneFactor: 1.01, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	pruned := 0
	for _, c := range e.Cells {
		if c.Pruned {
			pruned++
		}
	}
	if pruned == 0 {
		t.Error("a 1.01× band pruned nothing on a skewed matrix")
	}
	if math.IsNaN(e.Winner.ModelBytesPerNnz) || e.Winner.ModelBytesPerNnz <= 0 {
		t.Errorf("winner model score %g", e.Winner.ModelBytesPerNnz)
	}
}

// TestTuneAllocs: the SELL and pJDS cells of a sweep rebuild one
// layout and the CMRS cells another, so a whole sweep allocates less
// than four SELL layouts' worth of bytes.
func TestTuneAllocs(t *testing.T) {
	m := matgen.HMEp(0.00215, 7) // 199,587 non-zeros
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	layout := allocated(func() {
		if _, err := core.NewSELL(m, 32, m.NRows, matrix.ConvertOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	sweep := allocated(func() {
		if _, err := Tune(m, "HMEp", Config{Workers: 1, Metrics: telemetry.NewRegistry()}); err != nil {
			t.Fatal(err)
		}
	})
	if sweep >= 4*layout {
		t.Fatalf("one sweep allocated %d B = %.1f× one SELL layout (%d B), want < 4×", sweep, float64(sweep)/float64(layout), layout)
	}
}

// estimateBetaRef prices one cell on its own, with its own windowed
// sort of the row lengths: the reference the model pass, which shares
// one sort per σ, must match bit for bit.
func estimateBetaRef(lens []int, c, sigma int) float64 {
	n := len(lens)
	if n == 0 || c < 1 {
		return 0
	}
	sigma = core.ClampSigma(c, sigma, n)
	maxLen := 0
	var nnz int64
	for _, l := range lens {
		nnz += int64(l)
		if l > maxLen {
			maxLen = l
		}
	}
	if nnz == 0 {
		return 0
	}
	sorted := lens
	if sigma > 1 {
		perm := matrix.Identity(n)
		count := make([]int, maxLen+2)
		for lo := 0; lo < n; lo += sigma {
			matrix.SortRangeByLengthDesc(lens, lo, min(lo+sigma, n), perm, count)
		}
		sorted = make([]int, n)
		for i, p := range perm {
			sorted[i] = lens[p]
		}
	}
	var stored int64
	for lo := 0; lo < n; lo += c {
		sliceMax := 0
		for i := lo; i < lo+c && i < n; i++ {
			if sorted[i] > sliceMax {
				sliceMax = sorted[i]
			}
		}
		stored += int64(sliceMax) * int64(c)
	}
	return float64(stored)/float64(nnz) - 1
}

// dominatedRef is the dominance rule stated per cell: some cell of
// grid inside the 1.5× band of best models at most 1.01× b's traffic
// and is a SELL or pJDS cell with b's C and a smaller σ (pJDS, as
// SELL-32-n, also against SELL-32-n itself), or, with the group
// kernel, has C a multiple of 8 while b is SELL-4 or CMRS.
func dominatedRef(grid []Cell, b Cell, best float64, group bool) bool {
	for _, a := range grid {
		if a.Format != "sell" && a.Format != "pjds" ||
			a.Format == "sell" && a.ModelBytesPerNnz > best*1.5 ||
			a.ModelBytesPerNnz > 1.01*b.ModelBytesPerNnz {
			continue
		}
		if b.Format == "sell" && a.C == b.C && (a.Sigma < b.Sigma || a.Format == "pjds" && a.Sigma == b.Sigma) {
			return true
		}
		if group && a.C%8 == 0 && (b.Format == "cmrs" || b.Format == "sell" && b.C%8 != 0) {
			return true
		}
	}
	return false
}

// TestModelPassMatchesPerCellEstimate pins the model pass bit for bit:
// over Grid, every cell of a sweep has the β, model bytes and pruning
// verdict (the band, then dominatedRef) the per-cell estimate gives.
func TestModelPassMatchesPerCellEstimate(t *testing.T) {
	dev := gpu.TeslaC2070()
	zoo := zoo(t)
	for _, name := range []string{"banded", "powerlaw", "fem"} {
		m := zoo[name]
		e, err := Tune(m, name, Config{Workers: 1, Metrics: telemetry.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		st := matrix.ComputeStats(m)
		lens := make([]int, m.NRows)
		for i := range lens {
			lens[i] = m.RowLen(i)
		}
		base := 8*EstimateAlpha(st, dev) + 16/st.AvgRowLen
		want := Grid(m.NRows, dev)
		best := math.Inf(1)
		for i, c := range want {
			switch c.Format {
			case "crs":
				want[i].ModelBytesPerNnz = 12*max(float64(dev.SegmentBytes)/16, 1) + base
			case "cmrs":
				want[i].ModelBytesPerNnz = 13 + base
			case "pjds":
				want[i].Beta = estimateBetaRef(lens, 32, len(lens))
			default:
				want[i].Beta = estimateBetaRef(lens, c.C, c.Sigma)
			}
			if c.Format == "pjds" || c.Format == "sell" {
				want[i].ModelBytesPerNnz = 12*(1+want[i].Beta) + base
			}
			best = min(best, want[i].ModelBytesPerNnz)
		}
		if len(e.Cells) != len(want) {
			t.Fatalf("%s: %d cells, want %d", name, len(e.Cells), len(want))
		}
		for i, c := range e.Cells {
			w := want[i]
			w.Pruned = w.Format != "pjds" && (w.ModelBytesPerNnz > best*1.5 || dominatedRef(want, w, best, core.GroupKernel()))
			c.MeasuredNsPerNnz = 0
			if c != w || math.Float64bits(c.Beta) != math.Float64bits(w.Beta) ||
				math.Float64bits(c.ModelBytesPerNnz) != math.Float64bits(w.ModelBytesPerNnz) {
				t.Errorf("%s: cell %d = %+v, per-cell estimate %+v", name, i, c, w)
			}
		}
	}
}

// prunedGrid is the default grid for m after the model pass and prune
// at the default band, with the group kernel on or off.
func prunedGrid(m *matrix.CSR[float64], groupKernel bool) []Cell {
	dev := gpu.TeslaC2070()
	lens := make([]int, m.NRows)
	for i := range lens {
		lens[i] = m.RowLen(i)
	}
	cells := Grid(m.NRows, dev)
	modelPass(cells, matrix.ComputeStats(m), lens, dev)
	prune(cells, m.NRows, 1.5, groupKernel)
	return cells
}

// skewed is TestRankFormatsPrefersCMRSOnIrreducibleSkew's matrix: one
// 1000-entry row among 32 single-entry rows, so no sort removes the
// padding.
func skewed() *matrix.CSR[float64] {
	coo := matrix.NewCOO[float64](33, 1200)
	for j := 0; j < 1000; j++ {
		coo.Add(0, j, 1)
	}
	for i := 1; i < 33; i++ {
		coo.Add(i, i, 1)
	}
	return coo.ToCSR()
}

// TestDominancePrune: the measurement pass skips a cell that a cell
// inside the band matches within 1.01× of its model and beats on an
// axis the model does not price — a smaller σ at the same C, pJDS
// against its SELL-32-n duplicate, and, with the group kernel, C ∈
// {8, 16, 32} against C = 4 and CMRS — and measures everything else.
func TestDominancePrune(t *testing.T) {
	zoo := zoo(t)
	zoo["skewed"] = skewed()

	t.Run("fem", func(t *testing.T) {
		m := zoo["fem"]
		for _, c := range prunedGrid(m, true) {
			if !c.Pruned && (c.Format == "cmrs" || c.Format == "sell" && c.C == 4) {
				t.Errorf("group kernel: %s measured", c.Label())
			}
		}
		sell4 := false
		for _, c := range prunedGrid(m, false) {
			if c.Format == "cmrs" && c.Pruned {
				t.Errorf("no group kernel: %s pruned", c.Label())
			}
			sell4 = sell4 || c.Format == "sell" && c.C == 4 && !c.Pruned
		}
		if !sell4 {
			t.Error("no group kernel: every SELL-4 cell pruned")
		}
	})

	t.Run("pjds-duplicate", func(t *testing.T) {
		for name, m := range zoo {
			for _, group := range []bool{true, false} {
				for _, c := range prunedGrid(m, group) {
					if c.Format == "pjds" && c.Pruned {
						t.Errorf("%s group=%v: pJDS pruned", name, group)
					}
					if c.Format == "sell" && c.C == 32 && c.Sigma == m.NRows && !c.Pruned {
						t.Errorf("%s group=%v: %s measured beside pJDS", name, group, c.Label())
					}
				}
			}
		}
	})

	t.Run("larger-sigma", func(t *testing.T) {
		// Without the group kernel only the σ rule prunes inside the
		// band, so a SELL cell falls exactly when a smaller σ (or pJDS)
		// at its C models within 1.01×.
		var dropped, kept int
		for name, m := range zoo {
			cells := prunedGrid(m, false)
			best := math.Inf(1)
			for _, c := range cells {
				best = min(best, c.ModelBytesPerNnz)
			}
			inBand := func(c Cell) bool { return c.Format == "pjds" || c.ModelBytesPerNnz <= 1.5*best }
			for _, b := range cells {
				if b.Format != "sell" || !inBand(b) {
					continue
				}
				matched := false
				for _, a := range cells {
					smaller := a.Format == "sell" && a.C == b.C && a.Sigma < b.Sigma ||
						a.Format == "pjds" && b.C == 32 && m.NRows <= b.Sigma
					matched = matched || smaller && inBand(a) && a.ModelBytesPerNnz <= 1.01*b.ModelBytesPerNnz
				}
				if b.Pruned != matched {
					t.Errorf("%s: %s (%.3f B/nnz) pruned=%v, a smaller σ within 1.01×: %v",
						name, b.Label(), b.ModelBytesPerNnz, b.Pruned, matched)
				}
				if b.Sigma > 1 && b.Pruned {
					dropped++
				} else if b.Sigma > 1 {
					kept++
				}
			}
		}
		if dropped == 0 || kept == 0 {
			t.Errorf("σ > 1 cells: %d pruned, %d measured; the zoo should show both", dropped, kept)
		}
	})

	t.Run("band-edge", func(t *testing.T) {
		// SELL-8-1 sits just outside the 1.5× band and within 1.01× of
		// SELL-8-256, which is inside it: a cell outside the band
		// dominates nothing, so SELL-8-256 is measured.
		cells := []Cell{
			{Format: "pjds", C: 32, Sigma: 1000, ModelBytesPerNnz: 10},
			{Format: "sell", C: 8, Sigma: 1, ModelBytesPerNnz: 15.05},
			{Format: "sell", C: 8, Sigma: 256, ModelBytesPerNnz: 15},
		}
		if got := prune(cells, 1000, 1.5, true); got != 1 || !cells[1].Pruned || cells[2].Pruned {
			t.Errorf("pruned %d: %+v, want only SELL-8-1", got, cells)
		}
	})

	t.Run("irreducible-skew", func(t *testing.T) {
		for _, group := range []bool{true, false} {
			for _, c := range prunedGrid(zoo["skewed"], group) {
				if c.Format == "cmrs" && c.Pruned {
					t.Errorf("group=%v: %s pruned where only CMRS saves traffic", group, c.Label())
				}
			}
		}
	})

	t.Run("ingest-bodies", func(t *testing.T) {
		for _, name := range []string{"sAMG", "DLR1", "HMEp"} {
			tm, err := matgen.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, scale := range []float64{0.003, 0.005} {
				measured := 0
				for _, c := range prunedGrid(tm.Generate(scale, 42), true) {
					if !c.Pruned {
						measured++
					}
				}
				if measured > 8 {
					t.Errorf("%s@%g: %d cells measured, want ≤ 8", name, scale, measured)
				}
			}
		}
	})
}
