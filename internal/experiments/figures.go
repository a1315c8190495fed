package experiments

import (
	"errors"
	"fmt"
	"io"

	"pjds/internal/core"
	"pjds/internal/critpath"
	"pjds/internal/distmv"
	"pjds/internal/gpu"
	"pjds/internal/matrix"
	"pjds/internal/model"
	"pjds/internal/telemetry"
	"pjds/internal/textplot"
)

// Fig2Row compares storage and hardware utilization of the three
// formats of Fig. 2 on one matrix.
type Fig2Row struct {
	Format         string
	StoredElems    int64
	FootprintBytes int64
	WarpSteps      int64
	LaneEfficiency float64
	GFlops         float64
}

// RunFig2 reproduces the Fig. 2 comparison quantitatively: stored
// elements (white boxes), reserved-but-idle SIMT slots (light boxes)
// and the resulting performance for ELLPACK, ELLPACK-R and pJDS.
func RunFig2(name string, scale float64, w io.Writer) ([]Fig2Row, error) {
	if w == nil {
		w = io.Discard
	}
	m, err := Matrix(name, scale)
	if err != nil {
		return nil, err
	}
	dev := gpu.TeslaC2070()
	x := testVector(m.NCols)
	y := make([]float64, m.NRows)
	opt := oneShot()
	var rows []Fig2Row

	ell := core.NewELLPACK(m, matrix.ConvertOptions{})
	stE, err := gpu.RunSELL(dev, ell, y, x, opt)
	if err != nil {
		return nil, err
	}
	rows = append(rows, fig2Row(ell, stE))

	ellr := core.NewELLPACKR(m, matrix.ConvertOptions{})
	stR, err := gpu.RunSELL(dev, ellr, y, x, opt)
	if err != nil {
		return nil, err
	}
	rows = append(rows, fig2Row(ellr, stR))

	pj, err := core.NewPJDS(m, core.Options{})
	if err != nil {
		return nil, err
	}
	stP, err := gpu.RunPJDS(dev, pj, make([]float64, pj.NPad), x, opt)
	if err != nil {
		return nil, err
	}
	rows = append(rows, fig2Row(pj, stP))

	table := [][]string{{"format", "stored elems", "footprint MB", "warp steps", "lane eff %", "GF/s"}}
	for _, r := range rows {
		table = append(table, []string{
			r.Format,
			fmt.Sprint(r.StoredElems),
			fmt.Sprintf("%.1f", float64(r.FootprintBytes)/(1<<20)),
			fmt.Sprint(r.WarpSteps),
			fmt.Sprintf("%.1f", 100*r.LaneEfficiency),
			fmt.Sprintf("%.1f", r.GFlops),
		})
	}
	fmt.Fprintf(w, "Fig. 2 quantification on %s (scale %g, DP, ECC on)\n", name, scale)
	return rows, textplot.Table(w, table)
}

func fig2Row[T matrix.Float](f core.Format[T], st *gpu.KernelStats) Fig2Row {
	return Fig2Row{
		Format:         f.Name(),
		StoredElems:    f.StoredElems(),
		FootprintBytes: f.FootprintBytes(),
		WarpSteps:      st.WarpSteps,
		LaneEfficiency: st.LaneEfficiency,
		GFlops:         st.GFlops,
	}
}

// Fig3Entry is one matrix's histogram.
type Fig3Entry struct {
	Matrix    string
	N         int
	Nnz       int64
	Histogram Histogram
}

// RunFig3 reproduces the row-length histograms of Fig. 3 for the four
// matrices shown there.
func RunFig3(scale float64, w io.Writer) ([]Fig3Entry, error) {
	if w == nil {
		w = io.Discard
	}
	var out []Fig3Entry
	for _, name := range []string{"DLR1", "DLR2", "HMEp", "sAMG"} {
		m, err := Matrix(name, scale)
		if err != nil {
			return nil, err
		}
		h := rowLengthHistogram(m)
		out = append(out, Fig3Entry{Matrix: name, N: m.NRows, Nnz: int64(m.Nnz()), Histogram: h})
		fmt.Fprintf(w, "\n%s: N=%d, Nnz=%d\n", name, m.NRows, m.Nnz())
		if err := h.RenderLog(w, name, 72, 4); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ScalingPoint is one (node count, mode) measurement of Fig. 5.
type ScalingPoint struct {
	Nodes          int
	Mode           distmv.Mode
	GFlops         float64
	PerIterSeconds float64
	MaxRelError    float64
}

// Fig5Config parameterizes the strong-scaling experiment.
type Fig5Config struct {
	Matrix     string
	Scale      float64
	Nodes      []int
	Iterations int
	Format     distmv.FormatKind
	// Device overrides the per-node GPU (nil = the Dirac C2050); the
	// admission check against its memory reproduces Fig. 5b's minimum
	// node count.
	Device *gpu.Device
	// PerfReport attaches span instrumentation to every run and prints
	// an inline critical-path / overlap summary under each scaling
	// point (cmd/scaling -perfreport).
	PerfReport bool
}

// RunFig5 reproduces the strong-scaling curves of Fig. 5 (DLR1 or
// UHBR). All runs are double precision with ECC on C2050 nodes, as in
// §III. Returned points are verified against the serial reference.
func RunFig5(cfg Fig5Config, w io.Writer) ([]ScalingPoint, error) {
	if w == nil {
		w = io.Discard
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 3
	}
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = []int{1, 2, 4, 8, 16, 24, 32}
	}
	m, err := Matrix(cfg.Matrix, cfg.Scale)
	if err != nil {
		return nil, err
	}
	x := testVector(m.NCols)
	var points []ScalingPoint
	series := map[distmv.Mode]*textplot.Series{}
	for _, mode := range distmv.Modes() {
		series[mode] = &textplot.Series{Name: mode.String()}
	}
	for _, p := range cfg.Nodes {
		for _, mode := range distmv.Modes() {
			dcfg := distmv.Config{
				Iterations: cfg.Iterations,
				Format:     cfg.Format,
				Device:     cfg.Device,
			}
			var spans *telemetry.SpanLog
			if cfg.PerfReport {
				spans = telemetry.NewSpanLog()
				dcfg.Spans = spans
			}
			res, err := distmv.RunSpMVM(m, x, p, mode, dcfg)
			if errors.Is(err, distmv.ErrDeviceMemory) {
				// The paper hits the same wall: UHBR does not fit on
				// fewer than five C2050 nodes (Fig. 5b).
				fmt.Fprintf(w, "%-8s P=%-3d does not fit device memory, skipped (%v)\n", cfg.Matrix, p, err)
				break
			}
			if err != nil {
				return nil, fmt.Errorf("experiments: %s P=%d %v: %w", cfg.Matrix, p, mode, err)
			}
			rel, err := distmv.VerifyAgainstSerial(m, x, res.Y)
			if err != nil {
				return nil, err
			}
			if rel > 1e-9 {
				return nil, fmt.Errorf("experiments: %s P=%d %v: relative error %g", cfg.Matrix, p, mode, rel)
			}
			pt := ScalingPoint{
				Nodes:          p,
				Mode:           mode,
				GFlops:         res.GFlops,
				PerIterSeconds: res.PerIterSeconds,
				MaxRelError:    rel,
			}
			points = append(points, pt)
			s := series[mode]
			s.X = append(s.X, float64(p))
			s.Y = append(s.Y, res.GFlops)
			fmt.Fprintf(w, "%-8s P=%-3d %-24s %7.2f GF/s  (%.3g s/iter, err %.1e)\n",
				cfg.Matrix, p, mode, res.GFlops, res.PerIterSeconds, rel)
			if cfg.PerfReport {
				rep := critpath.Analyze("", spans.Spans(), nil)
				fmt.Fprintf(w, "%14s %s: %s; overlap %.0f%%\n", "", rep.Path.Verdict,
					rep.Path.CategorySummary(), 100*rep.Overlap.Efficiency)
			}
		}
	}
	var list []textplot.Series
	for _, mode := range distmv.Modes() {
		list = append(list, *series[mode])
	}
	err = textplot.Plot(w, fmt.Sprintf("Fig. 5 — %s strong scaling (%s, scale %g, GF/s vs nodes)",
		cfg.Matrix, cfg.Format, cfg.Scale), 64, 16, list)
	return points, err
}

// RunFig4Timeline produces the Fig. 4 timeline: one task-mode
// iteration on rank 0, as selected by distmv.Fig4Spans.
func RunFig4Timeline(name string, scale float64, p int, w io.Writer) ([]telemetry.Span, error) {
	if w == nil {
		w = io.Discard
	}
	m, err := Matrix(name, scale)
	if err != nil {
		return nil, err
	}
	x := testVector(m.NCols)
	recorded := telemetry.NewSpanLog()
	if _, err := distmv.RunSpMVM(m, x, p, distmv.TaskMode, distmv.Config{Iterations: 1, Spans: recorded}); err != nil {
		return nil, err
	}
	spans := distmv.Fig4Spans(recorded)
	err = textplot.Gantt(w, fmt.Sprintf("Fig. 4 — task-mode timeline, %s on %d nodes, rank 0", name, p), 64, spans)
	return spans, err
}

// Sec2BReport carries the §II-B performance-model numbers.
type Sec2BReport struct {
	// Model bounds (Eqs. 3 and 4) at the paper's two bandwidth ratios.
	MaxNnzr50WorstCase float64 // ≈ 25
	MaxNnzr50Alpha1    float64 // ≈ 7
	MinNnzr10Alpha1    float64 // ≈ 80
	MinNnzr10WorstCase float64 // ≈ 266
	// Measured PCIe-inclusive single-GPU performance per matrix.
	Effective []EffectivePerf
}

// EffectivePerf is the kernel-only vs PCIe-inclusive performance of
// one matrix (the §III intro numbers: 12.9 → 10.9 GF/s for DLR1,
// 3.7 / 2.3 GF/s for HMEp / sAMG).
type EffectivePerf struct {
	Matrix        string
	Nnzr          float64
	KernelGFlops  float64
	WithPCIGFlops float64
	PenaltyPct    float64
}

// RunSec2B evaluates the Eq. (3)/(4) bounds and measures the PCIe
// impact on the simulator for the matrices the paper discusses.
func RunSec2B(scale float64, w io.Writer) (*Sec2BReport, error) {
	if w == nil {
		w = io.Discard
	}
	rep := &Sec2BReport{}
	m20 := model.Offload{BGPU: 20, BPCI: 1}
	m10 := model.Offload{BGPU: 10, BPCI: 1}
	rep.MaxNnzr50WorstCase = m20.SolveAlphaSelfConsistent(m20.MaxNnzrFor50PctPenalty)
	rep.MaxNnzr50Alpha1 = m10.MaxNnzrFor50PctPenalty(1)
	rep.MinNnzr10Alpha1 = m10.MinNnzrFor10PctPenalty(1)
	rep.MinNnzr10WorstCase = m20.SolveAlphaSelfConsistent(m20.MinNnzrFor10PctPenalty)
	fmt.Fprintf(w, "Eq. (3): PCIe penalty ≥ 50%% for Nnzr ≤ %.1f (worst case) / %.1f (alpha=1, ratio 10)\n",
		rep.MaxNnzr50WorstCase, rep.MaxNnzr50Alpha1)
	fmt.Fprintf(w, "Eq. (4): PCIe penalty ≤ 10%% for Nnzr ≥ %.1f (alpha=1, ratio 10) / %.1f (worst case, ratio 20)\n",
		rep.MinNnzr10Alpha1, rep.MinNnzr10WorstCase)

	dev := gpu.TeslaC2070()
	link := model.Gen2x16()
	for _, name := range []string{"DLR1", "HMEp", "sAMG", "UHBR"} {
		m, err := Matrix(name, scale)
		if err != nil {
			return nil, err
		}
		x := testVector(m.NCols)
		st, err := gpu.RunELLPACKR(dev, m, make([]float64, m.NRows), x, oneShot())
		if err != nil {
			return nil, err
		}
		tPCI := link.RoundTripSeconds(int64(8*m.NCols), int64(8*m.NRows))
		withPCI := model.GFlopsFromTime(int64(m.Nnz()), st.KernelSeconds+tPCI)
		e := EffectivePerf{
			Matrix:        name,
			Nnzr:          m.AvgRowLen(),
			KernelGFlops:  st.GFlops,
			WithPCIGFlops: withPCI,
			PenaltyPct:    100 * (1 - withPCI/st.GFlops),
		}
		rep.Effective = append(rep.Effective, e)
		fmt.Fprintf(w, "%-6s Nnzr=%6.1f  kernel %6.2f GF/s  with PCIe %6.2f GF/s  (penalty %.0f%%)\n",
			e.Matrix, e.Nnzr, e.KernelGFlops, e.WithPCIGFlops, e.PenaltyPct)
		DropCached(name, scale)
	}
	return rep, nil
}

// Fig1Demo renders the worked pJDS derivation of Fig. 1 on the small
// example matrix used in the core tests.
func Fig1Demo(w io.Writer) error {
	d := matrix.DenseFromRows([][]float64{
		{1, 0, 2, 0, 0, 0, 0, 0},
		{0, 3, 0, 0, 0, 0, 0, 0},
		{4, 5, 6, 7, 0, 0, 0, 8},
		{0, 0, 9, 0, 0, 0, 0, 0},
		{0, 1, 0, 2, 3, 0, 0, 0},
		{5, 0, 0, 0, 4, 6, 0, 0},
		{0, 0, 0, 7, 0, 0, 8, 0},
		{9, 8, 0, 0, 0, 7, 6, 5},
	})
	m := d.ToCSR()
	p, err := core.NewPJDS(m, core.Options{BlockHeight: 4})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fig. 1 — pJDS derivation (br = %d)\n", p.C)
	fmt.Fprintf(w, "row permutation (sorted -> original): %v\n", p.Perm)
	fmt.Fprintf(w, "row lengths (sorted): %v\n", p.RowLen)
	fmt.Fprintf(w, "col_start: %v\n", p.ColStart())
	fmt.Fprintf(w, "stored elements: %d (nnz %d, ELLPACK would store %d)\n",
		p.StoredElems(), p.Nnz, int64(m.NRows)*int64(p.MaxRowLen))
	return nil
}
