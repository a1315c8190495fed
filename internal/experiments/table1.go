package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"

	"pjds/internal/core"
	"pjds/internal/cpu"
	"pjds/internal/formats"
	"pjds/internal/gpu"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/textplot"
)

// Table1Cell is one GF/s measurement of Table I.
type Table1Cell struct {
	GFlops float64
	Stats  gpu.KernelStats
}

// Table1Row holds one matrix's column of Table I (the paper prints
// matrices as columns; we keep one struct per matrix).
type Table1Row struct {
	Matrix string
	N      int
	Nnz    int64
	Nnzr   float64

	// DataReductionPct is pJDS vs ELLPACK stored elements (the table's
	// first data row); PaperReductionPct is the published value.
	DataReductionPct  float64
	PaperReductionPct float64
	// PJDSOverheadPct is the pJDS padding overhead vs minimal storage
	// (§II-A quotes < 0.01% at br = 32).
	PJDSOverheadPct float64

	// Perf[precision][ecc][format] with precision ∈ {SP, DP},
	// ecc ∈ {0, 1}, format ∈ {ELLPACK-R, pJDS}.
	SP, DP struct {
		ECCOff, ECCOn struct {
			ELLPACKR, PJDS Table1Cell
		}
	}

	// Westmere is the CPU CRS DP baseline (last table row).
	Westmere cpu.Stats

	// FitsC2050 reports whether the DP matrix data plus vectors fit the
	// 3 GB C2050 (ECC on) in each format, scaled to full published
	// size (§II-A: DLR2 fits only as pJDS).
	FitsC2050ELLPACKR, FitsC2050PJDS bool
}

// Table1Result is the complete experiment.
type Table1Result struct {
	Scale float64
	Rows  []Table1Row
}

// Table1Matrices lists the matrices of Table I in column order.
func Table1Matrices() []string { return []string{"DLR1", "DLR2", "HMEp", "sAMG"} }

// RunTable1 reproduces Table I on the simulated C2070 (and the
// Westmere CRS baseline) at the given scale. Progress and the
// rendered table go to w (may be nil).
func RunTable1(scale float64, w io.Writer) (*Table1Result, error) {
	if w == nil {
		w = io.Discard
	}
	res := &Table1Result{Scale: scale}
	for _, name := range Table1Matrices() {
		fmt.Fprintf(w, "# %s: generating...\n", name)
		m, err := Matrix(name, scale)
		if err != nil {
			return nil, err
		}
		row, err := table1Row(name, m, w)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *row)
		DropCached(name, scale)
		runtime.GC()
	}
	return res, renderTable1(w, res)
}

// table1Row measures one matrix.
func table1Row(name string, m *matrix.CSR[float64], w io.Writer) (*Table1Row, error) {
	if w == nil {
		w = io.Discard
	}
	row := &Table1Row{
		Matrix: name,
		N:      m.NRows,
		Nnz:    int64(m.Nnz()),
		Nnzr:   m.AvgRowLen(),
	}
	if tm, err := matgen.ByName(name); err == nil {
		row.PaperReductionPct = tm.PaperReductionPct
	}
	// Storage: data reduction and overhead, plus the C2050 fit check
	// extrapolated to the full published size.
	ell := core.NewELLPACK(m, matrix.ConvertOptions{})
	pj, err := core.NewPJDS(m, core.Options{})
	if err != nil {
		return nil, err
	}
	row.DataReductionPct = 100 * formats.DataReduction[float64](ell, pj)
	row.PJDSOverheadPct = 100 * pj.PaddingOverhead()
	ellr := core.NewELLPACKR(m, matrix.ConvertOptions{})
	scaleUp := float64(paperN(name)) / float64(m.NRows)
	c2050 := gpu.TeslaC2050()
	vec := int64(16 * m.NRows) // x and y vectors
	row.FitsC2050ELLPACKR = c2050.Fits(int64(float64(ellr.FootprintBytes()+vec) * scaleUp))
	row.FitsC2050PJDS = c2050.Fits(int64(float64(pj.FootprintBytes()+vec) * scaleUp))
	ell = nil

	x := testVector(m.NCols)
	y := make([]float64, m.NRows)

	eccOn := gpu.TeslaC2070()
	eccOff := gpu.TeslaC2070()
	eccOff.ECC = false

	// DP runs: simulate once (ECC on), re-derive for ECC off.
	fmt.Fprintf(w, "# %s: DP kernels...\n", name)
	stE, err := gpu.RunSELL(eccOn, ellr, y, x, gpu.RunOptions{})
	if err != nil {
		return nil, err
	}
	row.DP.ECCOn.ELLPACKR = cell(*stE)
	row.DP.ECCOff.ELLPACKR = cell(stE.Rederive(eccOff))
	stP, err := gpu.RunPJDS(eccOn, pj, make([]float64, pj.NPad), x, gpu.RunOptions{})
	if err != nil {
		return nil, err
	}
	row.DP.ECCOn.PJDS = cell(*stP)
	row.DP.ECCOff.PJDS = cell(stP.Rederive(eccOff))

	// CPU baseline on the DP matrix.
	west, err := cpu.WestmereEP().EstimateCRS(m)
	if err != nil {
		return nil, err
	}
	row.Westmere = west

	// SP runs.
	fmt.Fprintf(w, "# %s: SP kernels...\n", name)
	ms := matrix.Convert[float32](m)
	ellr = nil
	pj = nil
	runtime.GC()
	ellrS := core.NewELLPACKR(ms, matrix.ConvertOptions{})
	pjS, err := core.NewPJDS(ms, core.Options{})
	if err != nil {
		return nil, err
	}
	xs := make([]float32, ms.NCols)
	for i := range xs {
		xs[i] = float32(x[i])
	}
	ys := make([]float32, ms.NRows)
	stES, err := gpu.RunSELL(eccOn, ellrS, ys, xs, gpu.RunOptions{})
	if err != nil {
		return nil, err
	}
	row.SP.ECCOn.ELLPACKR = cell(*stES)
	row.SP.ECCOff.ELLPACKR = cell(stES.Rederive(eccOff))
	stPS, err := gpu.RunPJDS(eccOn, pjS, make([]float32, pjS.NPad), xs, gpu.RunOptions{})
	if err != nil {
		return nil, err
	}
	row.SP.ECCOn.PJDS = cell(*stPS)
	row.SP.ECCOff.PJDS = cell(stPS.Rederive(eccOff))
	return row, nil
}

func cell(st gpu.KernelStats) Table1Cell { return Table1Cell{GFlops: st.GFlops, Stats: st} }

// paperN returns the published dimension for the fit extrapolation.
func paperN(name string) int {
	switch name {
	case "DLR1":
		return 278502
	case "DLR2":
		return 541980
	case "HMEp":
		return 6201600
	case "sAMG":
		return 3405035
	case "UHBR":
		return 4500000
	default:
		return 1
	}
}

// testVector returns the deterministic RHS used by all experiments.
func testVector(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 + math.Sin(0.001*float64(i))
	}
	return x
}

// renderTable1 prints the experiment in the layout of Table I.
func renderTable1(w io.Writer, res *Table1Result) error {
	rows := [][]string{{"", ""}}
	for _, r := range res.Rows {
		rows[0] = append(rows[0], r.Matrix)
	}
	add := func(label1, label2 string, f func(Table1Row) string) {
		row := []string{label1, label2}
		for _, r := range res.Rows {
			row = append(row, f(r))
		}
		rows = append(rows, row)
	}
	add("data reduction [%]", "", func(r Table1Row) string { return fmt.Sprintf("%.1f", r.DataReductionPct) })
	add("SP ECC=0", "ELLPACK-R", func(r Table1Row) string { return fmt.Sprintf("%.1f", r.SP.ECCOff.ELLPACKR.GFlops) })
	add("", "pJDS", func(r Table1Row) string { return fmt.Sprintf("%.1f", r.SP.ECCOff.PJDS.GFlops) })
	add("SP ECC=1", "ELLPACK-R", func(r Table1Row) string { return fmt.Sprintf("%.1f", r.SP.ECCOn.ELLPACKR.GFlops) })
	add("", "pJDS", func(r Table1Row) string { return fmt.Sprintf("%.1f", r.SP.ECCOn.PJDS.GFlops) })
	add("DP ECC=0", "ELLPACK-R", func(r Table1Row) string { return fmt.Sprintf("%.1f", r.DP.ECCOff.ELLPACKR.GFlops) })
	add("", "pJDS", func(r Table1Row) string { return fmt.Sprintf("%.1f", r.DP.ECCOff.PJDS.GFlops) })
	add("DP ECC=1", "ELLPACK-R", func(r Table1Row) string { return fmt.Sprintf("%.1f", r.DP.ECCOn.ELLPACKR.GFlops) })
	add("", "pJDS", func(r Table1Row) string { return fmt.Sprintf("%.1f", r.DP.ECCOn.PJDS.GFlops) })
	add("Westmere CRS (DP)", "", func(r Table1Row) string { return fmt.Sprintf("%.1f", r.Westmere.GFlops) })
	add("pJDS overhead [%]", "", func(r Table1Row) string { return fmt.Sprintf("%.3f", r.PJDSOverheadPct) })
	add("fits C2050 3GB (DP)", "ELLPACK-R", func(r Table1Row) string { return fmt.Sprint(r.FitsC2050ELLPACKR) })
	add("", "pJDS", func(r Table1Row) string { return fmt.Sprint(r.FitsC2050PJDS) })
	fmt.Fprintf(w, "\nTable I reproduction (scale %g, GF/s on simulated C2070; storage rows scaled to full size)\n", res.Scale)
	return textplot.Table(w, rows)
}
