package experiments

import (
	"fmt"
	"io"

	"pjds/internal/core"
	"pjds/internal/formats"
	"pjds/internal/gpu"
	"pjds/internal/matrix"
	"pjds/internal/textplot"
)

// This file implements the §IV outlook the paper leaves as work in
// progress: "A thorough comparison of pJDS with those alternative
// approaches [sliced ELLPACK, sliced ELLR-T] is work in progress."

// ComparisonCell is one (matrix, format) measurement.
type ComparisonCell struct {
	Matrix      string
	Format      string
	GFlops      float64
	StoredRatio float64 // stored elements / nnz
	Alpha       float64
}

// RunFormatComparison benchmarks every GPU format in the repository —
// ELLPACK, ELLPACK-R, ELLR-T(4), sliced-ELL (unsorted and σ=4096),
// JDS and pJDS — across the Table I matrices on the simulated C2070
// (DP, ECC on). This is the §IV "thorough comparison with sliced
// ELLPACK / sliced ELLR-T" the paper announces as work in progress.
func RunFormatComparison(scale float64, w io.Writer) ([]ComparisonCell, error) {
	if w == nil {
		w = io.Discard
	}
	dev := gpu.TeslaC2070()
	var cells []ComparisonCell
	table := [][]string{{"matrix", "format", "GF/s (DP,ECC)", "stored/nnz", "alpha"}}
	for _, name := range Table1Matrices() {
		m, err := Matrix(name, scale)
		if err != nil {
			return nil, err
		}
		x := testVector(m.NCols)
		nnz := float64(m.Nnz())

		record := func(format string, stored int64, st *gpu.KernelStats) {
			c := ComparisonCell{
				Matrix:      name,
				Format:      format,
				GFlops:      st.GFlops,
				StoredRatio: float64(stored) / nnz,
				Alpha:       st.Alpha,
			}
			cells = append(cells, c)
			table = append(table, []string{
				c.Matrix, c.Format,
				fmt.Sprintf("%.2f", c.GFlops),
				fmt.Sprintf("%.3f", c.StoredRatio),
				fmt.Sprintf("%.2f", c.Alpha),
			})
		}

		// CSR baselines of Bell & Garland (reference [1]).
		st, err := gpu.RunCSRScalar(dev, m, make([]float64, m.NRows), x, gpu.RunOptions{})
		if err != nil {
			return nil, err
		}
		record("CSR-scalar", int64(m.Nnz()), st)
		if st, err = gpu.RunCSRVector(dev, m, make([]float64, m.NRows), x, gpu.RunOptions{}); err != nil {
			return nil, err
		}
		record("CSR-vector", int64(m.Nnz()), st)

		ell := core.NewELLPACK(m, matrix.ConvertOptions{})
		if st, err = gpu.RunSELL(dev, ell, make([]float64, m.NRows), x, gpu.RunOptions{}); err != nil {
			return nil, err
		}
		record(ell.Name(), ell.StoredElems(), st)

		ellr := core.NewELLPACKR(m, matrix.ConvertOptions{})
		if st, err = gpu.RunSELL(dev, ellr, make([]float64, m.NRows), x, gpu.RunOptions{}); err != nil {
			return nil, err
		}
		record(ellr.Name(), ellr.StoredElems(), st)

		ert, err := formats.NewELLRT(m, 4)
		if err != nil {
			return nil, err
		}
		if st, err = gpu.RunELLRT(dev, ert, make([]float64, m.NRows), x, gpu.RunOptions{}); err != nil {
			return nil, err
		}
		record(ert.Name(), ert.StoredElems(), st)

		for _, sigma := range []int{1, 4096} {
			sell, err := core.NewSELL(m, 32, sigma, matrix.ConvertOptions{})
			if err != nil {
				return nil, err
			}
			if st, err = gpu.RunSELL(dev, sell, make([]float64, sell.NPad), x, gpu.RunOptions{}); err != nil {
				return nil, err
			}
			label := sell.Name()
			if sigma > 1 {
				label = fmt.Sprintf("%s(sigma=%d)", sell.Name(), sigma)
			}
			record(label, sell.StoredElems(), st)
		}

		// BELLPACK with the matrix's natural block size: 5×5 for the
		// block-structured DLR2, 6×6 for DLR1, 1×1 (plain ELLPACK
		// geometry with per-element indices merged) elsewhere.
		br := map[string]int{"DLR1": 6, "DLR2": 5}[name]
		if br == 0 {
			br = 2
		}
		bell, err := formats.NewBELLPACK(m, br, br)
		if err != nil {
			return nil, err
		}
		if st, err = gpu.RunBELLPACK(dev, bell, make([]float64, m.NRows), x, gpu.RunOptions{}); err != nil {
			return nil, err
		}
		record(bell.Name(), bell.StoredElems(), st)

		jds, err := core.NewPJDS(m, core.Options{BlockHeight: 1})
		if err != nil {
			return nil, err
		}
		if st, err = gpu.RunPJDS(dev, jds, make([]float64, jds.NPad), x, gpu.RunOptions{}); err != nil {
			return nil, err
		}
		record(jds.Name(), jds.StoredElems(), st)

		pj, err := core.NewPJDS(m, core.Options{})
		if err != nil {
			return nil, err
		}
		if st, err = gpu.RunPJDS(dev, pj, make([]float64, pj.NPad), x, gpu.RunOptions{}); err != nil {
			return nil, err
		}
		record(pj.Name(), pj.StoredElems(), st)

		DropCached(name, scale)
	}
	fmt.Fprintf(w, "\n§IV outlook — format comparison (scale %g, DP, ECC on, simulated C2070)\n", scale)
	return cells, textplot.Table(w, table)
}
