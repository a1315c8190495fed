// Format explorer: a storage-format shoot-out over matrices with very
// different sparsity patterns, showing where pJDS wins, where ELLPACK
// explodes, and how the sorting window trades padding against
// permutation damage — the §II-A discussion, interactive.
package main

import (
	"fmt"
	"log"
	"math"

	"pjds"
)

func main() {
	cases := []struct {
		name string
		m    *pjds.CSR
	}{
		{"sAMG (AMG, short rows)", pjds.Generate("sAMG", 0.03)},
		{"DLR1 (CFD blocks)", pjds.Generate("DLR1", 0.1)},
		{"HMEp (Hamiltonian)", pjds.Generate("HMEp", 0.02)},
		{"2D Laplacian (constant rows)", pjds.Stencil2D(200, 200)},
		{"power law (one hot row)", powerLawExtreme(20000)},
	}
	dev := pjds.TeslaC2070()

	for _, c := range cases {
		st := pjds.ComputeStats(c.m)
		fmt.Printf("\n=== %s: N=%d Nnzr=%.1f max=%d ===\n", c.name, st.Rows, st.AvgRowLen, st.MaxRowLen)
		fmt.Printf("%-12s %14s %14s %10s\n", "format", "stored elems", "footprint MB", "GF/s (DP)")

		ell := pjds.NewELLPACK(c.m)
		x := make([]float64, c.m.NCols)
		for i := range x {
			x[i] = 1 + math.Sin(float64(i))
		}

		// Plain ELLPACK (computes on padding).
		y := make([]float64, c.m.NRows)
		stE, err := pjds.RunSELL(dev, ell, y, x)
		if err != nil {
			log.Fatal(err)
		}
		report(ell, stE.GFlops)

		// ELLPACK-R.
		ellr := pjds.NewELLPACKR(c.m)
		stR, err := pjds.RunSELL(dev, ellr, y, x)
		if err != nil {
			log.Fatal(err)
		}
		report(ellr, stR.GFlops)

		// pJDS.
		p, err := pjds.NewPJDS(c.m, pjds.Options{})
		if err != nil {
			log.Fatal(err)
		}
		yp := make([]float64, p.NPad)
		stP, err := pjds.RunPJDS(dev, p, yp, x)
		if err != nil {
			log.Fatal(err)
		}
		report(p, stP.GFlops)

		fmt.Printf("pJDS data reduction vs ELLPACK: %.1f%%, padding overhead %.4f%%\n",
			100*pjds.DataReduction(ell, p), 100*p.PaddingOverhead())
	}
}

func report(f pjds.Format, gflops float64) {
	fmt.Printf("%-12s %14d %14.1f %10.2f\n",
		f.Name(), f.StoredElems(), float64(f.FootprintBytes())/(1<<20), gflops)
}

// powerLawExtreme builds the §II-A worst case: one fully populated row
// over singletons.
func powerLawExtreme(n int) *pjds.CSR {
	coo := pjds.NewCOO(n, n)
	for j := 0; j < n; j++ {
		coo.Add(0, j, 1)
	}
	for i := 1; i < n; i++ {
		coo.Add(i, i, 2)
	}
	return coo.ToCSR()
}
