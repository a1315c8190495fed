// Quickstart: build a sparse matrix, convert it to pJDS, run the
// spMVM on the simulated Fermi GPU, and verify the result against the
// CRS reference — the five-minute tour of the public API.
package main

import (
	"fmt"
	"log"
	"math"

	"pjds"
)

func main() {
	// A paper test matrix at 5% of its published size (any of DLR1,
	// DLR2, HMEp, sAMG, UHBR; see pjds.Generate).
	m := pjds.Generate("sAMG", 0.05)
	st := pjds.ComputeStats(m)
	fmt.Printf("matrix: %s\n", st)

	// Convert to the paper's pJDS format (block height = warp size).
	p, err := pjds.NewPJDS(m, pjds.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ell := pjds.NewELLPACK(m)
	fmt.Printf("pJDS stores %d elements; plain ELLPACK would store %d (%.1f%% reduction)\n",
		p.StoredElems(), ell.StoredElems(), 100*pjds.DataReduction(ell, p))

	// Run one spMVM on a simulated Tesla C2070 (ECC on).
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1 + math.Sin(0.001*float64(i))
	}
	dev := pjds.TeslaC2070()
	yp := make([]float64, p.NPad)
	ks, err := pjds.RunPJDS(dev, p, yp, x)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated kernel: %s\n", ks)

	// pJDS works in a permuted basis; scatter the result back and
	// verify against the CRS reference.
	y := make([]float64, m.NRows)
	for i, old := range p.Perm {
		y[old] = yp[i]
	}
	ref := make([]float64, m.NRows)
	if err := m.MulVec(ref, x); err != nil {
		log.Fatal(err)
	}
	maxErr := 0.0
	for i := range y {
		if d := math.Abs(y[i] - ref[i]); d > maxErr {
			maxErr = d
		}
	}
	fmt.Printf("max abs deviation from CRS reference: %.3g\n", maxErr)

	// The same kernel in ELLPACK-R, for comparison.
	ellr := pjds.NewELLPACKR(m)
	yr := make([]float64, m.NRows)
	kr, err := pjds.RunSELL(dev, ellr, yr, x)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ELLPACK-R:        %s\n", kr)
	fmt.Printf("pJDS speedup over ELLPACK-R: %.2fx\n", ks.GFlops/kr.GFlops)
}
