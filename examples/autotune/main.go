// Autotune: given a matrix, measure every storage format on the
// simulated device, pick the empirical winner, and compare it with the
// §II model-based advisor's prediction — the workflow a production
// spMVM library would run at setup time.
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"pjds"
)

type contender struct {
	name      string
	footprint int64
	gflops    float64
}

func main() {
	for _, scenario := range []struct {
		label string
		m     *pjds.CSR
	}{
		{"sAMG (short irregular rows)", pjds.Generate("sAMG", 0.05)},
		{"DLR2 (dense 5x5 blocks)", pjds.Generate("DLR2", 0.05)},
	} {
		fmt.Printf("=== %s ===\n", scenario.label)
		autotune(scenario.m)
		fmt.Println()
	}
}

func autotune(m *pjds.CSR) {
	st := pjds.ComputeStats(m)
	fmt.Printf("matrix: %s\n", st)

	// The model's prediction, before measuring anything.
	rec := pjds.Recommend(st)
	fmt.Printf("advisor predicts: %s (offload: %s)\n\n", rec.Format, rec.Offload)

	dev := pjds.TeslaC2070()
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1 + math.Sin(0.001*float64(i))
	}
	y := make([]float64, m.NRows)

	var results []contender
	add := func(name string, fp int64, ks *pjds.KernelStats, err error) {
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		results = append(results, contender{name, fp, ks.GFlops})
	}

	ellr := pjds.NewELLPACKR(m)
	ks, err := pjds.RunSELL(dev, ellr, y, x)
	add(ellr.Name(), ellr.FootprintBytes(), ks, err)

	p, err := pjds.NewPJDS(m, pjds.Options{})
	if err != nil {
		log.Fatal(err)
	}
	yp := make([]float64, p.NPad)
	ks, err = pjds.RunPJDS(dev, p, yp, x)
	add(p.Name(), p.FootprintBytes(), ks, err)

	for _, threads := range []int{2, 4} {
		e, err := pjds.NewELLRT(m, threads)
		if err != nil {
			log.Fatal(err)
		}
		ks, err := pjds.RunELLRT(dev, e, y, x)
		add(e.Name(), e.FootprintBytes(), ks, err)
	}

	bell, err := pjds.NewBELLPACK(m, 5, 5)
	if err != nil {
		log.Fatal(err)
	}
	ks, err = pjds.RunBELLPACK(dev, bell, y, x)
	add(bell.Name(), bell.FootprintBytes(), ks, err)

	sort.Slice(results, func(i, j int) bool { return results[i].gflops > results[j].gflops })
	fmt.Printf("%-14s %10s %14s\n", "format", "GF/s", "footprint MB")
	for i, r := range results {
		marker := "  "
		if i == 0 {
			marker = "->"
		}
		fmt.Printf("%s %-12s %9.2f %14.1f\n", marker, r.name, r.gflops, float64(r.footprint)/(1<<20))
	}
	if results[0].name == rec.Format {
		fmt.Println("advisor prediction confirmed by measurement")
	} else {
		fmt.Printf("measurement picked %s over the advisor's %s (predictions are heuristics; measurements win)\n",
			results[0].name, rec.Format)
	}
}
