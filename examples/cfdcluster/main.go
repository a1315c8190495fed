// CFD cluster: a DLR1-style adjoint CFD matrix distributed over a
// simulated 16-GPU cluster, comparing the paper's three communication
// schemes (§III-A) and printing the Fig. 4 task-mode timeline.
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"pjds"
)

func main() {
	m := pjds.Generate("DLR1", 0.25)
	st := pjds.ComputeStats(m)
	fmt.Printf("CFD matrix: %s\n\n", st)

	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1 + math.Cos(0.002*float64(i))
	}
	ref := make([]float64, m.NRows)
	if err := m.MulVec(ref, x); err != nil {
		log.Fatal(err)
	}

	const nodes = 16
	fmt.Printf("%-26s %10s %12s\n", "communication scheme", "GF/s", "s/iteration")
	fmt.Println(strings.Repeat("-", 50))
	var best *pjds.ClusterResult
	spans := new(pjds.ClusterSpans) // records the task-mode run
	for _, mode := range []pjds.Mode{pjds.VectorMode, pjds.NaiveOverlap, pjds.TaskMode} {
		cfg := pjds.ClusterConfig{Iterations: 3}
		if mode == pjds.TaskMode {
			cfg.Spans = spans
		}
		res, err := pjds.RunCluster(m, x, nodes, mode, cfg)
		if err != nil {
			log.Fatal(err)
		}
		verify(res.Y, ref)
		fmt.Printf("%-26s %10.2f %12.3g\n", mode, res.GFlops, res.PerIterSeconds)
		if mode == pjds.TaskMode {
			best = res
		}
	}

	// The Fig. 4 timeline of rank 0's first task-mode iteration.
	fmt.Printf("\ntask-mode timeline, rank 0 (μs):\n")
	for _, e := range pjds.Fig4Timeline(spans) {
		bar := strings.Repeat("=", 1+int(40*(e.End-e.Start)/best.PerIterSeconds))
		fmt.Fprintf(os.Stdout, "%-5s %-18s %8.1f..%-8.1f %s\n",
			e.Lane, e.Name, 1e6*e.Start, 1e6*e.End, bar)
	}

	// Per-rank communication structure.
	r := best.Ranks[nodes/2]
	fmt.Printf("\nrank %d: %d local rows, %d halo elements from %d neighbours\n",
		r.Rank, r.LocalRows, r.HaloElems, r.Neighbors)
}

func verify(y, ref []float64) {
	for i := range ref {
		if math.Abs(y[i]-ref[i]) > 1e-9*(1+math.Abs(ref[i])) {
			log.Fatalf("distributed result diverges at row %d", i)
		}
	}
}
