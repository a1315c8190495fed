package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"pjds/internal/core"
	"pjds/internal/distmv"
	"pjds/internal/gpu"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/simnet"
	"pjds/internal/textplot"
)

// This file implements the design-choice ablations listed in
// DESIGN.md: each isolates one modelling or format decision and
// reports its effect.

// AblationPoint is one (setting, metric) pair.
type AblationPoint struct {
	Setting string
	GFlops  float64
	Extra   float64 // second metric, meaning depends on the ablation
}

// AblationL2 compares the pJDS kernel with the full L2 simulation,
// with pollution disabled (RHSFraction 1), and with no cache at all
// (α = 1) — quantifying how much of the performance model rests on
// RHS reuse. Extra reports the measured α.
func AblationL2(name string, scale float64, w io.Writer) ([]AblationPoint, error) {
	m, err := Matrix(name, scale)
	if err != nil {
		return nil, err
	}
	pj, err := core.NewPJDS(m, core.Options{})
	if err != nil {
		return nil, err
	}
	x := testVector(m.NCols)
	var out []AblationPoint
	for _, c := range []struct {
		setting string
		mod     func(*gpu.Device)
	}{
		{"L2 with streaming pollution (default)", func(d *gpu.Device) {}},
		{"L2 without pollution (RHSFraction=1)", func(d *gpu.Device) { d.L2.RHSFraction = 1 }},
		{"no cache (alpha=1, C1060-like)", func(d *gpu.Device) { d.L2 = nil }},
	} {
		dev := gpu.TeslaC2070()
		c.mod(dev)
		st, err := gpu.RunPJDS(dev, pj, make([]float64, pj.NPad), x, oneShot())
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{Setting: c.setting, GFlops: st.GFlops, Extra: st.Alpha})
	}
	return out, renderAblation(w, "L2 cache model ("+name+")", "alpha", out)
}

// AblationSortWindow sweeps the sliced-ELL sorting window σ from
// unsorted to a global sort (the pJDS limit), reporting GF/s and the
// padding overhead. Extra reports stored/nnz − 1.
func AblationSortWindow(name string, scale float64, w io.Writer) ([]AblationPoint, error) {
	m, err := Matrix(name, scale)
	if err != nil {
		return nil, err
	}
	x := testVector(m.NCols)
	dev := gpu.TeslaC2070()
	var out []AblationPoint
	// One arena serves every σ: the scratch buffers (row lengths,
	// window-sort counters) have identical shapes across iterations.
	arena := matrix.NewArena()
	for _, sigma := range []int{1, 128, 1024, 8192, m.NRows} {
		arena.Reset()
		s, err := core.NewSELL(m, 32, sigma, matrix.ConvertOptions{Arena: arena})
		if err != nil {
			return nil, err
		}
		st, err := gpu.RunSELL(dev, s, make([]float64, s.NPad), x, oneShot())
		if err != nil {
			return nil, err
		}
		overhead := float64(s.StoredElems()-int64(s.NonZeros())) / float64(s.NonZeros())
		label := fmt.Sprintf("sigma=%d", sigma)
		if sigma == m.NRows {
			label = "sigma=N (global sort)"
		}
		if sigma == 1 {
			label = "sigma=1 (unsorted)"
		}
		out = append(out, AblationPoint{Setting: label, GFlops: st.GFlops, Extra: overhead})
	}
	return out, renderAblation(w, "sort window sigma ("+name+", sliced-ELL C=32)", "padding overhead", out)
}

// AblationBlockHeight sweeps the pJDS block height br. Extra reports
// the padding overhead; br = warp size is the paper's choice, br = 1
// is classic JDS (no padding, but no coalescing guarantee on real
// hardware — the simulator still counts its partial transactions).
func AblationBlockHeight(name string, scale float64, w io.Writer) ([]AblationPoint, error) {
	m, err := Matrix(name, scale)
	if err != nil {
		return nil, err
	}
	x := testVector(m.NCols)
	dev := gpu.TeslaC2070()
	var out []AblationPoint
	arena := matrix.NewArena()
	for _, br := range []int{1, 4, 16, 32, 64, 256} {
		arena.Reset()
		p, err := core.NewPJDS(m, core.Options{BlockHeight: br, Convert: matrix.ConvertOptions{Arena: arena}})
		if err != nil {
			return nil, err
		}
		st, err := gpu.RunPJDS(dev, p, make([]float64, p.NPad), x, oneShot())
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{
			Setting: fmt.Sprintf("br=%d", br),
			GFlops:  st.GFlops,
			Extra:   p.PaddingOverhead(),
		})
	}
	return out, renderAblation(w, "pJDS block height ("+name+")", "padding overhead", out)
}

// AblationMPIProgress runs naive overlap with and without
// asynchronous MPI progress — the §III-A observation that most MPI
// libraries do not progress nonblocking communication, which is the
// entire reason task mode exists. Extra reports per-iteration seconds.
func AblationMPIProgress(name string, scale float64, nodes int, w io.Writer) ([]AblationPoint, error) {
	m, err := Matrix(name, scale)
	if err != nil {
		return nil, err
	}
	x := testVector(m.NCols)
	var out []AblationPoint
	for _, c := range []struct {
		setting string
		async   bool
	}{
		{"no async progress (realistic)", false},
		{"async progress (ideal MPI)", true},
	} {
		fab := simnet.QDRInfiniBand()
		fab.AsyncProgress = c.async
		res, err := distmv.RunSpMVM(m, x, nodes, distmv.NaiveOverlap, distmv.Config{
			Iterations: 2, Fabric: fab,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{Setting: c.setting, GFlops: res.GFlops, Extra: res.PerIterSeconds})
	}
	return out, renderAblation(w, fmt.Sprintf("MPI async progress (%s, naive overlap, %d nodes)", name, nodes), "s/iter", out)
}

// AblationOccupancy disables the occupancy derating (WarpsToSaturate
// → 0⁺ behaviour approximated by 1e-9) to isolate its role in the
// small-subproblem breakdown of Fig. 5a. Extra reports per-iteration
// seconds.
func AblationOccupancy(name string, scale float64, nodes int, w io.Writer) ([]AblationPoint, error) {
	m, err := Matrix(name, scale)
	if err != nil {
		return nil, err
	}
	x := testVector(m.NCols)
	var out []AblationPoint
	for _, c := range []struct {
		setting string
		mod     func(*gpu.Device)
	}{
		{"occupancy model on (default)", func(d *gpu.Device) {}},
		{"occupancy model off", func(d *gpu.Device) { d.WarpsToSaturate = 1e-9 }},
	} {
		dev := gpu.TeslaC2050()
		c.mod(dev)
		res, err := distmv.RunSpMVM(m, x, nodes, distmv.TaskMode, distmv.Config{
			Iterations: 2, Device: dev,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{Setting: c.setting, GFlops: res.GFlops, Extra: res.PerIterSeconds})
	}
	return out, renderAblation(w, fmt.Sprintf("occupancy derating (%s, task mode, %d nodes)", name, nodes), "s/iter", out)
}

// AblationRCM measures what a bandwidth-reducing RCM pre-ordering
// buys the pJDS kernel: RCM first improves the RHS locality (α), then
// the pJDS length-sort runs within the reordered matrix. Extra
// reports the measured α. The special name "scrambled" uses a banded
// matrix hidden behind a random symmetric permutation — the case RCM
// exists for; on the paper's matrices, which are either already well
// ordered (sAMG, DLR) or intrinsically scattered (HMEp), the honest
// finding is that RCM does not help, and the ablation reports that.
func AblationRCM(name string, scale float64, w io.Writer) ([]AblationPoint, error) {
	var m *matrix.CSR[float64]
	if name == "scrambled" {
		// The RHS working set must clearly exceed the L2 for ordering
		// to matter at all; keep ≥150k rows regardless of scale.
		n := scaleRows(1500000, scale)
		if n < 150000 {
			n = 150000
		}
		m = scrambledBanded(n, 40, Seed)
	} else {
		var err error
		m, err = Matrix(name, scale)
		if err != nil {
			return nil, err
		}
	}
	dev := gpu.TeslaC2070()
	x := testVector(m.NCols)
	var out []AblationPoint

	run := func(setting string, mm *matrix.CSR[float64], xx []float64) error {
		pj, err := core.NewPJDS(mm, core.Options{})
		if err != nil {
			return err
		}
		st, err := gpu.RunPJDS(dev, pj, make([]float64, pj.NPad), xx, oneShot())
		if err != nil {
			return err
		}
		out = append(out, AblationPoint{Setting: setting, GFlops: st.GFlops, Extra: st.Alpha})
		return nil
	}
	if err := run("original ordering", m, x); err != nil {
		return nil, err
	}
	p := matrix.RCM(m)
	rm := matrix.PermuteSymmetric(m, p)
	rx := matrix.Gather(make([]float64, len(x)), x, p)
	if err := run("RCM pre-ordering", rm, rx); err != nil {
		return nil, err
	}
	return out, renderAblation(w, "RCM pre-ordering ("+name+", pJDS)", "alpha", out)
}

// scaleRows applies the experiment scale to a nominal row count.
func scaleRows(n int, scale float64) int {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	s := int(float64(n) * scale)
	if s < 64 {
		s = 64
	}
	return s
}

// scrambledBanded hides a banded matrix behind a random symmetric
// permutation (deterministic in seed).
func scrambledBanded(n, halfBand int, seed int64) *matrix.CSR[float64] {
	m := matgen.Banded(n, 5, 11, halfBand, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x52434d))
	p := matrix.Identity(n)
	rng.Shuffle(n, func(a, b int) { p[a], p[b] = p[b], p[a] })
	return matrix.PermuteSymmetric(m, p)
}

// AblationELLRT sweeps the ELLR-T thread count against pJDS on one
// matrix — the "matrix-dependent tuning parameter" §II-A contrasts
// pJDS with. Extra reports stored elements relative to nnz.
func AblationELLRT(name string, scale float64, w io.Writer) ([]AblationPoint, error) {
	m, err := Matrix(name, scale)
	if err != nil {
		return nil, err
	}
	dev := gpu.TeslaC2070()
	x := testVector(m.NCols)
	var out []AblationPoint
	arena := matrix.NewArena()
	for _, threads := range []int{1, 2, 4, 8} {
		arena.Reset()
		e, err := core.NewELLRTWith(m, threads, matrix.ConvertOptions{Arena: arena})
		if err != nil {
			return nil, err
		}
		st, err := gpu.RunELLRT(dev, e, make([]float64, m.NRows), x, oneShot())
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{
			Setting: e.Name(),
			GFlops:  st.GFlops,
			Extra:   float64(e.StoredElems()) / float64(m.Nnz()),
		})
	}
	pj, err := core.NewPJDS(m, core.Options{})
	if err != nil {
		return nil, err
	}
	st, err := gpu.RunPJDS(dev, pj, make([]float64, pj.NPad), x, oneShot())
	if err != nil {
		return nil, err
	}
	out = append(out, AblationPoint{
		Setting: "pJDS (no tuning parameter)",
		GFlops:  st.GFlops,
		Extra:   float64(pj.StoredElems()) / float64(m.Nnz()),
	})
	return out, renderAblation(w, "ELLR-T thread count vs pJDS ("+name+")", "stored/nnz", out)
}

// AblationPartition compares non-zero-balanced partitioning (the
// load-balancing choice of the paper's reference [4], and this
// repository's default) against naive equal-row-count partitioning on
// a matrix with a systematic row-length gradient. Extra reports the
// max/mean non-zero load imbalance across ranks.
//
// The finding is double-edged, and the GPU twist matters: nnz
// balancing equalizes bytes, but on a length-sorted matrix it hands
// the long-row rank only a few hundred rows — too few warps to hide
// memory latency (the occupancy derating of DESIGN.md ablation 5) —
// so the byte-balanced partition can lose to the row-balanced one on
// GPUs. PartitionByKernelTime repairs the occupancy blind spot and
// lands between the two here: on this scattered fixture the residual
// bottleneck is the halo exchange, which none of the row-contiguous
// strategies control. Partitioning for GPU clusters is genuinely
// multi-objective (kernel time, occupancy, communication volume);
// the ablation quantifies each strategy's trade.
func AblationPartition(scale float64, nodes int, w io.Writer) ([]AblationPoint, error) {
	// A power-law matrix with rows ordered longest-first (the way AMG
	// hierarchies and refinement-ordered meshes come out): i.i.d. long
	// rows would average out across equal-row blocks, but a systematic
	// gradient concentrates the non-zeros in the first ranks.
	n := scaleRows(400000, scale)
	if n < 20000 {
		n = 20000
	}
	raw := matgen.PowerLaw(n, 4, 600, 3, Seed)
	m := matrix.PermuteSymmetric(raw, matrix.SortRowsByLengthDesc(raw))
	x := testVector(m.NCols)
	var out []AblationPoint
	for _, c := range []struct {
		setting     string
		partitioner func(*matrix.CSR[float64], int) (distmv.Partition, error)
	}{
		{"nnz-balanced (default, ref. [4])", distmv.PartitionByNnz},
		{"equal row count (naive)", distmv.PartitionByRows},
		{"kernel-time balanced (occupancy-aware)", distmv.PartitionByKernelTime(gpu.TeslaC2050())},
	} {
		pt, err := c.partitioner(m, nodes)
		if err != nil {
			return nil, err
		}
		// Load imbalance: max over ranks of nnz share vs the mean.
		maxNnz := 0
		for r := 0; r < nodes; r++ {
			lo, hi := pt.Range(r)
			if nnz := m.RowPtr[hi] - m.RowPtr[lo]; nnz > maxNnz {
				maxNnz = nnz
			}
		}
		imbalance := float64(maxNnz) * float64(nodes) / float64(m.Nnz())
		res, err := distmv.RunSpMVM(m, x, nodes, distmv.TaskMode, distmv.Config{
			Iterations:  2,
			Partitioner: c.partitioner,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{Setting: c.setting, GFlops: res.GFlops, Extra: imbalance})
	}
	return out, renderAblation(w, fmt.Sprintf("partitioning strategy (power-law matrix, %d nodes)", nodes), "max/mean nnz", out)
}

func renderAblation(w io.Writer, title, extraLabel string, points []AblationPoint) error {
	if w == nil {
		return nil
	}
	rows := [][]string{{"setting", "GF/s", extraLabel}}
	for _, p := range points {
		rows = append(rows, []string{p.Setting, fmt.Sprintf("%.2f", p.GFlops), fmt.Sprintf("%.4f", p.Extra)})
	}
	fmt.Fprintf(w, "\nAblation: %s\n", title)
	return textplot.Table(w, rows)
}
