package distmv

import (
	"math"
	"slices"
	"strings"
	"testing"

	"pjds/internal/gpu"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/model"
	"pjds/internal/simnet"
	"pjds/internal/telemetry"
)

func testMatrix(t *testing.T) *matrix.CSR[float64] {
	t.Helper()
	return matgen.Banded(4000, 5, 25, 300, 42)
}

func testVec(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(0.01*float64(i)) + 1
	}
	return x
}

func TestPartitionByNnz(t *testing.T) {
	m := matgen.PowerLaw(1000, 2, 100, 3, 1)
	pt, err := PartitionByNnz(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Ranks() != 7 {
		t.Fatalf("ranks = %d", pt.Ranks())
	}
	if pt.Bounds[0] != 0 || pt.Bounds[7] != 1000 {
		t.Fatalf("bounds = %v", pt.Bounds)
	}
	total := m.Nnz()
	for r := 0; r < 7; r++ {
		lo, hi := pt.Range(r)
		if hi <= lo {
			t.Fatalf("rank %d empty: [%d,%d)", r, lo, hi)
		}
		nnz := m.RowPtr[hi] - m.RowPtr[lo]
		if frac := float64(nnz) / float64(total); frac > 0.5 {
			t.Errorf("rank %d carries %.2f of the non-zeros", r, frac)
		}
	}
}

func TestPartitionOwner(t *testing.T) {
	pt := Partition{Bounds: []int{0, 10, 25, 40}}
	cases := map[int]int{0: 0, 9: 0, 10: 1, 24: 1, 25: 2, 39: 2}
	for idx, want := range cases {
		if got := pt.Owner(idx); got != want {
			t.Errorf("Owner(%d) = %d, want %d", idx, got, want)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	m := matgen.Stencil2D(4, 4)
	if _, err := PartitionByNnz(m, 0); err == nil {
		t.Error("0 ranks accepted")
	}
	if _, err := PartitionByNnz(m, 17); err == nil {
		t.Error("more ranks than rows accepted")
	}
}

func TestDistributeStructure(t *testing.T) {
	m := testMatrix(t)
	pt, err := PartitionByNnz(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	problems, err := Distribute(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	var nnzSum int
	for _, rp := range problems {
		nnzSum += rp.Local.Nnz() + rp.NonLocal.Nnz()
		// Halo sorted and grouped by owner.
		for k := 1; k < len(rp.HaloCols); k++ {
			if rp.HaloCols[k-1] >= rp.HaloCols[k] {
				t.Fatalf("rank %d halo not strictly sorted", rp.Rank)
			}
		}
		// No halo element inside the own range.
		for _, c := range rp.HaloCols {
			if int(c) >= rp.RowLo && int(c) < rp.RowHi {
				t.Fatalf("rank %d halo contains own column %d", rp.Rank, c)
			}
		}
		// Receive counts add up to the halo size.
		sum := 0
		for _, cnt := range rp.RecvCount {
			sum += cnt
		}
		if sum != rp.HaloSize() {
			t.Fatalf("rank %d recv counts %d != halo %d", rp.Rank, sum, rp.HaloSize())
		}
	}
	if nnzSum != m.Nnz() {
		t.Fatalf("distributed nnz %d != %d", nnzSum, m.Nnz())
	}
	// Send lists mirror receive lists.
	for _, rp := range problems {
		for o, cnt := range rp.RecvCount {
			if got := len(problems[o].SendIdx[rp.Rank]); got != cnt {
				t.Fatalf("rank %d expects %d from %d, sender plans %d", rp.Rank, cnt, o, got)
			}
		}
	}
}

func TestDistributeRejectsRectangular(t *testing.T) {
	coo := matrix.NewCOO[float64](4, 6)
	coo.Add(0, 5, 1)
	if _, err := Distribute(coo.ToCSR(), Partition{Bounds: []int{0, 2, 4}}); err == nil {
		t.Error("rectangular matrix accepted")
	}
}

func TestMergedSliceEquivalence(t *testing.T) {
	m := testMatrix(t)
	pt, _ := PartitionByNnz(m, 4)
	problems, err := Distribute(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	x := testVec(m.NCols)
	for _, rp := range problems {
		nloc := rp.LocalRows()
		xExt := make([]float64, nloc+rp.HaloSize())
		copy(xExt, x[rp.RowLo:rp.RowHi])
		for s, c := range rp.HaloCols {
			xExt[nloc+s] = x[c]
		}
		y := make([]float64, nloc)
		if err := rp.MergedSlice().MulVec(y, xExt); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nloc; i++ {
			var want float64
			cols, vals := m.Row(rp.RowLo + i)
			for k, c := range cols {
				want += vals[k] * x[c]
			}
			if math.Abs(y[i]-want) > 1e-10*(1+math.Abs(want)) {
				t.Fatalf("rank %d merged row %d = %g, want %g", rp.Rank, i, y[i], want)
			}
		}
	}
}

// commHeavyMatrix has scattered columns, so halos are large and the
// communication window rivals the local kernel — the regime where the
// §III-A mode distinctions matter.
func commHeavyMatrix() *matrix.CSR[float64] {
	return matgen.Random(20000, 10, 30, 11)
}

func TestRunAllModesCorrectAndOrdered(t *testing.T) {
	m := commHeavyMatrix()
	x := testVec(m.NCols)
	cfg := Config{Iterations: 2}
	perf := map[Mode]float64{}
	for _, mode := range Modes() {
		res, err := RunSpMVM(m, x, 6, mode, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		rel, err := VerifyAgainstSerial(m, x, res.Y)
		if err != nil {
			t.Fatal(err)
		}
		if rel > 1e-10 {
			t.Errorf("%v: max relative error %g", mode, rel)
		}
		if res.GFlops <= 0 || res.PerIterSeconds <= 0 {
			t.Errorf("%v: degenerate performance %+v", mode, res.GFlops)
		}
		perf[mode] = res.GFlops
	}
	// §III-B: task mode beats both vector modes; naive overlap does
	// not beat plain vector mode without async progress (allow ties).
	if perf[TaskMode] < perf[VectorMode] || perf[TaskMode] < perf[NaiveOverlap] {
		t.Errorf("task mode not fastest: %v", perf)
	}
}

func TestNaiveOverlapGainsWithAsyncProgress(t *testing.T) {
	m := testMatrix(t)
	x := testVec(m.NCols)
	sync := simnet.QDRInfiniBand()
	async := simnet.QDRInfiniBand()
	async.AsyncProgress = true
	rSync, err := RunSpMVM(m, x, 6, NaiveOverlap, Config{Iterations: 2, Fabric: sync})
	if err != nil {
		t.Fatal(err)
	}
	rAsync, err := RunSpMVM(m, x, 6, NaiveOverlap, Config{Iterations: 2, Fabric: async})
	if err != nil {
		t.Fatal(err)
	}
	if rAsync.GFlops < rSync.GFlops {
		t.Errorf("async progress slower: %.2f vs %.2f", rAsync.GFlops, rSync.GFlops)
	}
}

func TestRunSingleRank(t *testing.T) {
	m := matgen.Banded(800, 4, 12, 50, 7)
	x := testVec(800)
	res, err := RunSpMVM(m, x, 1, TaskMode, Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := VerifyAgainstSerial(m, x, res.Y)
	if err != nil {
		t.Fatal(err)
	}
	if rel > 1e-12 {
		t.Errorf("single rank error %g", rel)
	}
	if res.Ranks[0].HaloElems != 0 || res.Ranks[0].Neighbors != 0 {
		t.Errorf("single rank has halo: %+v", res.Ranks[0])
	}
}

func TestRunPJDSFormat(t *testing.T) {
	m := testMatrix(t)
	x := testVec(m.NCols)
	res, err := RunSpMVM(m, x, 4, TaskMode, Config{Iterations: 1, Format: FormatPJDS})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := VerifyAgainstSerial(m, x, res.Y)
	if err != nil {
		t.Fatal(err)
	}
	if rel > 1e-10 {
		t.Errorf("pJDS distributed error %g", rel)
	}
	if res.Ranks[0].Local.Kernel != "pJDS" {
		t.Errorf("local kernel = %q", res.Ranks[0].Local.Kernel)
	}
}

func TestTimelineShape(t *testing.T) {
	m := commHeavyMatrix()
	x := testVec(m.NCols)
	spans := telemetry.NewSpanLog()
	if _, err := RunSpMVM(m, x, 4, TaskMode, Config{Iterations: 2, Spans: spans}); err != nil {
		t.Fatal(err)
	}
	// Rank 0's first iteration only, in Fig. 4 order: the host lane,
	// then the gpu lane, each in time order.
	var lanes []string
	var commEnd, localStart, localEnd, nonLocalStart float64
	for _, e := range Fig4Spans(spans) {
		if e.End < e.Start {
			t.Errorf("event %q ends before it starts", e.Name)
		}
		lanes = append(lanes, e.Lane+"/"+e.Name)
		switch e.Name {
		case "MPI_Waitall":
			commEnd = e.End
		case "local spMVM":
			localStart, localEnd = e.Start, e.End
		case "non-local spMVM":
			nonLocalStart = e.Start
		}
	}
	want := []string{
		"host/local gather", "host/MPI_Isend/Irecv", "host/MPI_Waitall",
		"gpu/upload RHS", "gpu/local spMVM", "gpu/upload halo",
		"gpu/non-local spMVM", "gpu/download LHS",
	}
	if !slices.Equal(lanes, want) {
		t.Errorf("timeline %q, want %q", lanes, want)
	}
	// On one rank there is no halo: the host phases take no time and
	// share one start, and still keep Fig. 4 order.
	single := telemetry.NewSpanLog()
	if _, err := RunSpMVM(m, x, 1, TaskMode, Config{Iterations: 1, Spans: single}); err != nil {
		t.Fatal(err)
	}
	lanes = lanes[:0]
	for _, e := range Fig4Spans(single) {
		lanes = append(lanes, e.Lane+"/"+e.Name)
	}
	if !slices.Equal(lanes, want) {
		t.Errorf("one-rank timeline %q, want %q", lanes, want)
	}
	// Fig. 4: the communication window and the local kernel overlap;
	// the non-local kernel starts only after both are done.
	if localStart >= commEnd {
		t.Errorf("no overlap: local kernel starts at %g, comm ends %g", localStart, commEnd)
	}
	if nonLocalStart+1e-15 < math.Max(commEnd, localEnd) {
		t.Errorf("non-local kernel at %g before join of %g/%g", nonLocalStart, commEnd, localEnd)
	}
}

func TestResultBreakdown(t *testing.T) {
	m := commHeavyMatrix()
	x := testVec(m.NCols)
	spans := telemetry.NewSpanLog()
	res, err := RunSpMVM(m, x, 4, NaiveOverlap, Config{Iterations: 1, Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	bd := map[string]float64{}
	for _, e := range Fig4Spans(spans) {
		bd[e.Name] += e.End - e.Start
	}
	for _, phase := range []string{"local spMVM", "non-local spMVM", "MPI_Waitall", "upload RHS", "download LHS"} {
		if bd[phase] <= 0 {
			t.Errorf("phase %q missing from breakdown: %v", phase, bd)
		}
	}
	// Naive overlap is fully serialized: phases sum to ≈ one iteration.
	total := 0.0
	for _, v := range bd {
		total += v
	}
	if total > res.PerIterSeconds*1.01 {
		t.Errorf("serial phases sum to %g > iteration %g", total, res.PerIterSeconds)
	}
}

func TestStrongScalingImprovesThenSaturates(t *testing.T) {
	// A larger banded matrix should show near-linear scaling at small
	// P with diminishing returns later.
	m := matgen.Banded(20000, 8, 24, 400, 9)
	x := testVec(m.NCols)
	var prev float64
	for _, p := range []int{1, 2, 4, 8} {
		res, err := RunSpMVM(m, x, p, TaskMode, Config{Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.GFlops <= prev {
			t.Errorf("no speedup at P=%d: %.2f after %.2f", p, res.GFlops, prev)
		}
		prev = res.GFlops
	}
}

// TestMultiGPUPerNode: packing 4 GPUs per node moves most halo traffic
// onto the intra-node fabric — on a locality-heavy matrix this beats
// the one-GPU-per-node layout of the paper's cluster.
func TestMultiGPUPerNode(t *testing.T) {
	m := matgen.Banded(20000, 8, 24, 2500, 10)
	x := testVec(m.NCols)
	one, err := RunSpMVM(m, x, 8, TaskMode, Config{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunSpMVM(m, x, 8, TaskMode, Config{Iterations: 2, GPUsPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rel, _ := VerifyAgainstSerial(m, x, four.Y); rel > 1e-10 {
		t.Fatalf("multi-GPU result error %g", rel)
	}
	if four.GFlops < one.GFlops {
		t.Errorf("4 GPUs/node %.2f GF/s below 1 GPU/node %.2f", four.GFlops, one.GFlops)
	}
}

func TestModeAndFormatStrings(t *testing.T) {
	if VectorMode.String() == "" || NaiveOverlap.String() == "" || TaskMode.String() == "" {
		t.Error("empty mode names")
	}
	if Mode(99).String() == "" || FormatKind(99).String() == "" {
		t.Error("unknown values should still render")
	}
	if FormatELLPACKR.String() != "ELLPACK-R" || FormatPJDS.String() != "pJDS" {
		t.Error("format names")
	}
}

func TestRunInputValidation(t *testing.T) {
	m := matgen.Stencil2D(10, 10)
	if _, err := RunSpMVM(m, make([]float64, 5), 2, TaskMode, Config{}); err == nil {
		t.Error("wrong x size accepted")
	}
	if _, err := RunSpMVM(m, make([]float64, 100), 0, TaskMode, Config{}); err == nil {
		t.Error("0 ranks accepted")
	}
	if _, err := RunSpMVM(m, make([]float64, 100), 2, Mode(42), Config{Iterations: 1}); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestRunRejectsInvalidLink: a PCIe link with no bandwidth or a
// negative latency is a configuration error reported up front, not an
// infinite wallclock or a failure deep inside the virtual-time layer.
func TestRunRejectsInvalidLink(t *testing.T) {
	m := matgen.Stencil2D(10, 10)
	for _, link := range []*model.Link{
		{Name: "dead", BytesPerSecond: 0},
		{Name: "acausal", BytesPerSecond: 5e9, LatencySeconds: -1e-6},
		{Name: "nan", BytesPerSecond: math.NaN()},
	} {
		res, err := RunSpMVM(m, make([]float64, 100), 2, TaskMode, Config{Iterations: 1, Link: link})
		if err == nil {
			t.Errorf("link %s accepted (Seconds = %g)", link.Name, res.Seconds)
			continue
		}
		if !strings.HasPrefix(err.Error(), "distmv: ") {
			t.Errorf("link %s: error %q lacks the distmv: prefix", link.Name, err)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Device == nil || c.Link == nil || c.Fabric == nil {
		t.Fatal("defaults missing")
	}
	if c.Iterations <= 0 {
		t.Fatal("scalar defaults missing")
	}
	// Scaling runs default to the Dirac node's C2050.
	if c.Device.Name != gpu.TeslaC2050().Name {
		t.Errorf("default device = %s", c.Device.Name)
	}
}
