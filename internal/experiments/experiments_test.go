package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pjds/internal/distmv"
	"pjds/internal/gpu"
	"pjds/internal/hostkernel"
	"pjds/internal/matgen"
)

// Tiny scale keeps the experiment tests quick; the full-scale runs
// happen in the cmd binaries and benchmarks.
const tinyScale = 0.02

func TestScaleFromEnv(t *testing.T) {
	t.Setenv("PJDS_SCALE", "")
	if ScaleFromEnv() != DefaultScale {
		t.Error("default scale")
	}
	t.Setenv("PJDS_SCALE", "0.5")
	if ScaleFromEnv() != 0.5 {
		t.Error("env scale ignored")
	}
	t.Setenv("PJDS_SCALE", "junk")
	if ScaleFromEnv() != DefaultScale {
		t.Error("junk scale not rejected")
	}
	t.Setenv("PJDS_SCALE", "7")
	if ScaleFromEnv() != DefaultScale {
		t.Error("out-of-range scale not rejected")
	}
	os.Unsetenv("PJDS_SCALE")
}

func TestEffectiveScale(t *testing.T) {
	uhbr, err := matgen.ByName("UHBR")
	if err != nil {
		t.Fatal(err)
	}
	if got := EffectiveScale(uhbr, 1); got != 0.25 {
		t.Errorf("UHBR at scale 1 → %g, want the 0.25 memory gate", got)
	}
	if got := EffectiveScale(uhbr, -1); got != 1 {
		t.Errorf("forced scale = %g", got)
	}
	if got := EffectiveScale(uhbr, 0.1); got != 0.1 {
		t.Errorf("small scale clipped: %g", got)
	}
	dlr1, _ := matgen.ByName("DLR1")
	if got := EffectiveScale(dlr1, 0); got != DefaultScale {
		t.Errorf("zero request = %g", got)
	}
	if got := EffectiveScale(dlr1, 5); got != 1 {
		t.Errorf("oversized request = %g", got)
	}
}

func TestMatrixCache(t *testing.T) {
	a, err := Matrix("sAMG", tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Matrix("sAMG", tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache miss on identical request")
	}
	DropCached("sAMG", tinyScale)
	c, err := Matrix("sAMG", tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("DropCached had no effect")
	}
	if !a.Equal(c, 0) {
		t.Error("regenerated matrix differs (determinism broken)")
	}
	if _, err := Matrix("nope", 1); err == nil {
		t.Error("unknown matrix accepted")
	}
}

func TestMatrixDiskCache(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("PJDS_CACHE_DIR", dir)
	DropCached("sAMG", 0.004)
	a, err := Matrix("sAMG", 0.004)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the in-memory copy; the next call must hit the disk cache.
	DropCached("sAMG", 0.004)
	b, err := Matrix("sAMG", 0.004)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("in-memory cache not dropped")
	}
	if !a.Equal(b, 0) {
		t.Fatal("disk cache returned a different matrix")
	}
	// The cache file exists and is non-trivial.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache file written: %v", err)
	}
	DropCached("sAMG", 0.004)
	os.Unsetenv("PJDS_CACHE_DIR")
}

func TestRunTable1SmallScale(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunTable1(tinyScale, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		// Every GF/s cell positive, ECC off ≥ ECC on, SP ≥ DP.
		cells := map[string]float64{
			"SP0R": r.SP.ECCOff.ELLPACKR.GFlops, "SP0P": r.SP.ECCOff.PJDS.GFlops,
			"SP1R": r.SP.ECCOn.ELLPACKR.GFlops, "SP1P": r.SP.ECCOn.PJDS.GFlops,
			"DP0R": r.DP.ECCOff.ELLPACKR.GFlops, "DP0P": r.DP.ECCOff.PJDS.GFlops,
			"DP1R": r.DP.ECCOn.ELLPACKR.GFlops, "DP1P": r.DP.ECCOn.PJDS.GFlops,
		}
		for k, v := range cells {
			if v <= 0 {
				t.Errorf("%s: cell %s = %g", r.Matrix, k, v)
			}
		}
		if cells["SP0R"] < cells["SP1R"] || cells["DP0P"] < cells["DP1P"] {
			t.Errorf("%s: ECC off slower than on", r.Matrix)
		}
		if cells["SP1R"] < cells["DP1R"] {
			t.Errorf("%s: SP slower than DP", r.Matrix)
		}
		// pJDS within (a loosened version of) the paper's 91%–130%
		// band of ELLPACK-R. At this tiny test scale the RHS vector
		// fits the L2 almost entirely, which flatters ELLPACK-R's
		// cache reuse; the scale-0.1 benchmark lands at 0.95–1.27.
		ratio := cells["DP1P"] / cells["DP1R"]
		if ratio < 0.78 || ratio > 1.45 {
			t.Errorf("%s: pJDS/ELLPACK-R DP ratio %.2f outside [0.78, 1.45]", r.Matrix, ratio)
		}
		// GPU beats the Westmere node in DP for all Table I matrices.
		if best := math.Max(cells["DP1R"], cells["DP1P"]); best < r.Westmere.GFlops {
			t.Errorf("%s: GPU DP %.1f below Westmere %.1f", r.Matrix, best, r.Westmere.GFlops)
		}
		// pJDS padding overhead must be far below 1% (paper: <0.01%).
		if r.PJDSOverheadPct > 0.5 {
			t.Errorf("%s: pJDS overhead %.3f%%", r.Matrix, r.PJDSOverheadPct)
		}
		if math.Abs(r.DataReductionPct-r.PaperReductionPct) > 7 && r.PaperReductionPct > 0 {
			t.Errorf("%s: reduction %.1f%% vs paper %.1f%%", r.Matrix, r.DataReductionPct, r.PaperReductionPct)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "pJDS") {
		t.Error("render missing labels")
	}
}

func TestTable1DLR2FitsOnlyPJDS(t *testing.T) {
	// E11: in DP with ECC, full-size DLR2 fits a C2050 only as pJDS.
	m, err := Matrix("DLR2", tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	row, err := table1Row("DLR2", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if row.FitsC2050ELLPACKR {
		t.Error("DLR2 as ELLPACK-R should NOT fit the C2050")
	}
	if !row.FitsC2050PJDS {
		t.Error("DLR2 as pJDS should fit the C2050")
	}
}

func TestRunFig2(t *testing.T) {
	var buf bytes.Buffer
	rows, err := RunFig2("sAMG", tinyScale, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Fig. 2 ordering: ELLPACK stores most, pJDS least; pJDS has the
	// best lane efficiency.
	if rows[0].StoredElems < rows[1].StoredElems || rows[1].StoredElems <= rows[2].StoredElems {
		t.Errorf("stored ordering: %v", rows)
	}
	if rows[2].LaneEfficiency <= rows[1].LaneEfficiency {
		t.Errorf("pJDS lane efficiency %.2f not above ELLPACK-R %.2f",
			rows[2].LaneEfficiency, rows[1].LaneEfficiency)
	}
	if !strings.Contains(buf.String(), "Fig. 2") {
		t.Error("render label missing")
	}
}

func TestRunFig3(t *testing.T) {
	var buf bytes.Buffer
	entries, err := RunFig3(tinyScale, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("%d entries", len(entries))
	}
	for _, e := range entries {
		if e.Histogram.Total != e.N {
			t.Errorf("%s: histogram mass %d != N %d", e.Matrix, e.Histogram.Total, e.N)
		}
	}
	// Relative N_nzr ordering across matrices matches Fig. 3: DLR2 >
	// DLR1 > HMEp > sAMG.
	m := map[string]float64{}
	for _, e := range entries {
		m[e.Matrix] = e.Histogram.Mean()
	}
	if !(m["DLR2"] > m["DLR1"] && m["DLR1"] > m["HMEp"] && m["HMEp"] > m["sAMG"]) {
		t.Errorf("mean ordering wrong: %v", m)
	}
}

func TestRunFig5SmallDLR1(t *testing.T) {
	var buf bytes.Buffer
	points, err := RunFig5(Fig5Config{
		Matrix: "DLR1", Scale: tinyScale, Nodes: []int{1, 2, 4}, Iterations: 1,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 9 { // 3 nodes × 3 modes
		t.Fatalf("%d points", len(points))
	}
	byMode := map[distmv.Mode][]ScalingPoint{}
	for _, p := range points {
		byMode[p.Mode] = append(byMode[p.Mode], p)
		if p.MaxRelError > 1e-9 {
			t.Errorf("P=%d %v: error %g", p.Nodes, p.Mode, p.MaxRelError)
		}
	}
	// Aggregate performance grows with node count in task mode at
	// these small counts.
	tm := byMode[distmv.TaskMode]
	for i := 1; i < len(tm); i++ {
		if tm[i].GFlops <= tm[i-1].GFlops {
			t.Errorf("task mode not scaling: %v", tm)
		}
	}
	if !strings.Contains(buf.String(), "Fig. 5") {
		t.Error("plot label missing")
	}
}

func TestRunFig5SkipsWhenTooBigForDevice(t *testing.T) {
	// A device too small for P=1 but big enough for P=4: the harness
	// must skip the small counts with a note, as Fig. 5b does for UHBR.
	m, err := Matrix("DLR1", tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	need := func(p int) int64 {
		pt, err := distmv.PartitionByNnz(m, p)
		if err != nil {
			t.Fatal(err)
		}
		probs, err := distmv.Distribute(m, pt)
		if err != nil {
			t.Fatal(err)
		}
		reports, _ := distmv.CheckFit(probs, gpu.TeslaC2050(), distmv.FormatELLPACKR)
		var max int64
		for _, r := range reports {
			if r.FootprintBytes > max {
				max = r.FootprintBytes
			}
		}
		return max
	}
	need1, need4 := need(1), need(4)
	if need4 >= need1 {
		t.Fatalf("fixture broken: P=4 needs %d ≥ P=1 %d", need4, need1)
	}
	tiny := gpu.TeslaC2050()
	// Usable memory lands midway between the two demands.
	tiny.MemBytes = (distmv.DeviceReserveBytes + (need1+need4)/2) * 8 / 7
	var buf bytes.Buffer
	points, err := RunFig5(Fig5Config{
		Matrix: "DLR1", Scale: tinyScale, Nodes: []int{1, 4}, Iterations: 1,
		Device: tiny,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Nodes == 1 {
			t.Fatalf("P=1 should have been skipped: %+v", p)
		}
	}
	if len(points) != 3 {
		t.Fatalf("%d points, want 3 (P=4 only)", len(points))
	}
	if !strings.Contains(buf.String(), "does not fit") {
		t.Error("skip note missing")
	}
}

func TestRunWeakScaling(t *testing.T) {
	var buf bytes.Buffer
	points, err := RunWeakScaling(WeakConfig{
		Matrix: "DLR1", BaseScale: 0.01, Nodes: []int{1, 2, 4}, Iterations: 1,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 9 {
		t.Fatalf("%d points", len(points))
	}
	for _, p := range points {
		if p.Nodes == 1 && math.Abs(p.Efficiency-1) > 1e-12 {
			t.Errorf("%v: baseline efficiency %.3f", p.Mode, p.Efficiency)
		}
		if p.Efficiency <= 0 || p.Efficiency > 1.2 {
			t.Errorf("P=%d %v: efficiency %.3f out of range", p.Nodes, p.Mode, p.Efficiency)
		}
	}
	// The matrix grows with P.
	if points[0].GlobalNnz >= points[len(points)-1].GlobalNnz {
		t.Error("problem size did not grow with node count")
	}
	if !strings.Contains(buf.String(), "Weak scaling") {
		t.Error("plot label missing")
	}
}

// TestRunFig4Timeline pins the Fig. 4 Gantt byte for byte: the spans
// distmv.Fig4Spans selects, their order and their virtual times.
func TestRunFig4Timeline(t *testing.T) {
	var buf bytes.Buffer
	events, err := RunFig4Timeline("DLR1", tinyScale, 4, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 8 {
		t.Fatalf("%d events, want 8", len(events))
	}
	want, err := os.ReadFile(filepath.Join("testdata", "fig4_dlr1_p4.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Fig. 4 timeline drifted from testdata/fig4_dlr1_p4.golden:\n got:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestRunFig5Golden pins Fig. 5's text byte for byte: every scaling
// point's virtual GF/s and time per iteration, in both device formats,
// and the plots drawn from them.
func TestRunFig5Golden(t *testing.T) {
	var buf bytes.Buffer
	for _, f := range []distmv.FormatKind{distmv.FormatELLPACKR, distmv.FormatPJDS} {
		if _, err := RunFig5(Fig5Config{
			Matrix: "DLR1", Scale: tinyScale, Nodes: []int{1, 2, 4, 8}, Iterations: 1, Format: f,
		}, &buf); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "fig5_dlr1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Fig. 5 drifted from testdata/fig5_dlr1.golden:\n got:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestRunSec2B(t *testing.T) {
	var buf bytes.Buffer
	rep, err := RunSec2B(tinyScale, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// The four §II-B numbers.
	if math.Abs(rep.MaxNnzr50WorstCase-25) > 1.5 {
		t.Errorf("Eq.3 worst case %.1f, want ≈25", rep.MaxNnzr50WorstCase)
	}
	if math.Abs(rep.MaxNnzr50Alpha1-7.2) > 0.5 {
		t.Errorf("Eq.3 alpha=1 %.1f, want ≈7", rep.MaxNnzr50Alpha1)
	}
	if math.Abs(rep.MinNnzr10Alpha1-79.2) > 1.5 {
		t.Errorf("Eq.4 alpha=1 %.1f, want ≈80", rep.MinNnzr10Alpha1)
	}
	if math.Abs(rep.MinNnzr10WorstCase-265) > 3 {
		t.Errorf("Eq.4 worst case %.1f, want ≈266", rep.MinNnzr10WorstCase)
	}
	// Measured PCIe impact: HMEp and sAMG suffer much more than DLR1
	// and UHBR (the §II-B verdict).
	pen := map[string]float64{}
	for _, e := range rep.Effective {
		pen[e.Matrix] = e.PenaltyPct
		if e.WithPCIGFlops >= e.KernelGFlops {
			t.Errorf("%s: PCIe made it faster?", e.Matrix)
		}
	}
	if pen["HMEp"] < pen["DLR1"] || pen["sAMG"] < pen["UHBR"] {
		t.Errorf("penalty ordering wrong: %v", pen)
	}
	if pen["sAMG"] < 30 {
		t.Errorf("sAMG penalty %.0f%%, expected PCIe-dominated", pen["sAMG"])
	}
	if pen["DLR1"] > 35 {
		t.Errorf("DLR1 penalty %.0f%%, expected moderate", pen["DLR1"])
	}
}

func TestFig1Demo(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig1Demo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. 1", "col_start", "stored elements: 28"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestAblations(t *testing.T) {
	var buf bytes.Buffer
	l2, err := AblationL2("sAMG", tinyScale, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(l2) != 3 {
		t.Fatalf("L2 ablation: %d points", len(l2))
	}
	// No cache must be slowest and have the largest alpha.
	if l2[2].GFlops >= l2[0].GFlops || l2[2].Extra <= l2[0].Extra {
		t.Errorf("no-cache point not worst: %+v", l2)
	}

	sw, err := AblationSortWindow("sAMG", tinyScale, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Padding overhead decreases monotonically with sigma.
	for i := 1; i < len(sw); i++ {
		if sw[i].Extra > sw[i-1].Extra+1e-12 {
			t.Errorf("overhead not decreasing with sigma: %+v", sw)
		}
	}

	bh, err := AblationBlockHeight("sAMG", tinyScale, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Padding overhead grows with br; br=1 has none.
	if bh[0].Extra != 0 {
		t.Errorf("JDS (br=1) overhead %g", bh[0].Extra)
	}
	if bh[len(bh)-1].Extra <= bh[1].Extra {
		t.Errorf("overhead not growing with br: %+v", bh)
	}

	mp, err := AblationMPIProgress("DLR1", tinyScale, 4, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if mp[1].GFlops < mp[0].GFlops {
		t.Errorf("async progress slower: %+v", mp)
	}

	oc, err := AblationOccupancy("DLR1", tinyScale, 4, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if oc[1].GFlops < oc[0].GFlops {
		t.Errorf("disabling occupancy derating slowed things down: %+v", oc)
	}
	if !strings.Contains(buf.String(), "Ablation:") {
		t.Error("ablation render missing")
	}
}

func TestAblationRCM(t *testing.T) {
	var buf bytes.Buffer
	// A banded matrix behind a random permutation: RCM recovers the
	// hidden locality.
	pts, err := AblationRCM("scrambled", tinyScale, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[1].Extra >= pts[0].Extra {
		t.Errorf("RCM did not reduce alpha: %.2f → %.2f", pts[0].Extra, pts[1].Extra)
	}
	if pts[1].GFlops <= pts[0].GFlops {
		t.Errorf("RCM did not help: %.2f → %.2f GF/s", pts[0].GFlops, pts[1].GFlops)
	}
}

func TestRunFormatComparison(t *testing.T) {
	var buf bytes.Buffer
	cells, err := RunFormatComparison(tinyScale, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// 4 matrices × 10 formats.
	if len(cells) != 40 {
		t.Fatalf("%d cells", len(cells))
	}
	byKey := map[string]ComparisonCell{}
	for _, c := range cells {
		if c.GFlops <= 0 || c.StoredRatio < 1 {
			t.Errorf("%s/%s: degenerate cell %+v", c.Matrix, c.Format, c)
		}
		byKey[c.Matrix+"/"+c.Format] = c
	}
	for _, name := range Table1Matrices() {
		// pJDS stores no more than the sorted sliced variant, which
		// stores no more than the unsorted one, which stores no more
		// than ELLPACK; JDS is the floor.
		pj := byKey[name+"/pJDS"].StoredRatio
		sorted := byKey[name+"/sliced-ELL-sorted(sigma=4096)"].StoredRatio
		unsorted := byKey[name+"/sliced-ELL"].StoredRatio
		ell := byKey[name+"/ELLPACK"].StoredRatio
		jds := byKey[name+"/JDS"].StoredRatio
		if !(jds <= pj+1e-9 && pj <= sorted+1e-9 && sorted <= unsorted+1e-9 && unsorted <= ell+1e-9) {
			t.Errorf("%s: storage ordering violated: JDS %.3f pJDS %.3f sorted %.3f unsorted %.3f ELLPACK %.3f",
				name, jds, pj, sorted, unsorted, ell)
		}
		// Plain ELLPACK is never the fastest.
		if byKey[name+"/ELLPACK"].GFlops > byKey[name+"/ELLPACK-R"].GFlops {
			t.Errorf("%s: plain ELLPACK beat ELLPACK-R", name)
		}
	}
	if !strings.Contains(buf.String(), "outlook") {
		t.Error("render label missing")
	}
}

func TestAblationPartition(t *testing.T) {
	var buf bytes.Buffer
	pts, err := AblationPartition(tinyScale, 6, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	// nnz-balanced has (near-)unit nnz imbalance; the other two trade
	// nnz imbalance for occupancy or locality.
	if pts[0].Extra > 1.4 {
		t.Errorf("nnz-balanced imbalance %.2f", pts[0].Extra)
	}
	if pts[1].Extra <= pts[0].Extra {
		t.Errorf("row partitioning not more nnz-imbalanced: %.2f vs %.2f", pts[1].Extra, pts[0].Extra)
	}
	for _, p := range pts {
		if p.GFlops <= 0 {
			t.Errorf("%s: no performance", p.Setting)
		}
	}
	// The strategies must differ measurably (see the AblationPartition
	// doc comment for which wins where); a no-op ablation is a bug.
	ratio := pts[0].GFlops / pts[1].GFlops
	if ratio > 0.97 && ratio < 1.03 {
		t.Errorf("partitioning choice had no effect: %.2f vs %.2f GF/s", pts[0].GFlops, pts[1].GFlops)
	}
}

func TestAblationELLRT(t *testing.T) {
	var buf bytes.Buffer
	pts, err := AblationELLRT("sAMG", tinyScale, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("%d points", len(pts))
	}
	// pJDS stores less than every ELLR-T variant on sAMG.
	pj := pts[len(pts)-1]
	for _, p := range pts[:4] {
		if pj.Extra >= p.Extra {
			t.Errorf("pJDS stored/nnz %.2f not below %s %.2f", pj.Extra, p.Setting, p.Extra)
		}
	}
}

// TestRunHostBenchDigestsAgree: the host benchmark measures every kind
// on every matrix, one row per (matrix, kind) with a positive best
// apply, and every kind of a matrix reproduces the same result bits.
func TestRunHostBenchDigestsAgree(t *testing.T) {
	names := []string{"sAMG", "HMEp"}
	var out bytes.Buffer
	res, err := RunHostBench(names, 0.003, 2, 1, &out)
	if err != nil {
		t.Fatal(err)
	}
	kinds := hostkernel.Kinds()
	if len(res.Rows) != len(names)*len(kinds) {
		t.Fatalf("%d rows, want %d matrices × %d kinds", len(res.Rows), len(names), len(kinds))
	}
	digests := map[string]string{}
	for i, r := range res.Rows {
		if want := names[i/len(kinds)]; r.Matrix != want || r.Kernel != string(kinds[i%len(kinds)]) {
			t.Fatalf("row %d is (%s, %s), want (%s, %s)", i, r.Matrix, r.Kernel, want, kinds[i%len(kinds)])
		}
		if r.Best <= 0 || r.Spread < 0 {
			t.Errorf("%s %s: best %v, spread %v", r.Matrix, r.Kernel, r.Best, r.Spread)
		}
		if d, ok := digests[r.Matrix]; ok && d != r.Digest {
			t.Errorf("%s: %s digest %s differs from %s", r.Matrix, r.Kernel, r.Digest, d)
		}
		digests[r.Matrix] = r.Digest
		if line := "digest " + r.Matrix + " " + r.Kernel + " " + r.Digest + "\n"; !strings.Contains(out.String(), line) {
			t.Errorf("output lacks %q", line)
		}
	}
}
