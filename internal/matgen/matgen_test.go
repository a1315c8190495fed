package matgen

import (
	"math"
	"sort"
	"testing"

	"pjds/internal/core"
	"pjds/internal/matrix"
)

// Scaled-down generation keeps the tests fast; the distribution
// targets are scale-invariant by construction.
const testScale = 0.02

// rowLenQuantile returns the q-quantile (0 ≤ q ≤ 1) of m's row lengths,
// for generator targets such as "80% of the rows have a length of
// 0.8·N^max_nzr" (DLR1, §II-A).
func rowLenQuantile(m *matrix.CSR[float64], q float64) int {
	if m.NRows == 0 {
		return 0
	}
	lens := make([]int, m.NRows)
	for i := range lens {
		lens[i] = m.RowLen(i)
	}
	sort.Ints(lens)
	return lens[int(q*float64(len(lens)-1))]
}

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 5 {
		t.Fatalf("%d catalog entries, want 5", len(cat))
	}
	names := map[string]bool{}
	for _, tm := range cat {
		if tm.Name == "" || tm.Generate == nil || tm.PaperN <= 0 || tm.PaperNnz <= 0 {
			t.Errorf("incomplete entry %+v", tm.Name)
		}
		names[tm.Name] = true
	}
	for _, want := range []string{"DLR1", "DLR2", "HMEp", "sAMG", "UHBR"} {
		if !names[want] {
			t.Errorf("missing %s", want)
		}
	}
}

func TestByName(t *testing.T) {
	tm, err := ByName("dlr1")
	if err != nil || tm.Name != "DLR1" {
		t.Errorf("ByName(dlr1) = %v, %v", tm.Name, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, tm := range Catalog() {
		a := tm.Generate(0.005, 7)
		b := tm.Generate(0.005, 7)
		if !a.Equal(b, 0) {
			t.Errorf("%s: not deterministic in seed", tm.Name)
		}
		c := tm.Generate(0.005, 8)
		if a.Equal(c, 0) {
			t.Errorf("%s: seed has no effect", tm.Name)
		}
	}
}

// TestGeneratorTargets verifies every generator hits the published
// N_nzr and (where reported) the Table I data-reduction band.
func TestGeneratorTargets(t *testing.T) {
	for _, tm := range Catalog() {
		m := tm.Generate(testScale, 1)
		st := matrix.ComputeStats(m)
		// Dimension scales with the block size granularity.
		wantN := int(float64(tm.PaperN) * testScale)
		if math.Abs(float64(st.Rows-wantN))/float64(wantN) > 0.01 {
			t.Errorf("%s: N = %d, want ≈ %d", tm.Name, st.Rows, wantN)
		}
		if math.Abs(st.AvgRowLen-tm.PaperNnzr)/tm.PaperNnzr > 0.07 {
			t.Errorf("%s: N_nzr = %.1f, want ≈ %.1f", tm.Name, st.AvgRowLen, tm.PaperNnzr)
		}
		if math.IsNaN(tm.PaperReductionPct) {
			continue
		}
		ell := core.NewELLPACK(m, matrix.ConvertOptions{})
		p, err := core.NewPJDS(m, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		red := 100 * core.DataReduction[float64](ell, p)
		if math.Abs(red-tm.PaperReductionPct) > 6 {
			t.Errorf("%s: data reduction %.1f%%, paper says %.1f%%", tm.Name, red, tm.PaperReductionPct)
		}
	}
}

func TestHMEpOffDiagonals(t *testing.T) {
	m := HMEp(0.02, 3) // n ≈ 124032 > 3×15000: real off-diagonal distance
	n := m.NRows
	if n <= 45000 {
		t.Skip("scaled instance too small for the 15000 off-diagonal")
	}
	// A row in the middle must couple at exactly ±15000.
	found := 0
	for i := 40000; i < 40100; i++ {
		if m.At(i, i-15000) != 0 && m.At(i, i+15000) != 0 {
			found++
		}
	}
	if found < 90 {
		t.Errorf("only %d/100 rows carry the ±15000 off-diagonals", found)
	}
}

func TestSAMGShape(t *testing.T) {
	m := SAMG(testScale, 4)
	st := matrix.ComputeStats(m)
	if st.MinRowLen < 5 {
		t.Errorf("min row len = %d, want ≥ 5", st.MinRowLen)
	}
	if st.MaxRowLen != 22 {
		t.Errorf("max row len = %d, want 22", st.MaxRowLen)
	}
	// §II-A: "the longest row of sAMG is more than four times larger
	// than the smallest one".
	if st.RelativeWidth <= 4 {
		t.Errorf("relative width %.1f, want > 4", st.RelativeWidth)
	}
	// "short rows account for most of the weight": median at the
	// bottom of the range.
	if med := rowLenQuantile(m, 0.5); med > 7 {
		t.Errorf("median row length %d, want ≤ 7", med)
	}
}

func TestDLR1Shape(t *testing.T) {
	m := DLR1(testScale, 5)
	st := matrix.ComputeStats(m)
	// §II-A: relative width ≈ 2, 80% of rows ≥ 0.8·max.
	if st.RelativeWidth > 2.8 {
		t.Errorf("relative width %.2f, want ≈ 2", st.RelativeWidth)
	}
	q20 := rowLenQuantile(m, 0.2)
	if float64(q20) < 0.8*float64(st.MaxRowLen) {
		t.Errorf("20th percentile %d below 0.8·max (%d)", q20, st.MaxRowLen)
	}
	// 6 unknowns per point: row lengths are multiples of 6 and the six
	// rows of one point share a pattern.
	if st.MaxRowLen%6 != 0 || st.MinRowLen%6 != 0 {
		t.Errorf("row lengths not multiples of 6: min %d max %d", st.MinRowLen, st.MaxRowLen)
	}
	c0, _ := m.Row(0)
	c5, _ := m.Row(5)
	if len(c0) != len(c5) {
		t.Error("rows of one point differ in pattern length")
	}
	for k := range c0 {
		if c0[k] != c5[k] {
			t.Fatal("rows of one point differ in columns")
		}
	}
}

func TestDLR2DenseBlocks(t *testing.T) {
	m := DLR2(0.01, 6)
	// Every stored entry belongs to a fully dense 5×5 block.
	for i := 0; i < 25 && i < m.NRows; i++ {
		cols, _ := m.Row(i)
		for _, c := range cols {
			blockCol := int(c) / 5 * 5
			blockRow := i / 5 * 5
			for bi := blockRow; bi < blockRow+5; bi++ {
				for bj := blockCol; bj < blockCol+5; bj++ {
					if m.At(bi, bj) == 0 {
						t.Fatalf("entry (%d,%d) not inside a dense 5x5 block: (%d,%d) empty", i, c, bi, bj)
					}
				}
			}
		}
	}
}

func TestUHBRScaleDefault(t *testing.T) {
	tm, err := ByName("UHBR")
	if err != nil {
		t.Fatal(err)
	}
	if tm.DefaultScale >= 1 {
		t.Error("UHBR must default to a reduced scale (memory gate, DESIGN.md)")
	}
	m := UHBR(0.004, 7)
	st := matrix.ComputeStats(m)
	if math.Abs(st.AvgRowLen-123)/123 > 0.07 {
		t.Errorf("UHBR N_nzr = %.1f", st.AvgRowLen)
	}
}

func TestDiagonalAlwaysPresent(t *testing.T) {
	for _, tm := range Catalog() {
		m := tm.Generate(0.005, 9)
		for i := 0; i < m.NRows; i += m.NRows/50 + 1 {
			if m.At(i, i) == 0 {
				t.Errorf("%s: zero diagonal at row %d", tm.Name, i)
				break
			}
		}
	}
}

func TestBandedGenerator(t *testing.T) {
	m := Banded(1000, 3, 9, 20, 11)
	st := matrix.ComputeStats(m)
	if st.MinRowLen < 1 || st.MaxRowLen > 9 {
		t.Errorf("row lengths [%d,%d] outside [1,9]", st.MinRowLen, st.MaxRowLen)
	}
	// Locality: average column span within the (wrapped) band.
	if st.AvgColSpan > 990 {
		t.Errorf("avg col span %.0f: band not local", st.AvgColSpan)
	}
	// Swapped min/max are tolerated.
	m2 := Banded(100, 9, 3, 20, 11)
	if matrix.ComputeStats(m2).MaxRowLen > 9 {
		t.Error("swapped bounds mishandled")
	}
}

func TestRandomGenerator(t *testing.T) {
	m := Random(2000, 5, 10, 13)
	st := matrix.ComputeStats(m)
	if st.AvgRowLen < 5 || st.AvgRowLen > 10 {
		t.Errorf("avg row len %.1f", st.AvgRowLen)
	}
	// Uniform columns → huge spans.
	if st.AvgColSpan < 1000 {
		t.Errorf("avg col span %.0f: expected scattered columns", st.AvgColSpan)
	}
}

func TestPowerLawGenerator(t *testing.T) {
	m := PowerLaw(5000, 4, 400, 4, 17)
	st := matrix.ComputeStats(m)
	if st.MaxRowLen < 100 {
		t.Errorf("max row len %d: power law tail missing", st.MaxRowLen)
	}
	med := rowLenQuantile(m, 0.5)
	if med > 30 {
		t.Errorf("median %d: mass should sit at short rows", med)
	}
	// Degenerate exponent falls back.
	if matrix.ComputeStats(PowerLaw(100, 4, 40, -1, 17)).Rows != 100 {
		t.Error("fallback exponent")
	}
}

func TestStencil3D(t *testing.T) {
	m := Stencil3D(5, 6, 7)
	if m.NRows != 210 {
		t.Fatalf("N = %d", m.NRows)
	}
	// Interior rows have 7 entries; the (0,0,0) corner has 4.
	if m.RowLen(0) != 4 {
		t.Errorf("corner row len = %d", m.RowLen(0))
	}
	// Interior index (2,3,3): (3*6+3)*5+2 = 107.
	if m.RowLen(107) != 7 {
		t.Errorf("interior row len = %d", m.RowLen(107))
	}
	if !m.Equal(m.Transpose(), 0) {
		t.Error("3D stencil not symmetric")
	}
	// Row sums: interior rows sum to 0 (Laplacian), boundaries > 0.
	_, vals := m.Row(107)
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if math.Abs(sum) > 1e-12 {
		t.Errorf("interior row sum = %g", sum)
	}
}

func TestStencil2D(t *testing.T) {
	m := Stencil2D(10, 8)
	if m.NRows != 80 {
		t.Fatalf("N = %d", m.NRows)
	}
	// Interior rows have 5 entries, corners 3.
	if m.RowLen(0) != 3 {
		t.Errorf("corner row len = %d", m.RowLen(0))
	}
	if m.RowLen(45) != 5 {
		t.Errorf("interior row len = %d", m.RowLen(45))
	}
	// Symmetric positive definite: x^T A x > 0 for a few random x.
	x := make([]float64, 80)
	y := make([]float64, 80)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	if err := m.MulVec(y, x); err != nil {
		t.Fatal(err)
	}
	dot := 0.0
	for i := range x {
		dot += x[i] * y[i]
	}
	if dot <= 0 {
		t.Errorf("x^T A x = %g, want > 0", dot)
	}
	// Symmetry.
	tr := m.Transpose()
	if !m.Equal(tr, 0) {
		t.Error("stencil not symmetric")
	}
}
