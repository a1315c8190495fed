package matrix

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refToCSR is an independent reference for the counting-pass assembly:
// a stable sort by (row, col) followed by an insertion-order duplicate
// sum — the semantics ToCSR documents.
func refToCSR(m *COO[float64]) *CSR[float64] {
	type ent struct {
		row int
		col int32
		val float64
		pos int
	}
	es := make([]ent, len(m.Entries))
	for k, e := range m.Entries {
		es[k] = ent{e.Row, int32(e.Col), e.Val, k}
	}
	sort.SliceStable(es, func(a, b int) bool {
		if es[a].row != es[b].row {
			return es[a].row < es[b].row
		}
		return es[a].col < es[b].col
	})
	out := &CSR[float64]{NRows: m.Rows, NCols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for k := 0; k < len(es); {
		j := k + 1
		sum := es[k].val
		for j < len(es) && es[j].row == es[k].row && es[j].col == es[k].col {
			sum += es[j].val
			j++
		}
		out.RowPtr[es[k].row+1]++
		out.ColIdx = append(out.ColIdx, es[k].col)
		out.Val = append(out.Val, sum)
		k = j
	}
	for i := 0; i < m.Rows; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	return out
}

// randomCOO builds a random COO with a controllable duplicate rate.
func randomCOO(rows, cols, n int, dupRate float64, seed int64) *COO[float64] {
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO[float64](rows, cols)
	for k := 0; k < n; k++ {
		if dupRate > 0 && len(coo.Entries) > 0 && rng.Float64() < dupRate {
			// Duplicate an earlier coordinate with a new value.
			e := coo.Entries[rng.Intn(len(coo.Entries))]
			coo.Add(e.Row, e.Col, rng.NormFloat64())
			continue
		}
		coo.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
	}
	return coo
}

// csrBitIdentical fails unless a and b match exactly (structure and
// bit-for-bit values).
func csrBitIdentical(t *testing.T, label string, a, b *CSR[float64]) {
	t.Helper()
	if !reflect.DeepEqual(a.RowPtr, b.RowPtr) || !reflect.DeepEqual(a.ColIdx, b.ColIdx) {
		t.Fatalf("%s: structure differs", label)
	}
	for k := range a.Val {
		if a.Val[k] != b.Val[k] {
			t.Fatalf("%s: Val[%d] = %v vs %v", label, k, a.Val[k], b.Val[k])
		}
	}
	if a.NRows != b.NRows || a.NCols != b.NCols {
		t.Fatalf("%s: shape differs", label)
	}
}

func TestToCSROptMatchesReference(t *testing.T) {
	for _, dup := range []float64{0, 0.3} {
		coo := randomCOO(60, 40, 500, dup, 11+int64(dup*10))
		want := refToCSR(coo)
		got := coo.ToCSR()
		csrBitIdentical(t, "ToCSR vs reference", want, got)
	}
}

// TestToCSROptWorkerDeterminism is the tentpole guarantee: the
// parallel assembly is bit-identical to the sequential one for every
// worker count, duplicates included.
func TestToCSROptWorkerDeterminism(t *testing.T) {
	coo := randomCOO(100, 80, 2000, 0.25, 42)
	base := coo.ToCSROpt(ConvertOptions{Workers: 1})
	for w := 1; w <= 8; w++ {
		got := coo.ToCSROpt(ConvertOptions{Workers: w, ForceParallel: true})
		csrBitIdentical(t, "workers", base, got)
	}
}

func TestToCSROptArenaReuse(t *testing.T) {
	arena := NewArena()
	coo := randomCOO(50, 50, 800, 0.2, 7)
	want := coo.ToCSR()
	// A sweep-style loop: same conversion through one arena, resetting
	// between iterations, must not corrupt results.
	for iter := 0; iter < 3; iter++ {
		arena.Reset()
		got := coo.ToCSROpt(ConvertOptions{Workers: 3, Arena: arena, ForceParallel: true})
		csrBitIdentical(t, "arena reuse", want, got)
	}
}

func TestToCSROptEmptyAndEdge(t *testing.T) {
	empty := NewCOO[float64](4, 4)
	m := empty.ToCSROpt(ConvertOptions{Workers: 4, ForceParallel: true})
	if m.Nnz() != 0 || m.NRows != 4 {
		t.Fatalf("empty: nnz=%d rows=%d", m.Nnz(), m.NRows)
	}
	zero := NewCOO[float64](0, 0)
	z := zero.ToCSR()
	if z.NRows != 0 || z.Nnz() != 0 {
		t.Fatalf("zero-size: %dx%d nnz=%d", z.NRows, z.NCols, z.Nnz())
	}
}

func TestSortRowsByLengthDescOptDeterminism(t *testing.T) {
	m := randomCSR(300, 50, 0.08, 5)
	base := SortRowsByLengthDesc(m)
	if !base.Valid() {
		t.Fatal("invalid permutation")
	}
	for w := 1; w <= 8; w++ {
		got := SortRowsByLengthDescOpt(m, ConvertOptions{Workers: w, ForceParallel: true})
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d: permutation differs", w)
		}
	}
	// Stability: descending lengths, ascending index on ties.
	for k := 1; k < len(base); k++ {
		la, lb := m.RowLen(base[k-1]), m.RowLen(base[k])
		if la < lb || (la == lb && base[k-1] > base[k]) {
			t.Fatalf("order violated at %d: rows %d(len %d), %d(len %d)", k, base[k-1], la, base[k], lb)
		}
	}
}

func TestSortRangeByLengthDesc(t *testing.T) {
	m := randomCSR(97, 30, 0.1, 9)
	lens := make([]int, m.NRows)
	maxLen := 0
	for i := range lens {
		lens[i] = m.RowLen(i)
		if lens[i] > maxLen {
			maxLen = lens[i]
		}
	}
	p := Identity(m.NRows)
	count := make([]int, maxLen+2)
	for lo := 0; lo < m.NRows; lo += 20 {
		hi := lo + 20
		if hi > m.NRows {
			hi = m.NRows
		}
		SortRangeByLengthDesc(lens, lo, hi, p, count)
	}
	if !p.Valid() {
		t.Fatal("invalid permutation")
	}
	// Window-local order must match the global sort of that row slice.
	for lo := 0; lo < m.NRows; lo += 20 {
		hi := lo + 20
		if hi > m.NRows {
			hi = m.NRows
		}
		// The sort reads row lengths only, so the window's row pointers
		// suffice.
		window := &CSR[float64]{NRows: hi - lo, NCols: m.NCols, RowPtr: m.RowPtr[lo : hi+1]}
		want := SortRowsByLengthDesc(window)
		for i, old := range want {
			if p[lo+i] != lo+old {
				t.Fatalf("window [%d,%d): p[%d] = %d, want %d", lo, hi, lo+i, p[lo+i], lo+old)
			}
		}
	}
}

func TestArena(t *testing.T) {
	a := NewArena()
	s1 := a.Int(10)
	s1[3] = 7
	s2 := a.Int(10) // second buffer must be distinct while s1 is live
	if &s1[0] == &s2[0] {
		t.Fatal("arena handed out the same buffer twice")
	}
	a.Reset()
	s3 := a.Int(5)
	for _, v := range s3 {
		if v != 0 {
			t.Fatal("recycled buffer not zeroed")
		}
	}
	// Nil arena falls back to make.
	var nilA *Arena
	if got := nilA.Int(4); len(got) != 4 {
		t.Fatal("nil arena Int")
	}
	if got := Floats[float64](nil, 3); len(got) != 3 {
		t.Fatal("nil arena Floats")
	}
	nilA.Reset() // must not panic
	if got := Floats[float32](a, 6); len(got) != 6 {
		t.Fatal("arena Floats[float32]")
	}
}
