package hostkernel

import (
	"math"
	"runtime"
	"testing"
	"time"

	"pjds/internal/core"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/telemetry"
)

// testMatrices returns a spread of shapes: banded, power-law (the
// jagged row-length distribution pJDS targets), a matrix with empty
// rows at the tail, and tiny degenerate shapes.
func testMatrices(t testing.TB) map[string]*matrix.CSR[float64] {
	t.Helper()
	ms := map[string]*matrix.CSR[float64]{
		"banded":   matgen.Banded(500, 3, 24, 40, 7),
		"powerlaw": matgen.PowerLaw(400, 2, 60, 0.6, 11),
		"random":   matgen.Random(300, 2, 9, 13),
	}
	// Empty rows at the tail plus one dominant row, rectangular.
	coo := matrix.NewCOO[float64](64, 80)
	for j := 0; j < 80; j++ {
		coo.Add(5, j, float64(j)+0.25)
	}
	coo.Add(0, 0, 1)
	coo.Add(17, 3, -2.5)
	ms["spike"] = coo.ToCSR()
	ms["empty"] = matrix.NewCOO[float64](10, 10).ToCSR()
	return ms
}

func testX(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(0.1*float64(i)) - 0.5
	}
	return x
}

// TestKernelsBitIdenticalToNaive is the core contract: every kernel
// kind, at workers 1, 2, 4 and 8, both MulVec and MulVecAdd, must
// reproduce the matrix.CSR reference bit for bit.
func TestKernelsBitIdenticalToNaive(t *testing.T) {
	for name, m := range testMatrices(t) {
		x := testX(m.NCols)
		ref := make([]float64, m.NRows)
		if err := m.MulVec(ref, x); err != nil {
			t.Fatal(err)
		}
		refAdd := make([]float64, m.NRows)
		for i := range refAdd {
			refAdd[i] = float64(i%5) - 2
		}
		seed := append([]float64(nil), refAdd...)
		if err := m.MulVecAdd(refAdd, x); err != nil {
			t.Fatal(err)
		}
		for _, kind := range Kinds() {
			for _, workers := range []int{1, 2, 4, 8} {
				k, err := New(kind, m, Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s/%s: %v", name, kind, err)
				}
				y := make([]float64, m.NRows)
				if err := k.MulVec(y, x); err != nil {
					t.Fatalf("%s/%s workers=%d: %v", name, kind, workers, err)
				}
				for i := range y {
					if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("%s/%s workers=%d: y[%d] = %v, reference %v",
							name, kind, workers, i, y[i], ref[i])
					}
				}
				copy(y, seed)
				if err := k.MulVecAdd(y, x); err != nil {
					t.Fatal(err)
				}
				for i := range y {
					if math.Float64bits(y[i]) != math.Float64bits(refAdd[i]) {
						t.Fatalf("%s/%s workers=%d: add y[%d] = %v, reference %v",
							name, kind, workers, i, y[i], refAdd[i])
					}
				}
				k.Close()
			}
		}
	}
}

// TestDroppedKernelReleasesPool: a pooled kernel dropped without Close
// has its worker goroutines stopped by its finalizer.
func TestDroppedKernelReleasesPool(t *testing.T) {
	m := matgen.Banded(2000, 3, 10, 100, 1)
	before := runtime.NumGoroutine()
	for _, kind := range Kinds() {
		if _, err := New(kind, m, Options{Workers: 4}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after dropping the kernels, %d before", n, before)
	}
}

// TestClosedKernelFreedByOneCollection: Close disarms the finalizer,
// so a closed kernel and the matrix it reads are freed by the first
// collection after they become unreachable. An armed finalizer would
// keep both until a collection after it has run.
func TestClosedKernelFreedByOneCollection(t *testing.T) {
	for _, kind := range Kinds() {
		freed := make(chan struct{})
		func() {
			m := matgen.Banded(2000, 3, 10, 100, 1)
			runtime.SetFinalizer(&m.Val[0], func(*float64) { close(freed) })
			k, err := New(kind, m, Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			k.Close()
		}()
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: the matrix of a closed kernel outlived a collection", kind)
		}
	}
}

// TestPJDSKernelMatchesMulVecPermuted checks the pJDS host kernel
// against core's Listing-2 reference in the permuted basis.
func TestPJDSKernelMatchesMulVecPermuted(t *testing.T) {
	m := matgen.PowerLaw(350, 350, 8, 0.7, 5)
	p, err := core.NewPJDS(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := testX(m.NCols)
	ref := make([]float64, p.N)
	if err := p.MulVecPermuted(ref, x); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		k := NewPJDS(p, Options{Workers: workers})
		y := make([]float64, p.N)
		if err := k.MulVec(y, x); err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("workers=%d: yp[%d] = %v, reference %v", workers, i, y[i], ref[i])
			}
		}
		// Add variant: yp += Ap·xp.
		want := append([]float64(nil), ref...)
		for i := range want {
			want[i] += ref[i]
		}
		if err := k.MulVecAdd(y, x); err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: add yp[%d] = %v, want %v", workers, i, y[i], want[i])
			}
		}
		k.Close()
	}
}

func TestKernelShapeErrors(t *testing.T) {
	m := matgen.Banded(50, 2, 6, 100, 1)
	for _, kind := range Kinds() {
		k, err := New(kind, m, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, m.NRows)
		if err := k.MulVec(y, make([]float64, m.NCols+1)); err == nil {
			t.Fatalf("%s: no error for wrong |x|", kind)
		}
		if err := k.MulVecAdd(make([]float64, m.NRows-1), make([]float64, m.NCols)); err == nil {
			t.Fatalf("%s: no error for wrong |y|", kind)
		}
		k.Close()
	}
}

func TestParseKindAndDefault(t *testing.T) {
	if _, err := ParseKind("warp"); err == nil {
		t.Fatal("ParseKind accepted an unknown kind")
	}
	if k, err := ParseKind("sell"); err != nil || k != KindSELL {
		t.Fatalf("ParseKind(sell) = %v, %v", k, err)
	}
	want := KindBlocked
	if core.GroupKernel() {
		want = KindSELL
	}
	if got := DefaultKind(); got != want {
		t.Fatalf("DefaultKind() = %v, want %v (AVX-512 group kernel %v)", got, want, core.GroupKernel())
	}
	if err := SetDefaultKind(KindNaive); err != nil {
		t.Fatal(err)
	}
	if got := DefaultKind(); got != KindNaive {
		t.Fatalf("DefaultKind() = %v after SetDefaultKind(naive)", got)
	}
	if err := SetDefaultKind("bogus"); err == nil {
		t.Fatal("SetDefaultKind accepted an unknown kind")
	}
	if err := SetDefaultKind(want); err != nil {
		t.Fatal(err)
	}
}

// TestSELLKindRunsGroupKernel pins the sell kind's geometry to C = 8:
// core.SELL.MulRows runs its AVX-512 group kernel only for C a multiple
// of 8, and the default host kernel is only fast with it.
func TestSELLKindRunsGroupKernel(t *testing.T) {
	m := matgen.Banded(600, 3, 12, 40, 5)
	k, err := New(KindSELL, m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if got := k.(*kernel).format; got != "SELL-8-256" {
		t.Fatalf("New(sell) runs %s, want SELL-8-256", got)
	}
}

// TestChunksDegenerate is the satellite audit of the nnz-balanced
// schedule: workers > rows, empty rows at the tail, all non-zeros in
// one row, zero rows, and non-positive worker counts.
func TestChunksDegenerate(t *testing.T) {
	cases := []struct {
		name    string
		rowPtr  []int
		workers int
		want    []int
	}{
		{"even", []int{0, 2, 4, 6, 8}, 2, []int{0, 2, 4}},
		{"workers_gt_rows", []int{0, 1, 2}, 5, []int{0, 0, 0, 1, 1, 2}},
		{"workers_zero", []int{0, 3, 6}, 0, []int{0, 2}},
		{"workers_negative", []int{0, 3, 6}, -3, []int{0, 2}},
		{"no_rows", []int{0}, 4, []int{0, 0, 0, 0, 0}},
		{"empty_rowptr", []int{}, 2, []int{0, 0, 0}},
		{"all_in_one_row", []int{0, 0, 100, 100, 100}, 4, []int{0, 2, 2, 2, 4}},
		{"empty_tail", []int{0, 4, 8, 8, 8}, 2, []int{0, 1, 4}},
		{"all_empty_rows", []int{0, 0, 0, 0}, 2, []int{0, 0, 3}},
	}
	for _, tc := range cases {
		got := Chunks(tc.rowPtr, tc.workers)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: Chunks = %v, want %v", tc.name, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: Chunks = %v, want %v", tc.name, got, tc.want)
			}
		}
		// Invariants: non-decreasing, full cover.
		rows := len(tc.rowPtr) - 1
		if rows < 0 {
			rows = 0
		}
		if got[0] != 0 || got[len(got)-1] != rows {
			t.Fatalf("%s: bounds %v do not cover [0,%d)", tc.name, got, rows)
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("%s: bounds %v decrease", tc.name, got)
			}
		}
	}
}

// TestMeterPublishes checks the telemetry wiring: gauges and counters
// appear under the kernel label and advance per application.
func TestMeterPublishes(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := matgen.Banded(200, 2, 10, 500, 9)
	k, err := New(KindBlocked, m, Options{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	x := testX(m.NCols)
	y := make([]float64, m.NRows)
	for i := 0; i < 3; i++ {
		if err := k.MulVec(y, x); err != nil {
			t.Fatal(err)
		}
	}
	l := telemetry.L("kernel", "blocked")
	if got := reg.Counter("host_kernel_applies_total", l).Value(); got != 3 {
		t.Fatalf("applies_total = %v, want 3", got)
	}
	wantBytes := 3 * (12*float64(m.Nnz()) + 24*float64(m.NRows) + 8*float64(m.NCols))
	if got := reg.Counter("host_kernel_bytes_total", l).Value(); got != wantBytes {
		t.Fatalf("bytes_total = %v, want %v", got, wantBytes)
	}
	if got := reg.Gauge("host_kernel_gflops", l).Value(); got <= 0 {
		t.Fatalf("gflops gauge = %v, want > 0", got)
	}
	if got := reg.Gauge("host_kernel_gbs", l).Value(); got <= 0 {
		t.Fatalf("gbs gauge = %v, want > 0", got)
	}
}

// TestSELLGenericChunkHeight covers the non-specialized C path.
func TestSELLGenericChunkHeight(t *testing.T) {
	m := matgen.PowerLaw(130, 130, 6, 0.5, 21)
	x := testX(m.NCols)
	ref := make([]float64, m.NRows)
	if err := m.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSELL(m, 6, 32, matrix.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k := NewSELLFrom(s, Options{Workers: 3})
	defer k.Close()
	y := make([]float64, m.NRows)
	if err := k.MulVec(y, x); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("C=6: y[%d] = %v, reference %v", i, y[i], ref[i])
		}
	}
}

// TestOneShotMulVec covers the convenience wrapper.
func TestOneShotMulVec(t *testing.T) {
	m := matgen.Banded(100, 2, 8, 300, 17)
	x := testX(m.NCols)
	ref := make([]float64, m.NRows)
	if err := m.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	y := make([]float64, m.NRows)
	if err := MulVec(m, y, x); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("y[%d] = %v, reference %v", i, y[i], ref[i])
		}
	}
}

// TestCMRSKernelOptions pins the layout plumbing: NewCMRSOver runs the
// layout's own strip height, and an uneven strip count stays
// bit-identical under parallel workers.
func TestCMRSKernelOptions(t *testing.T) {
	m := matgen.PowerLaw(141, 2, 40, 0.7, 31)
	c, err := core.NewCMRSWith(m, 4, matrix.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k := NewCMRSOver(c, Options{Workers: 5})
	defer k.Close()
	x := testX(m.NCols)
	ref := make([]float64, m.NRows)
	if err := m.MulVec(ref, x); err != nil {
		t.Fatal(err)
	}
	y := make([]float64, m.NRows)
	if err := k.MulVec(y, x); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("y[%d] = %v, reference %v", i, y[i], ref[i])
		}
	}
}
