package hostkernel

import (
	"strconv"
	"testing"

	"pjds/internal/core"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/telemetry"
)

// benchMatrix is the shared benchmark workload: a banded matrix big
// enough for stable per-nnz timing, small enough to build in
// milliseconds. Telemetry is enabled so the benchmarks prove the
// metered steady state is allocation-free too.
func benchMatrix() *matrix.CSR[float64] {
	return matgen.Banded(20000, 12, 28, 300, 42)
}

// TestMulVecZeroAllocs: the steady-state MulVec of every kernel kind
// and of the pJDS kernel allocates nothing, metered, at 1 and 2
// workers — it runs once per solver iteration.
func TestMulVecZeroAllocs(t *testing.T) {
	m := matgen.Banded(4000, 12, 28, 300, 42)
	p, err := core.NewPJDS(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1 + float64(i%7)/3
	}
	y := make([]float64, m.NRows)
	for _, w := range []int{1, 2} {
		opt := Options{Workers: w, Metrics: telemetry.NewRegistry()}
		kernels := []Kernel{NewPJDS(p, opt)}
		for _, kind := range Kinds() {
			k, err := New(kind, m, opt)
			if err != nil {
				t.Fatal(err)
			}
			kernels = append(kernels, k)
		}
		for _, k := range kernels {
			if err := k.MulVec(y, x); err != nil { // warm up
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := k.MulVec(y, x); err != nil {
					t.Fatal(err)
				}
			})
			k.Close()
			if allocs != 0 {
				t.Errorf("%s at %d workers: %v allocs per MulVec, want 0", k.Name(), w, allocs)
			}
		}
	}
}

// benchKernel times repeated MulVec applications of k over m and
// reports ns per non-zero next to the stock ns/op, so kernels and
// checkouts compare independently of the matrix size.
func benchKernel(b *testing.B, m *matrix.CSR[float64], k Kernel) {
	b.Helper()
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1 + float64(i%7)/3
	}
	y := make([]float64, m.NRows)
	if err := k.MulVec(y, x); err != nil { // warm up, surface errors
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.MulVec(y, x); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.Nnz()), "ns/nnz")
}

func BenchmarkHostNaive(b *testing.B) {
	benchKind(b, KindNaive, Options{})
}

func BenchmarkHostCRS(b *testing.B) {
	benchKind(b, KindBlocked, Options{})
}

// benchKind times a kernel of the given kind over benchMatrix.
func benchKind(b *testing.B, kind Kind, opt Options) {
	m := benchMatrix()
	opt.Metrics = telemetry.NewRegistry()
	k, err := New(kind, m, opt)
	if err != nil {
		b.Fatal(err)
	}
	defer k.Close()
	benchKernel(b, m, k)
}

func BenchmarkHostSELL(b *testing.B) {
	m := benchMatrix()
	for _, c := range []int{4, 8} {
		b.Run("c"+strconv.Itoa(c), func(b *testing.B) {
			s, err := core.NewSELL(m, c, DefaultSigma, matrix.ConvertOptions{})
			if err != nil {
				b.Fatal(err)
			}
			k := NewSELLFrom(s, Options{Metrics: telemetry.NewRegistry()})
			defer k.Close()
			benchKernel(b, m, k)
		})
	}
}

func BenchmarkHostPJDS(b *testing.B) {
	m := benchMatrix()
	p, err := core.NewPJDS(m, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	k := NewPJDS(p, Options{Metrics: telemetry.NewRegistry()})
	defer k.Close()
	x := make([]float64, p.NCols)
	for i := range x {
		x[i] = 1 + float64(i%7)/3
	}
	y := make([]float64, p.N)
	if err := k.MulVec(y, x); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.MulVec(y, x); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.Nnz), "ns/nnz")
}

// BenchmarkHostCRSWorkers shows the pool dispatch cost across worker
// counts (speedup itself is unmeasurable on a 1-CPU container; the
// point is that dispatch stays cheap and allocation-free).
func BenchmarkHostCRSWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run("workers"+strconv.Itoa(w), func(b *testing.B) {
			benchKind(b, KindBlocked, Options{Workers: w})
		})
	}
}
