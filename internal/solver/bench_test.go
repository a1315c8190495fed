package solver

import (
	"math"
	"testing"

	"pjds/internal/core"
	"pjds/internal/matgen"
)

// BenchmarkCGLaplacian measures a full CG solve on the 2D Laplacian,
// CRS vs permuted-pJDS operator — the end-to-end cost the paper's
// permute-once argument (§II-A) is about.
func BenchmarkCGLaplacian(b *testing.B) {
	m := matgen.Stencil2D(60, 60)
	n := m.NRows
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	b.Run("CRS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := make([]float64, n)
			if _, err := CG(CSROperator{M: m}, x, rhs, 1e-8, 5000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pJDS-permuted", func(b *testing.B) {
		op, err := NewPermutedPJDS(m, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		bp := op.Enter(make([]float64, n), rhs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			xp := make([]float64, n)
			if _, err := CG(op, xp, bp, 1e-8, 5000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCGVectorPasses times CG's vector passes at the solve
// workload's size, n = 9216 (Stencil2D(96,96)), on the SIMD kernels and
// on the Go loops: update (x += α·p, r −= α·ap and rᵀr), direction
// (p = r + β·p) and dot (pᵀAp through Dot). update and dot each run one
// dependent add per element, the floor of a sum kept in scalar order.
// Dot has no SIMD path, so its two readings are one loop.
func BenchmarkCGVectorPasses(b *testing.B) {
	const n = 96 * 96
	x, r, p, ap := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		r[i], p[i], ap[i] = math.Sin(float64(i)), math.Cos(float64(i)), 1+math.Sin(0.5*float64(i))
	}
	passes := []struct {
		name string
		run  func()
	}{
		// α keeps x and r far from overflow over any b.N.
		{"update", func() { benchSink = cgUpdate(x, r, p, ap, 1e-9) }},
		// β < 1 keeps p bounded: it tends to r/(1−β).
		{"direction", func() { cgDirection(p, r, 0.5) }},
		{"dot", func() { benchSink = Dot(p, ap) }},
	}
	for _, pass := range passes {
		for _, mode := range []string{"simd", "go"} {
			b.Run(pass.name+"/"+mode, func(b *testing.B) {
				if mode == "go" {
					withoutVectorKernels(b)
				}
				for i := 0; i < b.N; i++ {
					pass.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
			})
		}
	}
}

// benchSink keeps the benchmarked sums alive.
var benchSink float64

func BenchmarkLanczos(b *testing.B) {
	m := matgen.Stencil2D(50, 50)
	op := CSROperator{M: m}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Lanczos(op, 40, nil); err != nil {
			b.Fatal(err)
		}
	}
}
