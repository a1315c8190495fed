package core

import "testing"

func benchTarget(b *testing.B) ( /* m */ func() []Format[float64], []float64, []float64) {
	b.Helper()
	m := randomCSR(3000, 3000, 0.01, 3)
	build := func() []Format[float64] {
		pj, err := newPJDS(m)
		if err != nil {
			b.Fatal(err)
		}
		sell, err := newSliced(m, 32, m.NRows)
		if err != nil {
			b.Fatal(err)
		}
		return []Format[float64]{NewCRS(m), newELL(m), newELLR(m), pj, sell}
	}
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = float64(i % 7)
	}
	return build, make([]float64, m.NRows), x
}

// BenchmarkMulVecByFormat compares the host kernels of every format on
// one matrix.
func BenchmarkMulVecByFormat(b *testing.B) {
	build, y, x := benchTarget(b)
	for _, f := range build() {
		b.Run(f.Name(), func(b *testing.B) {
			b.SetBytes(int64(f.NonZeros()) * 12)
			for i := 0; i < b.N; i++ {
				if err := f.MulVec(y, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildByFormat compares conversion costs from CSR.
func BenchmarkBuildByFormat(b *testing.B) {
	m := randomCSR(3000, 3000, 0.01, 3)
	b.Run("ELLPACK", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = newELL(m)
		}
	})
	b.Run("ELLPACK-R", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = newELLR(m)
		}
	})
	b.Run("pJDS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := newPJDS(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sliced-ELL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := newSliced(m, 32, 1024); err != nil {
				b.Fatal(err)
			}
		}
	})
}
