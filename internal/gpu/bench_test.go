package gpu

import (
	"testing"

	"pjds/internal/model"
)

// The simulator's own throughput: how many non-zeros per second the
// transaction-level model processes (this bounds how big a matrix the
// full-scale experiments can afford).
func BenchmarkSimulatorELLPACKR(b *testing.B) {
	m := bandedCSR(20000, 10, 30, 1)
	e := newELLR(m)
	d := TeslaC2070()
	x := randVec(m.NCols, 2)
	y := make([]float64, m.NRows)
	b.SetBytes(int64(m.Nnz()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSELL(d, e, y, x, RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorPJDS(b *testing.B) {
	m := bandedCSR(20000, 10, 30, 1)
	p, err := newPJDS(m)
	if err != nil {
		b.Fatal(err)
	}
	d := TeslaC2070()
	x := randVec(m.NCols, 2)
	yp := make([]float64, p.NPad)
	b.SetBytes(int64(m.Nnz()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunPJDS(d, p, yp, x, RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheProbe(b *testing.B) {
	c := configureCache(new(model.LRU), DefaultL2(), 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Probe(int64(i*37) & 0xfffff)
	}
}
