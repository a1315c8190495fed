package matrix

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func benchMatrix(b *testing.B) *CSR[float64] {
	b.Helper()
	m := randomCSR(2000, 2000, 0.01, 1)
	b.SetBytes(int64(m.Nnz()) * 12)
	return m
}

func BenchmarkCSRMulVec(b *testing.B) {
	m := benchMatrix(b)
	x := make([]float64, m.NCols)
	y := make([]float64, m.NRows)
	for i := range x {
		x[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.MulVec(y, x); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCOO(b *testing.B) *COO[float64] {
	b.Helper()
	coo := NewCOO[float64](2000, 2000)
	m := randomCSR(2000, 2000, 0.01, 2)
	for i := 0; i < m.NRows; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			coo.Add(i, int(c), vals[k])
		}
	}
	return coo
}

func BenchmarkCOOToCSR(b *testing.B) {
	coo := benchCOO(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = coo.ToCSR()
	}
}

// BenchmarkCOOToCSRWorkers measures the counting-pass assembly across
// worker counts, plus the arena-backed sweep variant that reuses
// scratch between conversions.
func BenchmarkCOOToCSRWorkers(b *testing.B) {
	coo := benchCOO(b)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opt := ConvertOptions{Workers: w, ForceParallel: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = coo.ToCSROpt(opt)
			}
		})
	}
	b.Run("workers=4/arena", func(b *testing.B) {
		arena := NewArena()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arena.Reset()
			_ = coo.ToCSROpt(ConvertOptions{Workers: 4, Arena: arena, ForceParallel: true})
		}
	})
}

// mmBenchBody returns a MatrixMarket body shaped like a service upload:
// 8000 rows of about 12 entries each in a band, values spelled %.17g.
// The sorted body lists entries by row and column, as WriteMatrixMarket
// does; the shuffled one repeats every 20th entry and shuffles all
// lines, so it takes the counting-pass assembly and sums duplicates.
func mmBenchBody(shuffled bool) (doc []byte, entries int) {
	const rows = 8000
	rng := rand.New(rand.NewSource(3))
	var lines []string
	for i := 0; i < rows; i++ {
		for j := max(0, i-40); j < min(rows, i+40); j++ {
			if rng.Intn(80) < 12 {
				lines = append(lines, fmt.Sprintf("%d %d %.17g\n", i+1, j+1, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(7)-3))))
			}
		}
	}
	if shuffled {
		for k := 0; k < len(lines); k += 20 {
			lines = append(lines, lines[k])
		}
		rng.Shuffle(len(lines), func(a, b int) { lines[a], lines[b] = lines[b], lines[a] })
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", rows, rows, len(lines))
	for _, l := range lines {
		b.WriteString(l)
	}
	return b.Bytes(), len(lines)
}

// BenchmarkReadMatrixMarket measures the chunked text ingest (parse +
// CSR assembly) across worker counts, on a row-sorted body (copy-only
// assembly) and a shuffled body with duplicates (counting-pass
// assembly), reporting ns per entry next to MB/s.
func BenchmarkReadMatrixMarket(b *testing.B) {
	for _, shape := range []string{"sorted", "shuffled"} {
		doc, entries := mmBenchBody(shape == "shuffled")
		for _, w := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", shape, w), func(b *testing.B) {
				opt := ConvertOptions{Workers: w, ForceParallel: true}
				b.SetBytes(int64(len(doc)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := ReadMatrixMarketOpt[float64](bytes.NewReader(doc), opt); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(entries), "ns/entry")
			})
		}
	}
}

func BenchmarkTranspose(b *testing.B) {
	m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Transpose()
	}
}

func BenchmarkSortRowsByLengthDesc(b *testing.B) {
	m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SortRowsByLengthDesc(m)
	}
}

func BenchmarkPermuteSymmetric(b *testing.B) {
	m := benchMatrix(b)
	p := SortRowsByLengthDesc(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PermuteSymmetric(m, p)
	}
}
