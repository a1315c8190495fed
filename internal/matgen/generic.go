package matgen

import (
	"math"
	"math/rand"

	"pjds/internal/matrix"
)

// Generic generators for examples, tests and ablations.

// Banded generates an n×n matrix whose rows have between minLen and
// maxLen entries placed within ±width of the diagonal (wrapping at
// the edges), always including the diagonal. Strong RHS locality.
func Banded(n, minLen, maxLen, width int, seed int64) *matrix.CSR[float64] {
	if maxLen < minLen {
		minLen, maxLen = maxLen, minLen
	}
	if minLen < 1 {
		minLen = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := newBuilder(n, int64(n)*int64(maxLen+minLen)/2)
	s := newScratch()
	for i := 0; i < n; i++ {
		s.reset()
		l := minLen + rng.Intn(maxLen-minLen+1)
		s.add(i, n, 2+rng.Float64())
		if rem := l - 1; rem > 0 {
			s.bandFill(rng, i, n, rem, width)
		}
		s.emit(b)
	}
	return b.finish()
}

// Random generates an n×n matrix with uniformly random column
// positions — the worst case for RHS cache reuse (α → 1).
func Random(n, minLen, maxLen int, seed int64) *matrix.CSR[float64] {
	if maxLen < minLen {
		minLen, maxLen = maxLen, minLen
	}
	if minLen < 1 {
		minLen = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := newBuilder(n, int64(n)*int64(maxLen+minLen)/2)
	s := newScratch()
	for i := 0; i < n; i++ {
		s.reset()
		l := minLen + rng.Intn(maxLen-minLen+1)
		s.add(i, n, 2+rng.Float64())
		for len(s.cols) < l {
			s.add(rng.Intn(n), n, symValue(rng))
		}
		s.emit(b)
	}
	return b.finish()
}

// PowerLaw generates an n×n matrix whose row lengths follow a
// truncated power law: a few very long rows over a mass of short ones
// — the regime where pJDS crushes ELLPACK's footprint (§II-A's
// extreme-case analysis).
func PowerLaw(n, minLen, maxLen int, exponent float64, seed int64) *matrix.CSR[float64] {
	if maxLen < minLen {
		minLen, maxLen = maxLen, minLen
	}
	if minLen < 1 {
		minLen = 1
	}
	if exponent <= 0 {
		exponent = 2
	}
	rng := rand.New(rand.NewSource(seed))
	b := newBuilder(n, int64(n)*int64(minLen)*3)
	s := newScratch()
	span := float64(maxLen - minLen)
	for i := 0; i < n; i++ {
		s.reset()
		u := rng.Float64()
		l := minLen + int(span*math.Pow(u, exponent))
		s.add(i, n, 2+rng.Float64())
		for len(s.cols) < l {
			s.add(rng.Intn(n), n, symValue(rng))
		}
		s.emit(b)
	}
	return b.finish()
}

// Stencil3D generates the 7-point Laplacian on an nx×ny×nz grid —
// the 3D analogue used for volume problems (SPD, constant interior
// row length 7).
func Stencil3D(nx, ny, nz int) *matrix.CSR[float64] {
	n := nx * ny * nz
	b := newBuilder(n, int64(n)*7)
	cols := make([]int32, 0, 7)
	vals := make([]float64, 0, 7)
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				cols = cols[:0]
				vals = vals[:0]
				add := func(c int, v float64) {
					cols = append(cols, int32(c))
					vals = append(vals, v)
				}
				i := idx(x, y, z)
				if z > 0 {
					add(idx(x, y, z-1), -1)
				}
				if y > 0 {
					add(idx(x, y-1, z), -1)
				}
				if x > 0 {
					add(i-1, -1)
				}
				add(i, 6)
				if x < nx-1 {
					add(i+1, -1)
				}
				if y < ny-1 {
					add(idx(x, y+1, z), -1)
				}
				if z < nz-1 {
					add(idx(x, y, z+1), -1)
				}
				b.addRow(cols, vals)
			}
		}
	}
	return b.finish()
}

// Stencil2D generates the 5-point Laplacian on a nx×ny grid — the
// constant-row-length case where ELLPACK and pJDS coincide, and a
// classic CG/solver test operator (symmetric positive definite).
func Stencil2D(nx, ny int) *matrix.CSR[float64] {
	n := nx * ny
	b := newBuilder(n, int64(n)*5)
	cols := make([]int32, 0, 5)
	vals := make([]float64, 0, 5)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			cols = cols[:0]
			vals = vals[:0]
			i := y*nx + x
			add := func(c int, v float64) {
				cols = append(cols, int32(c))
				vals = append(vals, v)
			}
			if y > 0 {
				add(i-nx, -1)
			}
			if x > 0 {
				add(i-1, -1)
			}
			add(i, 4)
			if x < nx-1 {
				add(i+1, -1)
			}
			if y < ny-1 {
				add(i+nx, -1)
			}
			b.addRow(cols, vals)
		}
	}
	return b.finish()
}
