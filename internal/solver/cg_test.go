package solver

import (
	"math"
	"testing"
)

// cgFuzzValues are the vector entries FuzzCGVectorPasses draws from:
// signed zeros, infinities, a NaN, subnormals, the smallest normal,
// the extremes and ordinary values.
var cgFuzzValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, 0x1p-1070, 0x1p-1022, math.MaxFloat64, -math.MaxFloat64,
	1, -1, 0.1, -3.75, 7.0 / 3, 1e-160, -1e160,
}

// sameBitsOrNaN reports whether a and b hold the same bits, a NaN
// matching any NaN: which NaN an operation with two NaN operands
// returns depends on their order, which a scalar Go expression leaves
// to the compiler.
func sameBitsOrNaN(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// cgPasses runs CG's update pass and then its direction pass on copies
// of the vectors, as CGState.Run does, and returns x, r, p and rᵀr.
func cgPasses(x0, r0, p0, ap []float64, alpha, beta float64) (x, r, p []float64, rr float64) {
	x, r, p = append([]float64(nil), x0...), append([]float64(nil), r0...), append([]float64(nil), p0...)
	rr = cgUpdate(x, r, p, ap, alpha)
	cgDirection(p, r, beta)
	return x, r, p, rr
}

// FuzzCGVectorPasses: CG's update and direction passes leave x, r, p
// and rᵀr bit-identical on the SIMD kernels and on the Go loops, a NaN
// matching any NaN, for every length up to 200 (every tail after the
// last group of four) and any α and β. The entries of x, r, p and ap
// are entries[i] indexing cgFuzzValues, in that order, and 1 once
// entries runs out. The seed corpus is in
// testdata/fuzz/FuzzCGVectorPasses.
func FuzzCGVectorPasses(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, alpha, beta float64, entries []byte) {
		m := int(n) % 201
		vec := make([]float64, 4*m)
		for i := range vec {
			vec[i] = 1
			if i < len(entries) {
				vec[i] = cgFuzzValues[int(entries[i])%len(cgFuzzValues)]
			}
		}
		x0, r0, p0, ap := vec[:m], vec[m:2*m], vec[2*m:3*m], vec[3*m:]
		x, r, p, rr := cgPasses(x0, r0, p0, ap, alpha, beta)
		withoutVectorKernels(t)
		gx, gr, gp, grr := cgPasses(x0, r0, p0, ap, alpha, beta)
		if !sameBitsOrNaN(rr, grr) {
			t.Fatalf("n=%d α=%v β=%v: rᵀr %v, Go loop %v", m, alpha, beta, rr, grr)
		}
		for _, v := range []struct {
			name      string
			simd, ref []float64
		}{{"x", x, gx}, {"r", r, gr}, {"p", p, gp}} {
			for i := range v.ref {
				if !sameBitsOrNaN(v.simd[i], v.ref[i]) {
					t.Fatalf("n=%d α=%v β=%v: %s[%d] = %v, Go loop %v", m, alpha, beta, v.name, i, v.simd[i], v.ref[i])
				}
			}
		}
	})
}
