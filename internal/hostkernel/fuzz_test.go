package hostkernel

import (
	"math"
	"testing"

	"pjds/internal/core"
	"pjds/internal/matrix"
)

// fuzzChunkHeights are the SELL chunk heights FuzzHostKernels draws
// from: the lane-by-lane and four-lane Go loops below 8, and the
// eight-lane groups (the AVX-512 group kernel where the host has it)
// from 8 up.
var fuzzChunkHeights = []int{1, 2, 3, 4, 5, 6, 7, 8, 16, 32}

// hostileX are the x entries FuzzHostKernels mixes in: NaN, both
// infinities, both zeros, a subnormal, and magnitudes whose products
// overflow.
var hostileX = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, 1e308, -1e308}

// sameBits reports bit-identity, except that a NaN need only match a
// NaN: where two NaNs with different payloads meet in an add, x86 keeps
// the first operand's and the compiler may commute a scalar add.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// FuzzHostKernels drives the blocked, SELL and CMRS kernels with
// fuzzer-shaped matrices, geometry (worker count; chunk height,
// sorting window and strip height from the geometry byte), x (a
// nonzero hostile picks entries that take NaN, infinite, zero,
// subnormal or overflowing values) and a MulVecAdd y seeded from the
// same hostile values, −0 included, and demands bit-identity with the
// naive CRS reference — the same cross-check discipline as the
// parallel-vs-sequential conversion fuzz. A kernel that skips an empty
// row under MulVecAdd leaves a −0 where CRS writes −0 + 0 = +0.
func FuzzHostKernels(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(2), uint8(0), uint8(16), uint8(0), []byte{0x11, 0x22, 0x33})
	f.Add(uint8(1), uint8(1), uint8(7), uint8(1), uint8(0), uint8(0), []byte{})
	f.Add(uint8(64), uint8(3), uint8(4), uint8(9), uint8(3), uint8(2), []byte{0xff, 0x00, 0xff, 0x7f})
	f.Add(uint8(63), uint8(40), uint8(2), uint8(7), uint8(0), uint8(3), []byte{0x81, 0x22, 0x9a, 0x04, 0x11, 0xe7, 0x50, 0x33, 0x6c, 0x02})
	f.Fuzz(func(t *testing.T, rows, cols, workers, geom, yseed, hostile uint8, pattern []byte) {
		n := int(rows)%64 + 1
		c := int(cols)%64 + 1
		w := int(workers)%9 + 1
		chunkH := fuzzChunkHeights[int(geom)%len(fuzzChunkHeights)]
		sigma := int(geom)%48 + 1     // SELL σ
		height := int(geom>>2)%64 + 1 // CMRS strip height, up to one strip for all rows
		coo := matrix.NewCOO[float64](n, c)
		for k, b := range pattern {
			if k >= 4*n {
				break
			}
			i := (k * 7 % n)
			j := int(b) % c
			coo.Add(i, j, float64(b)/16+0.25)
		}
		m := coo.ToCSR()
		x := make([]float64, c)
		for i := range x {
			x[i] = float64(i%5) - 2
			if hostile != 0 && (i*7+int(hostile))%(int(hostile)%4+2) == 0 {
				x[i] = hostileX[(i+int(hostile))%len(hostileX)]
			}
		}
		ref := make([]float64, n)
		if err := m.MulVec(ref, x); err != nil {
			t.Fatal(err)
		}
		seed := make([]float64, n)
		for i := range seed {
			seed[i] = hostileX[(i+int(yseed))%len(hostileX)]
		}
		want := append([]float64(nil), seed...)
		if err := m.MulVecAdd(want, x); err != nil {
			t.Fatal(err)
		}
		conv := matrix.ConvertOptions{Workers: w}
		s, err := core.NewSELL(m, chunkH, sigma, conv)
		if err != nil {
			t.Fatalf("SELL construction failed on valid input: %v", err)
		}
		cm, err := core.NewCMRSWith(m, height, conv)
		if err != nil {
			t.Fatalf("CMRS construction failed on valid input: %v", err)
		}
		opt := Options{Workers: w}
		blocked, err := New(KindBlocked, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []Kernel{blocked, NewSELLFrom(s, opt), NewCMRSOver(cm, opt)} {
			y := make([]float64, n)
			if err := k.MulVec(y, x); err != nil {
				t.Fatal(err)
			}
			for i := range y {
				if !sameBits(y[i], ref[i]) {
					t.Fatalf("%s (w=%d C=%d σ=%d height=%d): y[%d] = %v, reference %v",
						k.Name(), w, chunkH, sigma, height, i, y[i], ref[i])
				}
			}
			copy(y, seed)
			if err := k.MulVecAdd(y, x); err != nil {
				t.Fatal(err)
			}
			for i := range y {
				if !sameBits(y[i], want[i]) {
					t.Fatalf("%s add (w=%d C=%d σ=%d height=%d): y[%d] = %v (seed %v), reference %v",
						k.Name(), w, chunkH, sigma, height, i, y[i], seed[i], want[i])
				}
			}
			k.Close()
		}
	})
}
