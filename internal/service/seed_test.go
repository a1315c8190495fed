package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pjds/internal/core"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/solver"
)

// withoutSeedKernel runs seedFill through the Go loop until the end
// of t.
func withoutSeedKernel(t testing.TB) {
	old := useSeedKernel
	useSeedKernel = false
	t.Cleanup(func() { useSeedKernel = old })
}

// seedSizes are the vector lengths the seeded-request tests cover:
// every tail length of the eight-lane kernel, and the serve workload's
// largest matrix (sAMG at scale 0.02, 68,100 rows).
var seedSizes = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 1000, 68100}

var seedSeeds = []uint64{0, 1, 42, math.MaxUint64}

// randPerm returns a uniformly random permutation of [0, n).
func randPerm(n int, seed int64) matrix.Perm {
	return matrix.Perm(rand.New(rand.NewSource(seed)).Perm(n))
}

// invPerm32 returns the inverse of p as the service stores it.
func invPerm32(p matrix.Perm) []int32 {
	inv := make([]int32, len(p))
	for j, i := range p {
		inv[i] = int32(j)
	}
	return inv
}

// checkSeededRequest checks, on the path useSeedKernel selects, the
// two halves of a seeded request against the original-basis route:
// the fill equals Gather(SeedVector(n, seed), perm) and the gather
// digest of a permuted vector equals DigestVector(Scatter(it, perm)).
// want is goSeedVector(n, seed).
func checkSeededRequest(t *testing.T, want []float64, seed uint64, perm matrix.Perm) {
	t.Helper()
	n := len(perm)
	if got := SeedVector(n, seed); !sameBits(got, want) {
		t.Fatalf("n=%d seed=%#x: SeedVector differs from the Go loop", n, seed)
	}
	ref := matrix.Gather(make([]float64, n), want, perm)
	xp := make([]float64, n)
	for i := range xp {
		xp[i] = math.NaN() // every element must be written
	}
	seedFill(xp, seed, perm)
	if !sameBits(xp, ref) {
		t.Fatalf("n=%d seed=%#x: permuted fill differs from Gather(SeedVector)", n, seed)
	}
	// Any bits digest alike either way; the fill's vector with a
	// signed zero and a NaN payload planted in it is as good as any.
	yp := append([]float64(nil), xp...)
	if n > 2 {
		yp[0], yp[n/2] = math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef)
	}
	want2 := DigestVector(matrix.Scatter(make([]float64, n), yp, perm))
	if got := digestGather(yp, invPerm32(perm)); got != want2 {
		t.Fatalf("n=%d seed=%#x: gather digest %s, DigestVector(Leave) %s", n, seed, got, want2)
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// goSeedVector is SeedVector(n, seed) computed by the scalar Go
// expression alone.
func goSeedVector(n int, seed uint64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = seedAt(seed, i)
	}
	return x
}

// TestSeededRequestMatchesOriginalBasis: filling x straight into the
// permuted basis and digesting y through the inverse permutation give
// the bits of SeedVector → Gather and Scatter → DigestVector, on the
// AVX-512 kernel and the Go loop, for the identity, the reversal and a
// random permutation.
func TestSeededRequestMatchesOriginalBasis(t *testing.T) {
	for _, goLoop := range []bool{false, true} {
		t.Run(fmt.Sprintf("goLoop=%v", goLoop), func(t *testing.T) {
			if goLoop {
				withoutSeedKernel(t)
			}
			for _, n := range seedSizes {
				rev := make(matrix.Perm, n)
				for i := range rev {
					rev[i] = n - 1 - i
				}
				perms := []matrix.Perm{matrix.Identity(n), rev, randPerm(n, int64(n))}
				for _, seed := range seedSeeds {
					want := goSeedVector(n, seed)
					for _, p := range perms {
						checkSeededRequest(t, want, seed, p)
					}
				}
			}
		})
	}
}

// TestRequestShapesDigestAlike: a seeded request, the same vector sent
// as x or b, and a want_y response all digest as the original-basis
// route does (SeedVector, Enter, the kernel or CG, Leave,
// DigestVector), on a matrix whose permutation is not the identity.
func TestRequestShapesDigestAlike(t *testing.T) {
	s, e, m := allocServer(t)
	n := m.NRows
	if slices.Equal(e.op.Perm, matrix.Identity(n)) {
		t.Fatal("the test matrix's row sort is the identity")
	}
	ref, err := solver.NewPermutedPJDS(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	const seed, iters = 5, 7
	x := SeedVector(n, seed)
	want := referenceDigest(t, m, x)
	for _, req := range []SpMVRequest{{Seed: seed}, {X: x}, {X: x, WantY: true}} {
		req.Matrix = e.info.ID
		res, err := s.SpMV(context.Background(), e, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Digest != want {
			t.Errorf("SpMV x=%v want_y=%v: digest %s, original-basis route %s", req.X != nil, req.WantY, res.Digest, want)
		}
	}
	xp := make([]float64, n)
	if _, err := solver.CG(ref, xp, ref.Enter(make([]float64, n), x), 1e-10, iters); !errors.Is(err, solver.ErrNotConverged) {
		t.Fatalf("reference CG: %v", err)
	}
	want = DigestVector(ref.Leave(make([]float64, n), xp))
	for _, req := range []SolveRequest{{Seed: seed}, {B: x}} {
		req.Matrix, req.MaxIter = e.info.ID, iters
		res, err := s.Solve(context.Background(), e, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Digest != want {
			t.Errorf("Solve b=%v: digest %s, original-basis route %s", req.B != nil, res.Digest, want)
		}
	}
}

// TestSeedVectorPinned pins SeedVector's bits (through their digest):
// the swarm's references and every client that derives a request from
// (n, seed) rely on them never moving.
func TestSeedVectorPinned(t *testing.T) {
	for _, tc := range []struct {
		n      int
		seed   uint64
		digest string
	}{
		{1, 0x0, "b7c0984769e131c6"},
		{17, 0x2a, "d0540280f8ae6367"},
		{17, math.MaxUint64, "a10e59dfbc2fffe4"},
		{1000, 0x0, "a6bd9816c11ac6da"},
		{68100, 0x1, "5e1295ec3f76d293"},
		{68100, math.MaxUint64, "a09f2e206a731b89"},
	} {
		if got := DigestVector(SeedVector(tc.n, tc.seed)); got != tc.digest {
			t.Errorf("SeedVector(%d, %#x) digests %s, want %s", tc.n, tc.seed, got, tc.digest)
		}
	}
}

// FuzzSeededRequest: for any length, seed and permutation, the
// permuted fill and the gather digest agree with the original-basis
// route, on the AVX-512 kernel and the Go loop.
func FuzzSeededRequest(f *testing.F) {
	f.Add(uint32(17), uint64(42), int64(1))
	f.Add(uint32(68100), uint64(math.MaxUint64), int64(7))
	f.Add(uint32(0), uint64(0), int64(0))
	f.Fuzz(func(t *testing.T, n uint32, seed uint64, permSeed int64) {
		n %= 1 << 17 // a few MB of vectors at most
		perm, want := randPerm(int(n), permSeed), goSeedVector(int(n), seed)
		checkSeededRequest(t, want, seed, perm)
		withoutSeedKernel(t)
		checkSeededRequest(t, want, seed, perm)
	})
}

// BenchmarkSeededRequestVectors times a seeded request's work outside
// the kernel on the serve workload's largest matrix (sAMG at scale
// 0.02) and its row-length permutation: the permuted fill plus the
// gather digest, against SeedVector's fill, Enter, Leave and
// DigestVector.
func BenchmarkSeededRequestVectors(b *testing.B) {
	tm, err := matgen.ByName("sAMG")
	if err != nil {
		b.Fatal(err)
	}
	op, err := solver.NewPermutedPJDS(tm.Generate(0.02, 1), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer op.Close()
	perm, inv := op.Perm, invPerm32(op.Perm)
	n := len(perm)
	x, xp, yp, y := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	seedFill(yp, 2, nil)
	b.Run("permuted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seedFill(xp, uint64(i), perm)
			digestSink = digestGather(yp, inv)
		}
	})
	b.Run("original", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seedFill(x, uint64(i), nil)
			op.Enter(xp, x)
			op.Leave(y, yp)
			digestSink = DigestVector(y)
		}
	})
}
