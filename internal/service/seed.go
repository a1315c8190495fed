package service

import "pjds/internal/matrix"

// SeedVector generates the deterministic request vector shared by
// server and swarm: splitmix64 per element, mapped into [0.5, 1.5) so
// entries are well away from zero. The swarm's digest gate relies on
// both sides generating bit-identical vectors from (n, seed). Element
// i depends on i and seed only, so the server fills a seeded request's
// vector straight into the pJDS-permuted basis (seedFill with the
// matrix's permutation) and never builds this one.
func SeedVector(n int, seed uint64) []float64 {
	x := make([]float64, n)
	seedFill(x, seed, nil)
	return x
}

// seedFill writes x[j] = SeedVector(n, seed)[perm[j]] for every j,
// perm being nil (the identity, so x becomes SeedVector(len(x), seed))
// or at least as long as x. Eight-element groups run through the
// AVX-512 kernel where the CPU has it, bit-identical to the Go loop.
func seedFill(x []float64, seed uint64, perm matrix.Perm) {
	for j := seedFillGroups(x, seed, perm); j < len(x); j++ {
		i := j
		if perm != nil {
			i = perm[j]
		}
		x[j] = seedAt(seed, i)
	}
}

// seedAt is element i of every SeedVector longer than i.
func seedAt(seed uint64, i int) float64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	// z>>11 < 2⁵³ converts exactly either way; the signed
	// conversion is one instruction, the unsigned one a branch.
	return 0.5 + float64(int64(z>>11))/(1<<53)
}
