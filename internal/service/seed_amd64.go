package service

import (
	"unsafe"

	"pjds/internal/core"
)

// useSeedKernel selects the AVX-512 SplitMix fill of seedFill. The CPU
// and OS fix it at start-up; only the package's tests switch it off,
// to run the Go loop on the same host.
var useSeedKernel = core.AVX512DQ()

// seedFill8 is the assembly fill (see seed_amd64.s): it writes
// x[j] = seedAt(seed, perm[j]) for j < 8·groups, or seedAt(seed, j)
// when perm is nil.
//
//go:noescape
func seedFill8(x *float64, groups int, perm *int, seed uint64)

// seedFillGroups fills the leading multiple of eight elements of x
// through the assembly kernel when the CPU has it, and returns how
// many it filled. perm is nil or at least as long as x.
func seedFillGroups(x []float64, seed uint64, perm []int) int {
	g := len(x) / 8
	if !useSeedKernel || g == 0 {
		return 0
	}
	var pp *int
	if perm != nil {
		pp = unsafe.SliceData(perm[:len(x)])
	}
	seedFill8(unsafe.SliceData(x), g, pp, seed)
	return 8 * g
}
