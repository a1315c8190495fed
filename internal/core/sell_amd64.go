package core

import (
	"math"
	"unsafe"

	"pjds/internal/matrix"
)

// useGroupKernel selects the AVX-512 group kernel for the eight-lane
// groups of MulRows. It is fixed at start-up by the CPU and OS; only
// the package's tests switch it off, to run the Go loop on the same
// host.
var useGroupKernel = cpuHasAVX512()

// cpuHasAVX512 reports AVX-512F and AVX-512VL with the OS saving the
// opmask and ZMM registers.
func cpuHasAVX512() bool

// groups8F64 and groups8F32 are the assembly group kernels (see
// sell_amd64.s): they compute stored rows [lo, hi) of chunks starting
// at chunk sl and return the row they stopped at, hi unless a group
// failed a check.
//
//go:noescape
func groups8F64(val *float64, col *int32, x *float64, xlim int, y *float64, perm *int, ylen int, rowLen *int32, sliceStart *int64, sliceLen *int32, c, sl, lo, hi int, add bool) int

//go:noescape
func groups8F32(val *float32, col *int32, x *float32, xlim int, y *float32, perm *int, ylen int, rowLen *int32, sliceStart *int64, sliceLen *int32, c, sl, lo, hi int, add bool) int

// groups8 runs the eight-lane groups of stored rows [lo, hi), both
// multiples of 8, through the assembly kernel when the CPU has it and
// every slot the kernel touches is inside its slice. It returns the
// row the Go loop must continue from: hi when the kernel ran them all,
// lo when it did not run, or the first group the kernel refused (a
// column index or permuted row out of range, a row longer than its
// chunk), which the Go loop then computes, or panics on, as always.
func groups8[T matrix.Float](s *SELL[T], y, x []T, lo, hi int, perm matrix.Perm, add bool) int {
	if !useGroupKernel || lo >= hi || !groupsFit(s, y, lo, hi, perm) {
		return lo
	}
	var pp *int
	if perm != nil {
		pp = unsafe.SliceData(perm)
	}
	// A column index is checked as an unsigned 32-bit value against
	// xlim, so a negative one fails even when x is longer than 2^31.
	xlim := min(len(x), 1<<31)
	val, xp, yp := unsafe.Pointer(unsafe.SliceData(s.Val)), unsafe.Pointer(unsafe.SliceData(x)), unsafe.Pointer(unsafe.SliceData(y))
	col, rowLen := unsafe.SliceData(s.ColIdx), unsafe.SliceData(s.RowLen)
	start, slen := unsafe.SliceData(s.SliceStart), unsafe.SliceData(s.SliceLen)
	if SizeofElem[T]() == 8 {
		return groups8F64((*float64)(val), col, (*float64)(xp), xlim, (*float64)(yp), pp, len(y), rowLen, start, slen, s.C, lo/s.C, lo, hi, add)
	}
	return groups8F32((*float32)(val), col, (*float32)(xp), xlim, (*float32)(yp), pp, len(y), rowLen, start, slen, s.C, lo/s.C, lo, hi, add)
}

// groupsFit reports whether rows [lo, hi) of s, 0 ≤ lo < hi, stay
// inside the slices the kernel reads without checking: RowLen, y (or
// perm) up to row hi-1, the chunks' entries in SliceStart and
// SliceLen, and each chunk's whole padded rectangle in Val and ColIdx.
func groupsFit[T matrix.Float](s *SELL[T], y []T, lo, hi int, perm matrix.Perm) bool {
	c := s.C
	if c < 8 || c > math.MaxInt32 || lo < 0 || hi > len(s.RowLen) {
		return false
	}
	if perm == nil && hi > len(y) || perm != nil && hi > len(perm) {
		return false
	}
	last := (hi - 1) / c
	if last >= len(s.SliceLen) || last >= len(s.SliceStart) {
		return false
	}
	n := int64(min(len(s.Val), len(s.ColIdx)))
	for sl := lo / c; sl <= last; sl++ {
		at, l := s.SliceStart[sl], int64(s.SliceLen[sl])
		if at < 0 || l < 0 || at > n || l*int64(c) > n-at {
			return false
		}
	}
	return true
}
