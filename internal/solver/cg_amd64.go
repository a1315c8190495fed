package solver

import (
	"unsafe"

	"pjds/internal/core"
)

// useVectorKernels selects the SIMD update and direction passes of CG.
// The CPU and OS fix it at start-up through core.AVX512DQ, the probe
// that also selects the service's seed fill (the passes need only AVX,
// which every AVX-512 CPU has); only tests switch it off, through
// SetVectorKernels, to run the Go loops on the same host.
var useVectorKernels = core.AVX512DQ()

// update4 and direction4 are the assembly passes (see cg_amd64.s) over
// the first 4·groups elements: update4 computes x += α·p and r += na·ap
// and returns rᵀr of the new r, summed in index order from 0;
// direction4 computes p = r + β·p.
//
//go:noescape
func update4(x, r, p, ap *float64, groups int, alpha, na float64) float64

//go:noescape
func direction4(p, r *float64, groups int, beta float64)

// updateGroups runs cgUpdate's pass over the leading multiple of four
// elements of x through the assembly kernel when the CPU has it. It
// returns how many elements it updated and their part of rᵀr. r, p
// and ap are at least as long as x.
func updateGroups(x, r, p, ap []float64, alpha, na float64) (int, float64) {
	g := len(x) / 4
	if !useVectorKernels || g == 0 {
		return 0, 0
	}
	_, _, _ = r[:len(x)], p[:len(x)], ap[:len(x)]
	rr := update4(unsafe.SliceData(x), unsafe.SliceData(r), unsafe.SliceData(p), unsafe.SliceData(ap), g, alpha, na)
	return 4 * g, rr
}

// directionGroups runs cgDirection's pass over the leading multiple of
// four elements of p through the assembly kernel when the CPU has it,
// and returns how many it computed. r is at least as long as p.
func directionGroups(p, r []float64, beta float64) int {
	g := len(p) / 4
	if !useVectorKernels || g == 0 {
		return 0
	}
	_ = r[:len(p)]
	direction4(unsafe.SliceData(p), unsafe.SliceData(r), g, beta)
	return 4 * g
}
