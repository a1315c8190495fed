//go:build !amd64

package solver

// useVectorKernels is false off amd64: CG's vector passes always run
// the Go loops.
var useVectorKernels = false

// updateGroups leaves every element to the Go loop.
func updateGroups(x, r, p, ap []float64, alpha, na float64) (int, float64) { return 0, 0 }

// directionGroups leaves every element to the Go loop.
func directionGroups(p, r []float64, beta float64) int { return 0 }
