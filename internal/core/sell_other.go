//go:build !amd64

package core

import "pjds/internal/matrix"

// useGroupKernel is false off amd64: the eight-lane groups always run
// the Go loop.
var useGroupKernel = false

// groups8 leaves every row to the Go loop.
func groups8[T matrix.Float](s *SELL[T], y, x []T, lo, hi int, perm matrix.Perm, add bool) int {
	return lo
}
