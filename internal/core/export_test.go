package core

import "testing"

// WithoutGroupKernel runs the eight-lane groups of MulRows through the
// Go loop until the end of t.
func WithoutGroupKernel(t testing.TB) {
	old := useGroupKernel
	useGroupKernel = false
	t.Cleanup(func() { useGroupKernel = old })
}
