package core

import "testing"

// GroupKernel reports whether MulRows runs its eight-lane groups
// through the AVX-512 kernel on this host.
func GroupKernel() bool { return useGroupKernel }

// WithoutGroupKernel runs the eight-lane groups of MulRows through the
// Go loop until the end of t.
func WithoutGroupKernel(t testing.TB) {
	old := useGroupKernel
	useGroupKernel = false
	t.Cleanup(func() { useGroupKernel = old })
}
