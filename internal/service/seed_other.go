//go:build !amd64

package service

// useSeedKernel is false off amd64: seedFill always runs the Go loop.
var useSeedKernel = false

// seedFillGroups leaves every element to the Go loop.
func seedFillGroups(x []float64, seed uint64, perm []int) int { return 0 }
