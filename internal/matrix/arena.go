package matrix

// Arena is a reusable scratch allocator for the conversion pipeline.
// Format constructors need short-lived buffers (row-length arrays,
// histograms, sort keys) whose sizes repeat across conversions; a
// parameter sweep that rebuilds a format dozens of times would
// otherwise churn the allocator with identical allocations. An Arena
// hands out zeroed slices and reclaims all of them at Reset, so a
// sweep loop allocates each buffer once and reuses it every iteration.
//
// An Arena is NOT safe for concurrent use: conversion code grabs all
// scratch (including one buffer per worker) before fanning out to the
// worker pool. Slices obtained from an Arena are valid until the next
// Reset; results returned to callers are always freshly allocated and
// never come from an arena.
//
// All methods accept a nil receiver and fall back to plain make, so
// code paths read identically with and without an arena.
type Arena struct {
	ints aPool[int]
	i32  aPool[int32]
	u64  aPool[uint64]
	f32  aPool[float32]
	f64  aPool[float64]
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Reset reclaims every slice previously handed out. Callers must not
// use slices obtained before the Reset afterwards.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.ints.reset()
	a.i32.reset()
	a.u64.reset()
	a.f32.reset()
	a.f64.reset()
}

// Int returns a zeroed []int of length n.
func (a *Arena) Int(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return a.ints.get(n)
}

// Int32 returns a zeroed []int32 of length n.
func (a *Arena) Int32(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	return a.i32.get(n)
}

// Uint64 returns a zeroed []uint64 of length n.
func (a *Arena) Uint64(n int) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	return a.u64.get(n)
}

// Floats returns a zeroed []T of length n from the arena's pool for
// the element type (a free function because Go methods cannot add
// type parameters).
func Floats[T Float](a *Arena, n int) []T {
	if a == nil {
		return make([]T, n)
	}
	var zero T
	switch any(zero).(type) {
	case float32:
		if s, ok := any(a.f32.get(n)).([]T); ok {
			return s
		}
	case float64:
		if s, ok := any(a.f64.get(n)).([]T); ok {
			return s
		}
	}
	// Named float types fall outside the pools; allocate directly.
	return make([]T, n)
}

// aPool recycles slices of one element type. get prefers the first
// free slice with sufficient capacity; reset marks everything free
// again.
type aPool[E any] struct {
	all  [][]E
	free [][]E
}

func (p *aPool[E]) get(n int) []E {
	for i, s := range p.free {
		if cap(s) >= n {
			p.free = append(p.free[:i], p.free[i+1:]...)
			s = s[:n]
			clear(s)
			return s
		}
	}
	s := make([]E, n)
	p.all = append(p.all, s[:cap(s)])
	return s
}

func (p *aPool[E]) reset() {
	p.free = append(p.free[:0], p.all...)
}

// Resize returns a non-nil slice of length n that reuses buf's capacity
// when it suffices, for layouts rebuilt in place. Unlike an Arena slice
// it is not cleared: the caller overwrites every element.
func Resize[E any](buf []E, n int) []E {
	if buf != nil && cap(buf) >= n {
		return buf[:n]
	}
	return make([]E, n)
}
