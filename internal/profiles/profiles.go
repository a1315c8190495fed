// Package profiles propagates pprof phase labels through the hot
// paths and reads the resulting CPU/heap profiles back into per-phase
// attribution tables.
//
// The label vocabulary mirrors the span lanes (host, gpu, solver,
// mpi, convert) so that a profile sliced by the "phase" label lines
// up with the span-derived critical-path attribution: the same names
// answer "where did the wall clock go" (spans) and "where did the CPU
// samples go" (profile).
//
// Labeling strategy. pprof.Do restores the labels of the context it
// was given when it returns, so nesting it around an enclosing
// goroutine's labels silently clears them — and Go has no API to read
// the current goroutine's labels back. We therefore never nest:
//
//   - long-lived worker goroutines (par.Pool workers, gpu replay
//     workers, mpi rank goroutines) are labeled once at spawn with a
//     prebuilt context, which is allocation-free and covers their
//     whole lifetime;
//   - coordinating goroutines are re-labeled *sequentially* at stage
//     boundaries with SetPhase (convert → gpu → solver …), never
//     restored.
//
// SetGoroutineLabels with a prebuilt context performs no allocation,
// which is what keeps the hostkernel steady state at 0 allocs/op.
package profiles

import (
	"context"
	"runtime/pprof"
)

// Phase label values. These must match the telemetry span lanes — the
// perfreport -profile cross-check compares the two sets.
const (
	PhaseHost    = "host"
	PhaseGPU     = "gpu"
	PhaseSolver  = "solver"
	PhaseMPI     = "mpi"
	PhaseConvert = "convert"
)

// KnownPhases is the closed set of phase label values the repo emits,
// i.e. the span-lane vocabulary.
var KnownPhases = []string{PhaseHost, PhaseGPU, PhaseSolver, PhaseMPI, PhaseConvert}

// Ctx returns a context carrying a "phase" pprof label plus optional
// additional key/value pairs (given as k1, v1, k2, v2, ...). Build it
// once and adopt it with pprof.SetGoroutineLabels in each goroutine
// that should carry the labels: the per-use cost is then
// allocation-free.
func Ctx(phase string, kv ...string) context.Context {
	l := make([]string, 0, 2+len(kv))
	l = append(l, "phase", phase)
	l = append(l, kv...)
	return pprof.WithLabels(context.Background(), pprof.Labels(l...))
}

// SetPhase relabels the calling goroutine with phase plus optional
// key/value pairs. It replaces any previous labels rather than
// stacking, which is the intended use on coordinating goroutines that
// move through stages (convert, then gpu, then solver). It allocates
// a fresh label set, so call it at stage boundaries, not in loops.
func SetPhase(phase string, kv ...string) {
	pprof.SetGoroutineLabels(Ctx(phase, kv...))
}

// Clear removes all pprof labels from the calling goroutine.
func Clear() {
	pprof.SetGoroutineLabels(context.Background())
}
