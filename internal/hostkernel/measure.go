package hostkernel

import (
	"fmt"
	"time"
)

// Timing is one kernel's wall-clock result from Measure: its fastest
// timed apply, and the slowest timed apply minus the fastest.
type Timing struct {
	Best, Spread time.Duration
}

// Measure is the one way to time host kernels. It applies each kernel
// of ks once untimed, y = A·x into ys[i], then runs rounds rounds
// (minimum 1), each timing one apply of every kernel. The kernel that
// goes first rotates from round to round, so load on a shared host and
// the cache state one kernel leaves behind land on every kernel alike.
// On return ys[i] holds kernel i's result.
func Measure(ks []Kernel, ys [][]float64, x []float64, rounds int) ([]Timing, error) {
	if len(ys) != len(ks) {
		return nil, fmt.Errorf("hostkernel: measure: %d kernels, %d result vectors", len(ks), len(ys))
	}
	for i, k := range ks {
		if err := k.MulVec(ys[i], x); err != nil {
			return nil, err
		}
	}
	ts := make([]Timing, len(ks))
	worst := make([]time.Duration, len(ks))
	for r := 0; r < max(rounds, 1); r++ {
		for j := range ks {
			i := (r + j) % len(ks)
			t0 := time.Now()
			if err := ks[i].MulVec(ys[i], x); err != nil {
				return nil, err
			}
			d := time.Since(t0)
			if r == 0 || d < ts[i].Best {
				ts[i].Best = d
			}
			worst[i] = max(worst[i], d)
		}
	}
	for i := range ts {
		ts[i].Spread = worst[i] - ts[i].Best
	}
	return ts, nil
}
