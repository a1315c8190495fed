package hostkernel

import (
	"errors"
	"testing"
)

// logKernel is a fake Kernel that logs its id on every MulVec, writes
// its id to y[0], and fails from its failFrom-th call on (0-based; < 0
// never fails).
type logKernel struct {
	id, calls, failFrom int
	log                 *[]int
}

var errFake = errors.New("fake kernel failure")

func (k *logKernel) Name() string { return "fake" }
func (k *logKernel) Rows() int    { return 1 }
func (k *logKernel) Cols() int    { return 1 }
func (k *logKernel) Close()       {}

func (k *logKernel) MulVec(y, x []float64) error {
	*k.log = append(*k.log, k.id)
	k.calls++
	if k.failFrom >= 0 && k.calls > k.failFrom {
		return errFake
	}
	y[0] = float64(k.id)
	return nil
}

func (k *logKernel) MulVecAdd(y, x []float64) error { return k.MulVec(y, x) }

// fakes builds n logKernels sharing one call log, with one result
// vector each; kernel fail (if ≥ 0) fails from its failFrom-th call.
func fakes(n, fail, failFrom int) ([]Kernel, [][]float64, *[]int) {
	log := new([]int)
	ks := make([]Kernel, n)
	ys := make([][]float64, n)
	for i := range ks {
		k := &logKernel{id: i, failFrom: -1, log: log}
		if i == fail {
			k.failFrom = failFrom
		}
		ks[i], ys[i] = k, []float64{-1}
	}
	return ks, ys, log
}

// TestMeasure: one untimed apply per kernel, then rounds × len(ks)
// timed applies, each round applying every kernel once with the first
// kernel rotating; ys[i] holds kernel i's result; rounds < 1 counts as
// 1; a ys/ks length mismatch and a kernel's error are returned.
func TestMeasure(t *testing.T) {
	const n, rounds = 3, 5
	ks, ys, log := fakes(n, -1, 0)
	ts, err := Measure(ks, ys, []float64{1}, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != n {
		t.Fatalf("%d timings for %d kernels", len(ts), n)
	}
	if len(*log) != n+rounds*n {
		t.Fatalf("%d applies, want %d untimed + %d timed", len(*log), n, rounds*n)
	}
	for i := 0; i < n; i++ {
		if (*log)[i] != i {
			t.Fatalf("untimed applies %v, want each kernel once in order", (*log)[:n])
		}
	}
	first := map[int]bool{}
	for r := 0; r < rounds; r++ {
		round := (*log)[n+r*n : n+(r+1)*n]
		seen := map[int]bool{}
		for _, id := range round {
			seen[id] = true
		}
		if len(seen) != n {
			t.Fatalf("round %d applied %v, want every kernel once", r, round)
		}
		first[round[0]] = true
	}
	if len(first) != n {
		t.Errorf("kernels first in some round: %v, want all %d", first, n)
	}
	for i, y := range ys {
		if y[0] != float64(i) {
			t.Errorf("ys[%d] = %v, want kernel %d's result", i, y, i)
		}
		if ts[i].Best < 0 || ts[i].Spread < 0 {
			t.Errorf("kernel %d: %+v, want Best, Spread ≥ 0", i, ts[i])
		}
	}

	ks, ys, log = fakes(n, -1, 0)
	if _, err := Measure(ks, ys, []float64{1}, 0); err != nil {
		t.Fatal(err)
	}
	if len(*log) != 2*n {
		t.Errorf("rounds = 0: %d applies, want %d (one round)", len(*log), 2*n)
	}

	ks, ys, log = fakes(n, -1, 0)
	if _, err := Measure(ks, ys[:n-1], []float64{1}, 1); err == nil {
		t.Error("len(ys) != len(ks) accepted")
	}
	if len(*log) != 0 {
		t.Errorf("a rejected call applied kernels %v", *log)
	}

	for _, failFrom := range []int{0, 1, 3} { // untimed, first and last timed apply
		ks, ys, _ = fakes(n, 1, failFrom)
		if _, err := Measure(ks, ys, []float64{1}, 3); !errors.Is(err, errFake) {
			t.Errorf("kernel failing from call %d: err %v, want %v", failFrom, err, errFake)
		}
	}
}
