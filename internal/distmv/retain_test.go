package distmv

import (
	"runtime"
	"testing"

	"pjds/internal/gpu"
	"pjds/internal/matgen"
	"pjds/internal/telemetry"
)

// liveHeap returns the bytes reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRunSpMVMRetainsNoPlans checks that a distributed run leaves
// nothing behind: its rank plans are one-shot, so neither they nor the
// rank formats they reference may stay in the package-default plan
// cache or anywhere else reachable once RunSpMVM returns.
func TestRunSpMVMRetainsNoPlans(t *testing.T) {
	a := matgen.DLR1(0.005, 1)
	x := testVec(a.NCols)
	run := func(mode Mode) {
		if _, err := RunSpMVM(a, x, 4, mode, Config{Iterations: 1, Telemetry: telemetry.NewRegistry()}); err != nil {
			t.Fatal(err)
		}
	}
	run(VectorMode) // first-use set-up outside the measurement
	plans := gpu.Plans().Len()
	before := liveHeap()
	for _, mode := range Modes() {
		run(mode)
	}
	after := liveHeap()
	if n := gpu.Plans().Len(); n != plans {
		t.Errorf("default plan cache grew from %d to %d plans", plans, n)
	}
	// Every run profiles ELLPACK-R formats of the whole matrix twice
	// over (local + non-local, and merged), at least 12 bytes a
	// non-zero each; half of one copy leaves room for pooled compile
	// scratch and other noise.
	if grown, bound := int64(after)-int64(before), int64(12*a.Nnz()/2); grown > bound {
		t.Errorf("live heap grew by %d bytes over %d runs, bound %d", grown, len(Modes()), bound)
	}
}
