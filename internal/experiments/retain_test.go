package experiments

import (
	"runtime"
	"testing"

	"pjds/internal/gpu"
)

// liveHeap returns the bytes reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFormatComparisonRetainsNoPlans checks that the §IV format
// comparison leaves nothing behind: its plans are one-shot, so neither
// they nor the formats and matrices they reference may stay in the
// package-default plan cache or anywhere else reachable once
// RunFormatComparison returns.
func TestFormatComparisonRetainsNoPlans(t *testing.T) {
	const scale = 0.005
	nnz := 0
	for _, name := range Table1Matrices() {
		m, err := Matrix(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		nnz += m.Nnz()
		DropCached(name, scale)
	}
	run := func() {
		if _, err := RunFormatComparison(scale, nil); err != nil {
			t.Fatal(err)
		}
	}
	run() // first-use set-up outside the measurement
	plans := gpu.Plans().Len()
	before := liveHeap()
	run()
	after := liveHeap()
	if n := gpu.Plans().Len(); n != plans {
		t.Errorf("default plan cache grew from %d to %d plans", plans, n)
	}
	// The run builds ten formats of every matrix, at least 12 bytes a
	// non-zero each; half of one CSR copy of the matrices leaves room
	// for pooled compile scratch and other noise.
	if grown, bound := int64(after)-int64(before), int64(12*nnz/2); grown > bound {
		t.Errorf("live heap grew by %d bytes, bound %d", grown, bound)
	}
}
