package gpu

import (
	"testing"

	"pjds/internal/core"
	"pjds/internal/telemetry"
)

// TestRunCMRSBitIdentical: the CMRS replay accumulates each row in CSR
// element order, so its result is bit-identical to the naive reference
// at every worker count.
func TestRunCMRSBitIdentical(t *testing.T) {
	d := TeslaC2070()
	m := randomCSR(333, 270, 0.04, 71)
	x := randVec(270, 72)
	ref := refMulVec(t, m, x)
	for _, height := range []int{1, 8, 16, 32} {
		c, err := core.NewCMRS(m, height)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 8} {
			y := make([]float64, 333)
			if _, err := RunCMRS(d, c, y, x, RunOptions{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			for i := range y {
				if y[i] != ref[i] {
					t.Fatalf("height=%d workers=%d: y[%d] = %x, want %x", height, workers, i, y[i], ref[i])
				}
			}
		}
	}
}

func TestRunCMRSAccumulate(t *testing.T) {
	d := TeslaC2070()
	m := bandedCSR(200, 3, 12, 73)
	x := randVec(200, 74)
	ref := refMulVec(t, m, x)
	c, err := core.NewCMRS(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, 200)
	for i := range y {
		y[i] = 2.5
	}
	if _, err := RunCMRS(d, c, y, x, RunOptions{Accumulate: true}); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if y[i] != ref[i]+2.5 {
			t.Fatalf("accumulate y[%d] = %g, want %g", i, y[i], ref[i]+2.5)
		}
	}
}

// TestCMRSCoalescing: CMRS streams val/colidx in unit stride with no
// padding. The transaction model still charges the segments a
// misaligned warp-step straddles (strips start at arbitrary CSR
// offsets), so efficiency lands between the worst-case misalignment
// bound and 1 — but unlike ELLPACK-style formats it can never decay
// with row-length skew, because no lane ever streams a padding slot.
func TestCMRSCoalescing(t *testing.T) {
	d := TeslaC2070()
	m := randomCSR(512, 512, 0.03, 75)
	c, err := core.NewCMRS(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(512, 76)
	y := make([]float64, 512)
	st, err := RunCMRS(d, c, y, x, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Worst case per warp-step: val 8·32 B useful over 3 segments and
	// idx 4·32 B over 2 → (256+128)/(5·128) = 0.6.
	if st.CoalescingEfficiency < 0.6-1e-9 || st.CoalescingEfficiency > 1+1e-9 {
		t.Errorf("CMRS coalescing efficiency %.3f outside [0.6, 1]", st.CoalescingEfficiency)
	}
	if st.Nnz != int64(m.Nnz()) {
		t.Errorf("nnz %d, want %d", st.Nnz, m.Nnz())
	}
}

func TestRunCMRSValidation(t *testing.T) {
	d := TeslaC2070()
	m := randomCSR(64, 64, 0.1, 77)
	c, err := core.NewCMRS(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCMRS(d, c, make([]float64, 64), make([]float64, 5), RunOptions{}); err == nil {
		t.Error("short x accepted")
	}
	if _, err := RunCMRS(d, c, make([]float64, 5), make([]float64, 64), RunOptions{}); err == nil {
		t.Error("short y accepted")
	}
	// Strip height above the warp size cannot be scattered in-warp.
	tall, err := core.NewCMRS(m, d.WarpSize+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCMRS(d, tall, make([]float64, 64), make([]float64, 64), RunOptions{}); err == nil {
		t.Error("strip height above warp size accepted")
	}
}

// TestCMRSFormatGeometryTelemetry: RunCMRS and RunSELL (sliced ELL) publish the
// zero-padding/occupancy gauges with their parameter labels.
func TestCMRSFormatGeometryTelemetry(t *testing.T) {
	d := TeslaC2070()
	m := randomCSR(128, 128, 0.05, 79)
	reg := telemetry.NewRegistry()
	c, err := core.NewCMRS(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, 128)
	x := randVec(128, 80)
	if _, err := RunCMRS(d, c, y, x, RunOptions{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	s, err := newSliced(m, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSELL(d, s, y, x, RunOptions{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var occCMRS, betaSELL float64
	var sawCMRS, sawSELL bool
	for _, mt := range snap {
		switch mt.Name {
		case "gpu_format_chunk_occupancy":
			if mt.Labels["kernel"] == "CMRS" {
				occCMRS, sawCMRS = mt.Value, true
			}
		case "gpu_format_zero_padding":
			if mt.Labels["sigma"] == "64" {
				betaSELL, sawSELL = mt.Value, true
			}
		}
	}
	if !sawCMRS || occCMRS != 1 {
		t.Errorf("CMRS occupancy gauge: saw=%v value=%g, want 1", sawCMRS, occCMRS)
	}
	if !sawSELL || betaSELL < 0 {
		t.Errorf("SELL zero-padding gauge: saw=%v value=%g", sawSELL, betaSELL)
	}
}
