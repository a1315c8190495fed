package distmv

import (
	"errors"
	"testing"

	"pjds/internal/core"
	"pjds/internal/gpu"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
)

func TestCheckFitAgainstRealFootprints(t *testing.T) {
	m := matgen.Banded(3000, 5, 25, 200, 1)
	pt, err := PartitionByNnz(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	problems, err := Distribute(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := CheckFit(problems, gpu.TeslaC2050(), FormatELLPACKR)
	if err != nil {
		t.Fatalf("small problem should fit: %v", err)
	}
	// The estimate must track the true format footprint closely.
	for i, rp := range problems {
		want := core.NewELLPACKR(rp.Local, matrix.ConvertOptions{}).FootprintBytes() +
			core.NewELLPACKR(rp.NonLocal, matrix.ConvertOptions{}).FootprintBytes()
		got := reports[i].FootprintBytes
		if got < want || got > want+int64(8*(rp.LocalRows()*2+rp.HaloSize()))+1024 {
			t.Errorf("rank %d: estimated %d, true format bytes %d", i, got, want)
		}
	}

	// pJDS estimate stays at or below ELLPACK-R's for the same data.
	pjReports, err := CheckFit(problems, gpu.TeslaC2050(), FormatPJDS)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reports {
		if pjReports[i].FootprintBytes > reports[i].FootprintBytes {
			t.Errorf("rank %d: pJDS estimate above ELLPACK-R", i)
		}
	}
}

func TestCheckFitRejectsTinyDevice(t *testing.T) {
	m := matgen.Banded(3000, 5, 25, 200, 1)
	pt, _ := PartitionByNnz(m, 2)
	problems, err := Distribute(m, pt)
	if err != nil {
		t.Fatal(err)
	}
	tiny := gpu.TeslaC2050()
	tiny.MemBytes = DeviceReserveBytes + 1024 // nothing left for data
	_, err = CheckFit(problems, tiny, FormatELLPACKR)
	if !errors.Is(err, ErrDeviceMemory) {
		t.Fatalf("want ErrDeviceMemory, got %v", err)
	}
}

// TestRunSpMVMFitGate reproduces the Fig. 5b constraint mechanism: a
// problem too big for the device memory is refused before any
// simulation, and admitted once enough nodes share it.
func TestRunSpMVMFitGate(t *testing.T) {
	m := matgen.Banded(4000, 10, 30, 200, 2)
	x := testVec(m.NCols)
	dev := gpu.TeslaC2050()
	// Shrink the device so the matrix fits on 4 nodes but not on 1.
	one, err := PartitionByNnz(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := Distribute(m, one)
	if err != nil {
		t.Fatal(err)
	}
	full, err := CheckFit(probs, dev, FormatELLPACKR)
	if err != nil {
		t.Fatal(err)
	}
	// Usable memory (after the ECC and runtime reservations) lands at
	// 3/4 of the single-node footprint: P=1 refused, P=4 admitted.
	dev.MemBytes = (DeviceReserveBytes + full[0].FootprintBytes*3/4) * 8 / 7

	if _, err := RunSpMVM(m, x, 1, TaskMode, Config{Iterations: 1, Device: dev}); !errors.Is(err, ErrDeviceMemory) {
		t.Fatalf("P=1 should be refused, got %v", err)
	}
	res, err := RunSpMVM(m, x, 4, TaskMode, Config{Iterations: 1, Device: dev})
	if err != nil {
		t.Fatalf("P=4 should fit: %v", err)
	}
	if rel, _ := VerifyAgainstSerial(m, x, res.Y); rel > 1e-10 {
		t.Errorf("P=4 result error %g", rel)
	}
	// SkipFitCheck overrides the gate.
	if _, err := RunSpMVM(m, x, 1, TaskMode, Config{Iterations: 1, Device: dev, SkipFitCheck: true}); err != nil {
		t.Fatalf("SkipFitCheck should admit P=1: %v", err)
	}
}
