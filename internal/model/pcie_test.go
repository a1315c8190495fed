package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGen2x16(t *testing.T) {
	l := Gen2x16()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// One bandwidth-worth of bytes ≈ 1 s + latency.
	got := l.TransferSeconds(int64(l.BytesPerSecond))
	if math.Abs(got-(1+l.LatencySeconds)) > 1e-9 {
		t.Errorf("1-second transfer = %g s", got)
	}
}

func TestZeroByteTransferFree(t *testing.T) {
	l := Gen2x16()
	if l.TransferSeconds(0) != 0 {
		t.Error("zero-byte transfer should be free")
	}
	if l.TransferSeconds(-5) != 0 {
		t.Error("negative size should be free")
	}
}

func TestLatencyDominatesSmallTransfers(t *testing.T) {
	l := Gen2x16()
	small := l.TransferSeconds(64)
	if small < l.LatencySeconds || small > 2*l.LatencySeconds {
		t.Errorf("64 B transfer = %g, should be latency-dominated", small)
	}
}

func TestRoundTrip(t *testing.T) {
	l := Gen2x16()
	rt := l.RoundTripSeconds(1000, 2000)
	want := l.TransferSeconds(1000) + l.TransferSeconds(2000)
	if rt != want {
		t.Errorf("round trip = %g, want %g", rt, want)
	}
	// Upload only.
	if l.RoundTripSeconds(1000, 0) != l.TransferSeconds(1000) {
		t.Error("empty download should cost nothing")
	}
}

func TestTransferMonotone(t *testing.T) {
	l := Gen2x16()
	f := func(a, b int64) bool {
		x, y := a&0xfffffff, b&0xfffffff
		if x > y {
			x, y = y, x
		}
		return l.TransferSeconds(x) <= l.TransferSeconds(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
