package gpu

import (
	"errors"
	"testing"

	"pjds/internal/matgen"
	"pjds/internal/telemetry"
)

// fireAt triggers an ECC event at one specific launch index.
type fireAt struct {
	at     int
	launch int
}

func (f *fireAt) ECCEvent(kernel string) bool {
	l := f.launch
	f.launch++
	return l == f.at
}

// TestECCAbortsLaunch: the injector aborts exactly the configured
// launch with a typed ECCError (exact text pinned), and healthy
// launches before it are untouched.
func TestECCAbortsLaunch(t *testing.T) {
	m := matgen.Stencil2D(12, 12)
	e := newELLR(m)
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, m.NRows)
	reg := telemetry.NewRegistry()
	opt := RunOptions{Faults: &fireAt{at: 1}, Metrics: reg}
	if _, err := RunSELL(TeslaC2070(), e, y, x, opt); err != nil {
		t.Fatalf("healthy launch 0 failed: %v", err)
	}
	_, err := RunSELL(TeslaC2070(), e, y, x, opt)
	var ecc *ECCError
	if !errors.As(err, &ecc) {
		t.Fatalf("err = %v, want *ECCError", err)
	}
	if got, want := err.Error(), "gpu: uncorrectable double-bit ECC error on ELLPACK-R"; got != want {
		t.Errorf("error text = %q, want %q", got, want)
	}
	if got := reg.Counter("gpu_ecc_errors_total", telemetry.L("kernel", "ELLPACK-R")).Value(); got != 1 {
		t.Errorf("ecc counter = %g", got)
	}
	if _, err := RunSELL(TeslaC2070(), e, y, x, opt); err != nil {
		t.Errorf("launch after the ECC event should be healthy here: %v", err)
	}
}
