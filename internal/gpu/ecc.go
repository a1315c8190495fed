package gpu

import (
	"fmt"

	"pjds/internal/flight"
	"pjds/internal/telemetry"
)

// ECCInjector is the device-fault hook: the simulator calls ECCEvent
// once per kernel launch (before any work is modelled), and a true
// return aborts the launch with an ECCError. internal/faults provides
// the standard seeded implementation; implementations must be
// deterministic in their own launch counting, never in host time.
type ECCInjector interface {
	ECCEvent(kernel string) bool
}

// ECCError reports a simulated uncorrectable double-bit ECC error on a
// kernel launch. Real GPGPU runtimes poison the context after one of
// these — the paper's §II motivation for ECC-capable Fermi boards —
// so callers must treat the device as lost and fall back to a host
// path (see the service's device-then-host operator, applyOp).
type ECCError struct {
	Kernel string
}

func (e *ECCError) Error() string {
	return fmt.Sprintf("gpu: uncorrectable double-bit ECC error on %s", e.Kernel)
}

// eccCheck consults the injector for one launch, counting the event
// when it fires.
func eccCheck(opt RunOptions, kernel string) error {
	if opt.Faults == nil || !opt.Faults.ECCEvent(kernel) {
		return nil
	}
	reg := opt.Metrics
	if reg == nil {
		reg = telemetry.Default()
	}
	reg.Help("gpu_ecc_errors_total", "injected uncorrectable double-bit ECC events")
	lbl := append([]telemetry.Label{telemetry.L("kernel", kernel)}, opt.MetricLabels...)
	reg.Counter("gpu_ecc_errors_total", lbl...).Inc()
	flight.Record(flight.Error, "gpu.ecc", -1, 0, "uncorrectable double-bit ECC event on kernel launch", 0)
	return &ECCError{Kernel: kernel}
}
