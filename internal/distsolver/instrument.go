package distsolver

import (
	"strconv"

	"pjds/internal/gpu"
	"pjds/internal/mpi"
	"pjds/internal/solver"
	"pjds/internal/telemetry"
)

// Instrument attaches telemetry to a distributed solve: convergence
// gauges go to Metrics (nil selects telemetry.Default()), and
// per-exchange / per-iteration spans to Spans (nil disables them).
// All series carry a rank label, so concurrent rank goroutines never
// share a gauge series and output stays deterministic.
type Instrument struct {
	Metrics *telemetry.Registry
	Spans   *telemetry.SpanLog
	// Device (optional) switches the solve's spMVM from the host
	// bytes/bandwidth model to the GPU simulator: the operator builds
	// ELLPACK-R device formats once per solve and each application
	// charges the simulated local+non-local kernel time to the rank
	// clock. Results stay bit-identical to the host path (the device
	// kernel sums each row in CSR order).
	Device *gpu.Device
}

// registry resolves the target registry (Default when unset).
func (in *Instrument) registry() *telemetry.Registry {
	if in == nil || in.Metrics == nil {
		return telemetry.Default()
	}
	return in.Metrics
}

// emit records one span on one of the rank's lanes.
func (in *Instrument) emit(rank int, lane, cat, name string, start, end float64, args map[string]string) {
	if in == nil || in.Spans == nil {
		return
	}
	in.Spans.Add(telemetry.Span{
		Proc: rank, Lane: lane, Cat: cat, Name: name,
		Start: start, End: end, Args: args,
	})
}

// spanned runs f and logs its virtual duration on c's clock. kv holds
// optional extra span args as key/value pairs (e.g. exchange byte
// counts), so reports can attribute cost without re-deriving it.
func (in *Instrument) spanned(c *mpi.Comm, rank int, cat, name string, iter int, f func() error, kv ...string) error {
	start := c.Clock()
	err := f()
	if in != nil && in.Spans != nil {
		args := map[string]string{"iteration": strconv.Itoa(iter)}
		for i := 0; i+1 < len(kv); i += 2 {
			args[kv[i]] = kv[i+1]
		}
		in.emit(rank, "solver", cat, name, start, c.Clock(), args)
	}
	return err
}

// hooks wires one rank's solve into the shared loops of
// internal/solver: local sums all-reduce over c, and before (optional)
// runs at the top of every iteration. With an Instrument, every
// iteration also becomes a span called span on the rank's solver lane
// and moves the solver_iterations/solver_residual gauges of method.
func (in *Instrument) hooks(c *mpi.Comm, rank int, method, span string, before func(iteration int) error) solver.Hooks {
	var t0 float64
	h := solver.Hooks{
		Reduce: c.AllreduceSum,
		Before: func(iteration int) error {
			if before != nil {
				if err := before(iteration); err != nil {
					return err
				}
			}
			t0 = c.Clock()
			return nil
		},
	}
	if in == nil {
		return h
	}
	gauges := solver.GaugeProbe(in.registry(), method, telemetry.Li("rank", rank))
	h.After = func(iteration int, residual float64) {
		in.emit(rank, "solver", "solver", span, t0, c.Clock(),
			map[string]string{"iteration": strconv.Itoa(iteration)})
		gauges(iteration, residual)
	}
	return h
}

// firstInstrument picks the effective instrument from a variadic tail.
func firstInstrument(inst []*Instrument) *Instrument {
	for _, in := range inst {
		if in != nil {
			return in
		}
	}
	return nil
}
