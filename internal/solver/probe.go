package solver

import "pjds/internal/telemetry"

// Probe observes iterative progress: it is called after every
// completed iteration with the 1-based iteration count and the current
// convergence measure (residual norm for linear solvers, eigenvalue
// change for the power iteration).
type Probe func(iteration int, residual float64)

// Hooks is what a caller wraps around the shared CG and power
// iteration loops; the zero value runs a serial solve.
type Hooks struct {
	// Reduce turns a local partial sum into the global one (nil keeps
	// it); a distributed solve all-reduces across ranks here.
	Reduce func(local float64) (float64, error)
	// Before runs at the top of every iteration, before the operator
	// applies, with the 0-based iteration index; an error aborts.
	Before func(iteration int) error
	// After observes every completed iteration.
	After Probe
}

func (h Hooks) sum(local float64) (float64, error) {
	if h.Reduce == nil {
		return local, nil
	}
	return h.Reduce(local)
}

func (h Hooks) before(iteration int) error {
	if h.Before == nil {
		return nil
	}
	return h.Before(iteration)
}

func (h Hooks) after(iteration int, residual float64) {
	if h.After != nil {
		h.After(iteration, residual)
	}
}

// GaugeProbe returns a Probe publishing progress into reg (nil selects
// telemetry.Default()) as the solver_iterations and solver_residual
// gauges, labelled with the method name plus extras — callers running
// several solves concurrently must pass disambiguating extras (e.g. a
// rank label) so no two solves share a series.
func GaugeProbe(reg *telemetry.Registry, method string, extra ...telemetry.Label) Probe {
	if reg == nil {
		reg = telemetry.Default()
	}
	lbl := append([]telemetry.Label{telemetry.L("method", method)}, extra...)
	reg.Help("solver_iterations", "iterations completed by the most recent solve")
	reg.Help("solver_residual", "current convergence measure of the most recent solve")
	iters := reg.Gauge("solver_iterations", lbl...)
	resid := reg.Gauge("solver_residual", lbl...)
	return func(iteration int, residual float64) {
		iters.Set(float64(iteration))
		resid.Set(residual)
	}
}

// fanOut combines probes into one (nil when there are none).
func fanOut(probes []Probe) Probe {
	if len(probes) == 0 {
		return nil
	}
	return func(iteration int, residual float64) {
		for _, p := range probes {
			p(iteration, residual)
		}
	}
}
