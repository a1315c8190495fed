// Package distsolver turns the distributed spMVM of internal/distmv
// into reusable iterative solvers — the "application of our results to
// a production-grade eigensolver" of the paper's outlook. Each rank
// owns a contiguous row block; distmv's halo engine, the same one the
// Fig. 5 benchmark loop runs, exchanges the remote RHS elements every
// iteration (the iterate changes, unlike the fixed-x benchmark loop),
// reductions run over the virtual-time collectives, and results are
// bit-comparable to the serial solvers.
package distsolver

import (
	"errors"
	"strconv"

	"pjds/internal/core"
	"pjds/internal/distmv"
	"pjds/internal/flight"
	"pjds/internal/gpu"
	"pjds/internal/hostkernel"
	"pjds/internal/matrix"
	"pjds/internal/mpi"
	"pjds/internal/telemetry"
)

// hostKernelBW is the modelled memory bandwidth (B/s) of the host
// spMVM kernels, which advances the rank clock per host application.
const hostKernelBW = 20e9

// Operator applies the distributed matrix: y = A_loc·x + A_nl·halo(x),
// with one halo exchange per application. Kernel time is charged to
// the rank clock with a simple bytes/bandwidth model of the host
// kernels; UseDevice switches to the GPU simulator's transaction-level
// timing instead (what internal/distmv measures for the fixed-x
// benchmark loop).
type Operator struct {
	RP   *distmv.RankProblem
	halo *distmv.Halo
	c    *mpi.Comm
	// Inst (optional) records each application's halo exchange and
	// spMVM as spans on the rank's solver lane.
	Inst    *Instrument
	applies int

	// Faults (optional) injects simulated uncorrectable ECC events into
	// the device kernels. When one fires, the operator latches Degraded
	// and every application from then on runs the host CPU kernels
	// instead — bit-identically, since both paths sum each row in
	// stored column order. Only the timing model changes.
	Faults gpu.ECCInjector
	// Slow is a compute-slowdown multiplier applied to every kernel
	// charge on the rank clock (0 or 1 = full speed). The recovery
	// driver sets it > 1 for logical ranks re-hosted on a surviving
	// node, where they share that node's device and memory bandwidth.
	Slow float64
	// Degraded reports that an ECC event evicted this rank from its
	// device; DegradedAt is the Apply index that took the hit.
	Degraded   bool
	DegradedAt int

	// Device state, set by UseDevice: the ELLPACK-R forms of the local
	// and non-local blocks are built once per solve, so every Apply
	// after the first replays cached kernel plans.
	dev         *gpu.Device
	devLocal    *core.SELL[float64]
	devNonLocal *core.SELL[float64]

	// Host kernels for the split application, built lazily on the first
	// host-path Apply (pure host runs and the ECC downgrade path) from
	// the process-default hostkernel kind, SELL-8-σ unless a CLI's
	// -host-kernel flag chose another. Workers is pinned to 1:
	// ranks are already process-parallel, so intra-rank worker pools
	// would only oversubscribe the node.
	hostLocal    hostkernel.Kernel
	hostNonLocal hostkernel.Kernel
}

// UseDevice routes every subsequent Apply through the GPU simulator on
// dev: the local kernel computes y = A_loc·x, the non-local kernel
// accumulates y += A_nl·halo (adding the LHS read traffic of §III-A),
// and the rank clock advances by the simulated kernel times. The
// numeric result is bit-identical to the host path — both sum each row
// in stored column order.
func (op *Operator) UseDevice(dev *gpu.Device) error {
	if err := dev.Validate(); err != nil {
		return err
	}
	op.dev = dev
	op.devLocal = core.NewELLPACKR(op.RP.Local, matrix.ConvertOptions{})
	op.devNonLocal = core.NewELLPACKR(op.RP.NonLocal, matrix.ConvertOptions{})
	return nil
}

// slow resolves the compute-slowdown multiplier (identity when unset).
func (op *Operator) slow() float64 {
	if op.Slow > 1 {
		return op.Slow
	}
	return 1
}

// degrade latches the host fallback after an uncorrectable ECC event
// and records the eviction for telemetry.
func (op *Operator) degrade(at int) {
	op.Degraded = true
	op.DegradedAt = at
	op.Inst.registry().Counter("distsolver_ecc_downgrades_total",
		telemetry.Li("rank", op.RP.Rank)).Inc()
	flight.Record(flight.Error, "solver.ecc_downgrade", op.RP.Rank, 0, "operator degraded to host path after ECC event", float64(at))
}

// deviceMul runs the split kernels on the simulator and advances the
// rank clock by their simulated duration. An uncorrectable ECC event
// in either kernel degrades the operator to the host path for this
// and every following application; because y may hold a partial
// result from the local kernel, the host fallback recomputes the full
// application from scratch.
func (op *Operator) deviceMul(y, x, halo []float64) error {
	var reg *telemetry.Registry
	if op.Inst != nil {
		reg = op.Inst.Metrics
	}
	opt := func(phase string, acc bool) gpu.RunOptions {
		return gpu.RunOptions{
			Accumulate: acc,
			Metrics:    reg,
			Faults:     op.Faults,
			MetricLabels: []telemetry.Label{
				telemetry.Li("rank", op.RP.Rank),
				telemetry.L("phase", phase),
			},
		}
	}
	var ecc *gpu.ECCError
	stL, err := gpu.RunSELL(op.dev, op.devLocal, y, x, opt("solver-local", false))
	if errors.As(err, &ecc) {
		op.degrade(op.applies - 1)
		return op.hostMul(y, x, halo)
	}
	if err != nil {
		return err
	}
	stN, err := gpu.RunSELL(op.dev, op.devNonLocal, y, halo, opt("solver-non-local", true))
	if errors.As(err, &ecc) {
		op.degrade(op.applies - 1)
		return op.hostMul(y, x, halo)
	}
	if err != nil {
		return err
	}
	op.c.Advance(op.slow() * (stL.KernelSeconds + stN.KernelSeconds))
	return nil
}

// hostMul runs the split application on the process-default hostkernel
// kind, SELL-8-σ unless a -host-kernel flag chose another (y = A_loc·x,
// then y += A_nl·halo, bit-identical to the naive split), charging the
// CRS bytes/bandwidth timing model whatever the kind.
func (op *Operator) hostMul(y, x, halo []float64) error {
	if op.hostLocal == nil {
		opt := hostkernel.Options{Workers: 1}
		kind := hostkernel.DefaultKind()
		local, err := hostkernel.New(kind, op.RP.Local, opt)
		if err != nil {
			return err
		}
		nonLocal, err := hostkernel.New(kind, op.RP.NonLocal, opt)
		if err != nil {
			local.Close()
			return err
		}
		op.hostLocal, op.hostNonLocal = local, nonLocal
	}
	if err := op.hostLocal.MulVec(y, x); err != nil {
		return err
	}
	if err := op.hostNonLocal.MulVecAdd(y, halo); err != nil {
		return err
	}
	bytes := float64(12 * (op.RP.Local.Nnz() + op.RP.NonLocal.Nnz()))
	op.c.Advance(op.slow() * bytes / hostKernelBW)
	return nil
}

// NewOperator builds the distributed operator for one rank.
func NewOperator(rp *distmv.RankProblem, c *mpi.Comm) *Operator {
	return &Operator{RP: rp, halo: rp.Halo(c), c: c}
}

// newSolveOperator builds a solve's operator for one rank, instrumented
// and routed to the instrument's device when it names one.
func newSolveOperator(rp *distmv.RankProblem, c *mpi.Comm, in *Instrument) (*Operator, error) {
	op := NewOperator(rp, c)
	op.Inst = in
	if in != nil && in.Device != nil {
		if err := op.UseDevice(in.Device); err != nil {
			return nil, err
		}
	}
	return op, nil
}

// Dim returns the number of locally owned rows.
func (op *Operator) Dim() int { return op.RP.LocalRows() }

// Apply computes the local slice of y = A·x.
func (op *Operator) Apply(y, x []float64) error {
	n := op.applies
	op.applies++
	var halo []float64
	err := op.Inst.spanned(op.c, op.RP.Rank, "comm", "halo exchange", n, func() (err error) {
		halo, err = op.halo.Exchange(x)
		return err
	}, "send_bytes", strconv.Itoa(8*op.RP.SendElems()),
		"recv_bytes", strconv.Itoa(8*op.RP.HaloSize()))
	if err != nil {
		return err
	}
	return op.Inst.spanned(op.c, op.RP.Rank, "gpu", "spMVM", n, func() error {
		if op.dev != nil && !op.Degraded {
			return op.deviceMul(y, x, halo)
		}
		return op.hostMul(y, x, halo)
	})
}
