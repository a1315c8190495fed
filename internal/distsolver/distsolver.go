// Package distsolver turns the distributed spMVM of internal/distmv
// into reusable iterative solvers — the "application of our results to
// a production-grade eigensolver" of the paper's outlook. Each rank
// owns a contiguous row block; a Halo engine exchanges the remote RHS
// elements every iteration (the iterate changes, unlike the fixed-x
// benchmark loop), reductions run over the virtual-time collectives,
// and results are bit-comparable to the serial solvers.
package distsolver

import (
	"errors"
	"fmt"
	"math"
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

// Halo is one rank's reusable halo-exchange engine. Exchange sends the
// locally-owned x elements its neighbours need and fills the halo
// buffer with theirs, charging the rank's virtual clock for gather,
// injection and arrival times.
type Halo struct {
	rp   *distmv.RankProblem
	c    *mpi.Comm
	buf  []float64
	tick int
	// GatherBW models the host-side pack of send buffers (B/s).
	GatherBW float64
}

// NewHalo builds the engine for one rank.
func NewHalo(rp *distmv.RankProblem, c *mpi.Comm) *Halo {
	return &Halo{
		rp:       rp,
		c:        c,
		buf:      make([]float64, rp.HaloSize()),
		GatherBW: 8e9,
	}
}

// Exchange distributes x (this rank's owned elements) and returns the
// filled halo buffer, valid until the next call.
func (h *Halo) Exchange(x []float64) ([]float64, error) {
	rp, c := h.rp, h.c
	if len(x) != rp.LocalRows() {
		return nil, fmt.Errorf("distsolver: rank %d Exchange |x|=%d, own %d rows", rp.Rank, len(x), rp.LocalRows())
	}
	tag := h.tick
	h.tick++
	c.Advance(float64(8*rp.SendElems()) / h.GatherBW)
	var recvs, all []*mpi.Request
	for o := 0; o < rp.P; o++ {
		if _, ok := rp.RecvCount[o]; ok {
			r := c.Irecv(o, tag)
			recvs = append(recvs, r)
			all = append(all, r)
		}
	}
	for d := 0; d < rp.P; d++ {
		idx, ok := rp.SendIdx[d]
		if !ok {
			continue
		}
		buf := make([]float64, len(idx))
		for k, i := range idx {
			buf[k] = x[i]
		}
		all = append(all, c.Isend(d, tag, buf, int64(8*len(buf))))
	}
	if err := c.Waitall(all); err != nil {
		return nil, err
	}
	for _, r := range recvs {
		vals, ok := r.Message.Payload.([]float64)
		if !ok {
			return nil, fmt.Errorf("distsolver: rank %d got %T from %d", rp.Rank, r.Message.Payload, r.Message.Src)
		}
		// Verify the received element count against the partition's
		// expected halo size before copying: a short (or oversized)
		// message would otherwise silently corrupt neighbouring halo
		// segments.
		if want := rp.RecvCount[r.Message.Src]; len(vals) != want {
			return nil, &HaloSizeError{Rank: rp.Rank, Src: r.Message.Src, GotElems: len(vals), WantElems: want}
		}
		copy(h.buf[rp.HaloOffset[r.Message.Src]:], vals)
	}
	return h.buf, nil
}

// HaloSizeError reports a halo message whose element count does not
// match the partition's expected size for that link.
type HaloSizeError struct {
	Rank, Src           int
	GotElems, WantElems int
}

func (e *HaloSizeError) Error() string {
	return fmt.Sprintf("distsolver: rank %d halo from %d carries %d elements, partition expects %d",
		e.Rank, e.Src, e.GotElems, e.WantElems)
}

// Operator applies the distributed matrix: y = A_loc·x + A_nl·halo(x),
// with one halo exchange per application. Kernel time is charged to
// the rank clock with a simple bytes/bandwidth model of the host
// kernels; UseDevice switches to the GPU simulator's transaction-level
// timing instead (what internal/distmv measures for the fixed-x
// benchmark loop).
type Operator struct {
	RP   *distmv.RankProblem
	Halo *Halo
	c    *mpi.Comm
	// KernelBW is the modelled spMVM memory bandwidth (B/s) used to
	// advance the virtual clock per application; 0 disables timing.
	// Ignored once UseDevice is called.
	KernelBW float64
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
	devWorkers  int

	// Host kernels for the split application, built lazily on the first
	// host-path Apply (pure host runs and the ECC downgrade path) from
	// the process-default hostkernel kind. Workers is pinned to 1:
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
func (op *Operator) UseDevice(dev *gpu.Device, workers int) error {
	if err := dev.Validate(); err != nil {
		return err
	}
	op.dev = dev
	op.devWorkers = workers
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
			Workers:    op.devWorkers,
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

// hostMul runs the split application on the blocked hostkernel CRS
// kernels (y = A_loc·x, then y += A_nl·halo, bit-identical to the
// naive split), charging the bytes/bandwidth timing model.
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
	if op.KernelBW > 0 {
		bytes := float64(12 * (op.RP.Local.Nnz() + op.RP.NonLocal.Nnz()))
		op.c.Advance(op.slow() * bytes / op.KernelBW)
	}
	return nil
}

// NewOperator builds the distributed operator for one rank.
func NewOperator(rp *distmv.RankProblem, c *mpi.Comm) *Operator {
	return &Operator{RP: rp, Halo: NewHalo(rp, c), c: c, KernelBW: 20e9}
}

// Dim returns the number of locally owned rows.
func (op *Operator) Dim() int { return op.RP.LocalRows() }

// Apply computes the local slice of y = A·x.
func (op *Operator) Apply(y, x []float64) error {
	n := op.applies
	op.applies++
	var halo []float64
	err := op.Inst.spanned(op.c, op.RP.Rank, "comm", "halo exchange", n, func() (err error) {
		halo, err = op.Halo.Exchange(x)
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

// Dot returns the global dot product of two distributed vectors.
func Dot(c *mpi.Comm, x, y []float64) (float64, error) {
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return c.AllreduceSum(s)
}

// Norm2 returns the global 2-norm of a distributed vector.
func Norm2(c *mpi.Comm, x []float64) (float64, error) {
	d, err := Dot(c, x, x)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(d), nil
}
