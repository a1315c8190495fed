package distmv

import (
	"fmt"
	"math"
	"strconv"

	"pjds/internal/hostkernel"
	"pjds/internal/matrix"
	"pjds/internal/mpi"
	"pjds/internal/telemetry"
)

// RunSpMVM executes y = A·x on p simulated GPU nodes under the given
// communication mode: the matrix is partitioned by non-zeros, each
// rank profiles its kernels on the device simulator once, and the
// timed loop then repeats the per-iteration choreography cfg.Iterations
// times with real halo payloads flowing between the rank goroutines.
// The assembled Y is bit-decomposable against the serial reference
// (same split of every row sum into local + non-local partial sums).
func RunSpMVM(a *matrix.CSR[float64], x []float64, p int, mode Mode, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Link.Validate(); err != nil {
		return nil, fmt.Errorf("distmv: %w", err)
	}
	if len(x) != a.NCols {
		return nil, fmt.Errorf("distmv: |x| = %d on %dx%d matrix: %w", len(x), a.NRows, a.NCols, matrix.ErrShape)
	}
	partitioner := cfg.Partitioner
	if partitioner == nil {
		partitioner = PartitionByNnz
	}
	pt, err := partitioner(a, p)
	if err != nil {
		return nil, err
	}
	if pt.Ranks() != p {
		return nil, fmt.Errorf("distmv: partitioner produced %d blocks for %d ranks", pt.Ranks(), p)
	}
	problems, err := Distribute(a, pt)
	if err != nil {
		return nil, err
	}
	if !cfg.SkipFitCheck {
		if _, err := CheckFit(problems, cfg.Device, cfg.Format); err != nil {
			return nil, fmt.Errorf("P=%d: %w", p, err)
		}
	}

	res := &Result{
		Mode: mode, Format: cfg.Format, P: p, Iterations: cfg.Iterations,
		GlobalNnz: int64(a.Nnz()),
		Y:         make([]float64, a.NRows),
		Ranks:     make([]RankReport, p),
	}
	var totalSeconds float64 // written by rank 0

	ranksPerNode := cfg.GPUsPerNode
	if ranksPerNode < 1 {
		ranksPerNode = 1
	}
	reg := cfg.Telemetry
	reg.Help("distmv_rank_local_rows", "rows owned by the rank")
	reg.Help("distmv_rank_halo_elems", "RHS elements received from other ranks per iteration")
	reg.Help("distmv_rank_send_elems", "RHS elements sent to other ranks per iteration")
	reg.Help("distmv_rank_neighbors", "ranks this rank exchanges halos with")
	opts := mpi.Options{
		RanksPerNode: ranksPerNode, Metrics: reg, Spans: cfg.Spans, Faults: cfg.Faults,
	}
	_, err = mpi.RunWithOptions(p, cfg.Fabric, opts, func(c *mpi.Comm) error {
		rp := problems[c.Rank()]
		nloc := rp.LocalRows()

		// Untimed setup: extended RHS from the replicated input.
		xExt := make([]float64, nloc+rp.HaloSize())
		copy(xExt, x[rp.RowLo:rp.RowHi])
		for s, col := range rp.HaloCols {
			xExt[nloc+s] = x[col]
		}
		prof, err := rp.Profile(cfg.Device, cfg.Format, xExt, reg)
		if err != nil {
			return err
		}
		rl := telemetry.Li("rank", c.Rank())
		reg.Gauge("distmv_rank_local_rows", rl).Set(float64(nloc))
		reg.Gauge("distmv_rank_halo_elems", rl).Set(float64(rp.HaloSize()))
		reg.Gauge("distmv_rank_send_elems", rl).Set(float64(rp.SendElems()))
		reg.Gauge("distmv_rank_neighbors", rl).Set(float64(rp.Neighbors()))

		it := &iterState{
			c: c, rp: rp, halo: rp.Halo(c), prof: prof, cfg: cfg,
			x: xExt[:nloc], want: xExt[nloc:], mode: mode,
		}

		if err := c.Barrier(); err != nil {
			return err
		}
		start := c.Clock()
		for n := 0; n < cfg.Iterations; n++ {
			it.iter = n
			switch mode {
			case VectorMode:
				err = it.vectorMode()
			case NaiveOverlap:
				err = it.naiveOverlap()
			case TaskMode:
				err = it.taskMode()
			default:
				err = fmt.Errorf("distmv: unknown mode %d", mode)
			}
			if err != nil {
				return err
			}
		}
		end, err := c.AllreduceMax(c.Clock())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			totalSeconds = end - start
		}

		// Publish per-rank outputs (disjoint slices, synchronized by
		// the run's completion).
		copy(res.Y[rp.RowLo:rp.RowHi], prof.Y)
		res.Ranks[c.Rank()] = RankReport{
			Rank:      c.Rank(),
			LocalRows: nloc,
			HaloElems: rp.HaloSize(),
			SendElems: rp.SendElems(),
			Neighbors: rp.Neighbors(),
			Local:     prof.Local,
			NonLocal:  prof.NonLocal,
			Merged:    prof.Merged,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Seconds = totalSeconds
	res.PerIterSeconds = totalSeconds / float64(cfg.Iterations)
	if totalSeconds > 0 {
		res.GFlops = 2 * float64(res.GlobalNnz) * float64(cfg.Iterations) / totalSeconds / 1e9
	}
	runLbl := []telemetry.Label{
		telemetry.L("mode", mode.Slug()),
		telemetry.L("format", cfg.Format.String()),
		telemetry.Li("ranks", p),
	}
	reg.Help("distmv_runs_total", "distributed spMVM benchmark runs")
	reg.Counter("distmv_runs_total", runLbl...).Inc()
	reg.Help("distmv_iterations_total", "timed spMVM iterations executed")
	reg.Counter("distmv_iterations_total", runLbl...).Add(float64(cfg.Iterations))
	reg.Help("distmv_gflops", "aggregate useful GF/s of the last run (Fig. 5)")
	reg.Gauge("distmv_gflops", runLbl...).Set(res.GFlops)
	reg.Help("distmv_per_iter_seconds", "virtual wallclock per spMVM iteration of the last run")
	reg.Gauge("distmv_per_iter_seconds", runLbl...).Set(res.PerIterSeconds)
	return res, nil
}

// iterState carries one rank's loop-invariant data through the
// per-iteration choreographies.
type iterState struct {
	c    *mpi.Comm
	rp   *RankProblem
	halo *Halo
	prof *RankProfile
	cfg  Config
	x    []float64 // this rank's local x values
	want []float64 // expected halo values, for verification
	mode Mode
	// iter is the current timed iteration, stamped into each span's args.
	iter int
}

// laneCat maps a timeline lane to its trace category: the host lane
// carries communication work, the gpu lane kernel and PCIe work.
func laneCat(lane string) string {
	if lane == "gpu" {
		return "gpu"
	}
	return "comm"
}

// emit records one phase interval into the run's span log (nil = off)
// with the rank, category, and iteration context.
func (s *iterState) emit(lane, name string, start, end float64) {
	if s.cfg.Spans == nil {
		return
	}
	s.cfg.Spans.Add(telemetry.Span{
		Proc:  s.c.Rank(),
		Lane:  lane,
		Cat:   laneCat(lane),
		Name:  name,
		Start: start,
		End:   end,
		Args: map[string]string{
			"iteration": strconv.Itoa(s.iter),
			"mode":      s.mode.Slug(),
			"format":    s.cfg.Format.String(),
		},
	})
}

// span runs f and logs the virtual interval it covered as a phase span.
func (s *iterState) span(lane, name string, f func()) {
	start := s.c.Clock()
	f()
	s.emit(lane, name, start, s.c.Clock())
}

// post runs the local gather and posts the halo exchange, as the
// first two host phases of Fig. 4.
func (s *iterState) post() error {
	s.span("host", "local gather", s.halo.Gather)
	var err error
	s.span("host", "MPI_Isend/Irecv", func() { err = s.halo.Post(s.x) })
	return err
}

// wait completes the halo exchange as the MPI_Waitall phase and checks
// the filled halo against the replicated x.
func (s *iterState) wait() error {
	var halo []float64
	var err error
	s.span("host", "MPI_Waitall", func() { halo, err = s.halo.Wait() })
	if err != nil {
		return err
	}
	for k, v := range halo {
		if v != s.want[k] {
			return fmt.Errorf("distmv: rank %d: halo value %d is %g, want %g", s.c.Rank(), k, v, s.want[k])
		}
	}
	return nil
}

// vectorMode: gather → exchange → upload full RHS → single-step
// kernel → download. Everything serialized (§III-A, first bullet).
func (s *iterState) vectorMode() error {
	c, link := s.c, s.cfg.Link
	if err := s.post(); err != nil {
		return err
	}
	if err := s.wait(); err != nil {
		return err
	}
	nloc := s.rp.LocalRows()
	s.span("gpu", "upload RHS", func() {
		c.Advance(link.TransferSeconds(int64(8 * (nloc + s.rp.HaloSize()))))
	})
	s.span("gpu", "spMVM", func() { c.Advance(s.prof.Merged.KernelSeconds) })
	s.span("gpu", "download LHS", func() { c.Advance(link.TransferSeconds(int64(8 * nloc))) })
	return nil
}

// naiveOverlap: nonblocking MPI posted around the local kernel
// (§III-A, second bullet). Whether any overlap actually happens is
// decided by Fabric.AsyncProgress.
func (s *iterState) naiveOverlap() error {
	c, link := s.c, s.cfg.Link
	if err := s.post(); err != nil {
		return err
	}
	nloc := s.rp.LocalRows()
	s.span("gpu", "upload RHS", func() { c.Advance(link.TransferSeconds(int64(8 * nloc))) })
	s.span("gpu", "local spMVM", func() { c.Advance(s.prof.Local.KernelSeconds) })
	if err := s.wait(); err != nil {
		return err
	}
	s.span("gpu", "upload halo", func() { c.Advance(link.TransferSeconds(int64(8 * s.rp.HaloSize()))) })
	s.span("gpu", "non-local spMVM", func() { c.Advance(s.prof.NonLocal.KernelSeconds) })
	s.span("gpu", "download LHS", func() { c.Advance(link.TransferSeconds(int64(8 * nloc))) })
	return nil
}

// taskMode: thread 0 drives MPI while the GPU computes the local part
// (Fig. 4); the two timelines join before the non-local part.
func (s *iterState) taskMode() error {
	c, link := s.c, s.cfg.Link
	t0 := c.Clock()

	// Communication thread: gather, post, and immediately drive the
	// transfers to completion (this is what the dedicated thread is
	// for — reliably asynchronous communication).
	if err := s.post(); err != nil {
		return err
	}
	if err := s.wait(); err != nil {
		return err
	}

	// GPU thread, concurrent from t0: upload local RHS, local kernel.
	nloc := s.rp.LocalRows()
	up := link.TransferSeconds(int64(8 * nloc))
	gpuDone := t0 + up + s.prof.Local.KernelSeconds
	s.emit("gpu", "upload RHS", t0, t0+up)
	s.emit("gpu", "local spMVM", t0+up, gpuDone)
	// Join: the non-local part needs both the halo and the GPU.
	if gpuDone > c.Clock() {
		c.SetClock(gpuDone)
	}
	s.span("gpu", "upload halo", func() { c.Advance(link.TransferSeconds(int64(8 * s.rp.HaloSize()))) })
	s.span("gpu", "non-local spMVM", func() { c.Advance(s.prof.NonLocal.KernelSeconds) })
	s.span("gpu", "download LHS", func() { c.Advance(link.TransferSeconds(int64(8 * nloc))) })
	return nil
}

// VerifyAgainstSerial compares a distributed result with the serial
// reference (computed by the one-shot blocked CRS host kernel, which is
// bit-identical to naive CRS), returning the maximum relative error.
func VerifyAgainstSerial(a *matrix.CSR[float64], x, y []float64) (float64, error) {
	ref := make([]float64, a.NRows)
	if err := hostkernel.MulVec(a, ref, x); err != nil {
		return 0, err
	}
	maxRel := 0.0
	for i := range ref {
		d := math.Abs(y[i] - ref[i])
		scale := 1 + math.Abs(ref[i])
		if rel := d / scale; rel > maxRel {
			maxRel = rel
		}
	}
	return maxRel, nil
}
