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
	problems, err := DistributeOpt(a, pt, matrix.ConvertOptions{Workers: cfg.Workers})
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
		RanksPerNode: ranksPerNode, Intra: cfg.IntraNodeFabric, Metrics: reg, Spans: cfg.Spans,
		Faults: cfg.Faults, Retry: cfg.Retry, HeartbeatSeconds: cfg.HeartbeatSeconds,
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
		prof, err := rp.Profile(cfg.Device, cfg.Format, xExt, reg, cfg.Workers)
		if err != nil {
			return err
		}
		rl := telemetry.Li("rank", c.Rank())
		reg.Gauge("distmv_rank_local_rows", rl).Set(float64(nloc))
		reg.Gauge("distmv_rank_halo_elems", rl).Set(float64(rp.HaloSize()))
		reg.Gauge("distmv_rank_send_elems", rl).Set(float64(rp.SendElems()))
		reg.Gauge("distmv_rank_neighbors", rl).Set(float64(rp.Neighbors()))

		it := &iterState{
			c: c, rp: rp, prof: prof, cfg: cfg, x: xExt[:nloc], want: xExt[nloc:],
			mode: mode, spans: cfg.Spans,
		}

		if err := c.Barrier(); err != nil {
			return err
		}
		start := c.Clock()
		for n := 0; n < cfg.Iterations; n++ {
			it.iter = n
			recordEvents := c.Rank() == 0 && n == 0
			var events []Event
			switch mode {
			case VectorMode:
				events, err = it.vectorMode(n, recordEvents)
			case NaiveOverlap:
				events, err = it.naiveOverlap(n, recordEvents)
			case TaskMode:
				events, err = it.taskMode(n, recordEvents)
			default:
				err = fmt.Errorf("distmv: unknown mode %d", mode)
			}
			if err != nil {
				return err
			}
			if recordEvents {
				res.Timeline = events
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
	prof *RankProfile
	cfg  Config
	x    []float64 // this rank's local x values
	want []float64 // expected halo values, for verification
	mode Mode
	// spans (nil = off) collects every rank's phase spans; iter is the
	// current timed iteration, stamped into each span's args.
	spans *telemetry.SpanLog
	iter  int
}

// laneCat maps a timeline lane to its trace category: the host lane
// carries communication work, the gpu lane kernel and PCIe work.
func laneCat(lane string) string {
	if lane == "gpu" {
		return "gpu"
	}
	return "comm"
}

// emit records e into the run's span log (when attached) with the
// rank, category, and iteration context the Fig. 4 Event type omits.
func (s *iterState) emit(e Event) {
	if s.spans == nil {
		return
	}
	s.spans.Add(telemetry.Span{
		Proc:  s.c.Rank(),
		Lane:  e.Lane,
		Cat:   laneCat(e.Lane),
		Name:  e.Name,
		Start: e.Start,
		End:   e.End,
		Args: map[string]string{
			"iteration": strconv.Itoa(s.iter),
			"mode":      s.mode.Slug(),
			"format":    s.cfg.Format.String(),
		},
	})
}

// gatherSeconds models the "local gather" of Fig. 4: packing the
// outgoing x elements into contiguous send buffers on the host.
func (s *iterState) gatherSeconds() float64 {
	return float64(8*s.rp.SendElems()) / s.cfg.HostGatherBW
}

// postExchange posts all receives and sends for iteration n and
// returns the requests (receives first). Payloads are freshly gathered
// x values — the real data of the distributed multiplication.
func (s *iterState) postExchange(n int) ([]*mpi.Request, []*mpi.Request) {
	var recvs, sends []*mpi.Request
	for o := 0; o < s.rp.P; o++ {
		if _, ok := s.rp.RecvCount[o]; ok {
			recvs = append(recvs, s.c.Irecv(o, n))
		}
	}
	for d := 0; d < s.rp.P; d++ {
		idx, ok := s.rp.SendIdx[d]
		if !ok {
			continue
		}
		buf := make([]float64, len(idx))
		for k, i := range idx {
			buf[k] = s.x[i]
		}
		sends = append(sends, s.c.Isend(d, n, buf, int64(8*len(buf))))
	}
	return recvs, sends
}

// absorbHalo verifies the received payloads against the expected halo
// values.
func (s *iterState) absorbHalo(recvs []*mpi.Request) error {
	for _, r := range recvs {
		m := r.Message
		vals, ok := m.Payload.([]float64)
		if !ok {
			return fmt.Errorf("distmv: rank %d got %T from %d", s.c.Rank(), m.Payload, m.Src)
		}
		off, ok := s.rp.HaloOffset[m.Src]
		if !ok {
			return fmt.Errorf("distmv: rank %d: unexpected sender %d", s.c.Rank(), m.Src)
		}
		for k, v := range vals {
			if s.want[off+k] != v {
				return fmt.Errorf("distmv: rank %d: halo value %d from %d is %g, want %g",
					s.c.Rank(), off+k, m.Src, v, s.want[off+k])
			}
		}
	}
	return nil
}

// span runs f, logs the covered virtual duration as a telemetry span,
// and returns it as a named Fig. 4 event.
func (s *iterState) span(lane, name string, f func()) Event {
	e := Event{Lane: lane, Name: name, Start: s.c.Clock()}
	f()
	e.End = s.c.Clock()
	s.emit(e)
	return e
}

// vectorMode: gather → exchange → upload full RHS → single-step
// kernel → download. Everything serialized (§III-A, first bullet).
func (s *iterState) vectorMode(n int, record bool) ([]Event, error) {
	c, link := s.c, s.cfg.Link
	var ev []Event
	add := func(e Event) {
		if record {
			ev = append(ev, e)
		}
	}
	add(s.span("host", "local gather", func() { c.Advance(s.gatherSeconds()) }))
	var recvs, sends []*mpi.Request
	add(s.span("host", "MPI_Isend/Irecv", func() { recvs, sends = s.postExchange(n) }))
	var err error
	add(s.span("host", "MPI_Waitall", func() {
		if err = c.Waitall(append(append([]*mpi.Request{}, sends...), recvs...)); err == nil {
			err = s.absorbHalo(recvs)
		}
	}))
	if err != nil {
		return nil, err
	}
	nloc := s.rp.LocalRows()
	add(s.span("gpu", "upload RHS", func() {
		c.Advance(link.TransferSeconds(int64(8 * (nloc + s.rp.HaloSize()))))
	}))
	add(s.span("gpu", "spMVM", func() { c.Advance(s.prof.Merged.KernelSeconds) }))
	add(s.span("gpu", "download LHS", func() { c.Advance(link.TransferSeconds(int64(8 * nloc))) }))
	return ev, nil
}

// naiveOverlap: nonblocking MPI posted around the local kernel
// (§III-A, second bullet). Whether any overlap actually happens is
// decided by Fabric.AsyncProgress.
func (s *iterState) naiveOverlap(n int, record bool) ([]Event, error) {
	c, link := s.c, s.cfg.Link
	var ev []Event
	add := func(e Event) {
		if record {
			ev = append(ev, e)
		}
	}
	add(s.span("host", "local gather", func() { c.Advance(s.gatherSeconds()) }))
	var recvs, sends []*mpi.Request
	add(s.span("host", "MPI_Isend/Irecv", func() { recvs, sends = s.postExchange(n) }))
	nloc := s.rp.LocalRows()
	add(s.span("gpu", "upload RHS", func() { c.Advance(link.TransferSeconds(int64(8 * nloc))) }))
	add(s.span("gpu", "local spMVM", func() { c.Advance(s.prof.Local.KernelSeconds) }))
	var err error
	add(s.span("host", "MPI_Waitall", func() {
		if err = c.Waitall(append(append([]*mpi.Request{}, sends...), recvs...)); err == nil {
			err = s.absorbHalo(recvs)
		}
	}))
	if err != nil {
		return nil, err
	}
	add(s.span("gpu", "upload halo", func() { c.Advance(link.TransferSeconds(int64(8 * s.rp.HaloSize()))) }))
	add(s.span("gpu", "non-local spMVM", func() { c.Advance(s.prof.NonLocal.KernelSeconds) }))
	add(s.span("gpu", "download LHS", func() { c.Advance(link.TransferSeconds(int64(8 * nloc))) }))
	return ev, nil
}

// taskMode: thread 0 drives MPI while the GPU computes the local part
// (Fig. 4); the two timelines join before the non-local part.
func (s *iterState) taskMode(n int, record bool) ([]Event, error) {
	c, link := s.c, s.cfg.Link
	var ev []Event
	add := func(e Event) {
		if record {
			ev = append(ev, e)
		}
	}
	t0 := c.Clock()

	// Communication thread: gather, post, and immediately drive the
	// transfers to completion (this is what the dedicated thread is
	// for — reliably asynchronous communication).
	add(s.span("host", "local gather", func() { c.Advance(s.gatherSeconds()) }))
	var recvs, sends []*mpi.Request
	add(s.span("host", "MPI_Isend/Irecv", func() { recvs, sends = s.postExchange(n) }))
	var err error
	add(s.span("host", "MPI_Waitall", func() {
		if err = c.Waitall(append(append([]*mpi.Request{}, sends...), recvs...)); err == nil {
			err = s.absorbHalo(recvs)
		}
	}))
	if err != nil {
		return nil, err
	}

	// GPU thread, concurrent from t0: upload local RHS, local kernel.
	nloc := s.rp.LocalRows()
	up := link.TransferSeconds(int64(8 * nloc))
	gpuDone := t0 + up + s.prof.Local.KernelSeconds
	upEv := Event{Lane: "gpu", Name: "upload RHS", Start: t0, End: t0 + up}
	locEv := Event{Lane: "gpu", Name: "local spMVM", Start: t0 + up, End: gpuDone}
	s.emit(upEv)
	s.emit(locEv)
	if record {
		ev = append(ev, upEv, locEv)
	}
	// Join: the non-local part needs both the halo and the GPU.
	if gpuDone > c.Clock() {
		c.SetClock(gpuDone)
	}
	add(s.span("gpu", "upload halo", func() { c.Advance(link.TransferSeconds(int64(8 * s.rp.HaloSize()))) }))
	add(s.span("gpu", "non-local spMVM", func() { c.Advance(s.prof.NonLocal.KernelSeconds) }))
	add(s.span("gpu", "download LHS", func() { c.Advance(link.TransferSeconds(int64(8 * nloc))) }))
	return ev, nil
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
