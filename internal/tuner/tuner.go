package tuner

import (
	"fmt"
	"math"
	"slices"
	"time"

	"pjds/internal/core"
	"pjds/internal/gpu"
	"pjds/internal/hostkernel"
	"pjds/internal/matrix"
	"pjds/internal/telemetry"
)

// SpanLane is the trace lane tuner spans are emitted on, so
// perfreport's critical-path analysis can attribute tuning cost
// separately from kernels and transfers.
const SpanLane = "tune"

// Config parameterizes a sweep. The zero value tunes for the Fermi
// C2070 with the process-default worker count.
type Config struct {
	// Device keys the tuning entry and bounds the grid (CMRS strips
	// must fit a warp); nil selects gpu.TeslaC2070().
	Device *gpu.Device
	// Workers is the host-kernel worker count used for the replays
	// (0 = process default). Recorded in the entry: timings are only
	// comparable at the same width.
	Workers int
	// Metrics receives the tuner_* counters; nil publishes to
	// telemetry.Default().
	Metrics *telemetry.Registry
	// Spans, when non-nil, receives one span per sweep stage on the
	// "tune" lane (offsets from the sweep start).
	Spans *telemetry.SpanLog
}

// pruneFactor is the model band of a sweep: a grid cell whose modeled
// traffic exceeds pruneFactor × the grid's best model is dropped before
// any measurement. The pJDS reference cell is never pruned — the
// measured-vs-reference gate needs it.
const pruneFactor = 1.5

func (c Config) device() *gpu.Device { return deviceOr(c.Device) }

func (c Config) metrics() *telemetry.Registry {
	if c.Metrics == nil {
		return telemetry.Default()
	}
	return c.Metrics
}

// Grid builds the default candidate grid for an n-row matrix: the CRS
// and pJDS presets, SELL-C-σ over C ∈ {4, 8, 16, 32} × σ ∈ {1, 256,
// 4096, n}, and CMRS strip heights {8, 32} clamped to the warp size.
// Degenerate duplicates (σ clamping collapses cells on small
// matrices) are deduplicated, keeping first occurrence order.
func Grid(n int, dev *gpu.Device) []Cell {
	dev = deviceOr(dev)
	cells := []Cell{
		{Format: "crs"},
		{Format: "pjds", C: 32, Sigma: n},
	}
	for _, c := range []int{4, 8, 16, 32} {
		for _, sigma := range []int{1, 256, 4096, n} {
			if sigma > n {
				sigma = n
			}
			if sigma < 1 {
				sigma = 1
			}
			cells = append(cells, Cell{Format: "sell", C: c, Sigma: sigma})
		}
	}
	for _, h := range []int{8, 32} {
		if h > dev.WarpSize {
			h = dev.WarpSize
		}
		if h > core.MaxStripHeight {
			h = core.MaxStripHeight
		}
		cells = append(cells, Cell{Format: "cmrs", Height: h})
	}
	seen := make(map[string]bool, len(cells))
	out := cells[:0]
	for _, c := range cells {
		if !seen[c.key()] {
			seen[c.key()] = true
			out = append(out, c)
		}
	}
	return out
}

// KernelFor instantiates the host kernel a cell names. All four
// contenders run in the original basis and are bit-identical to the
// naive reference, so a tuned pick can always be digest-checked
// against naive. The pJDS cell runs as its SELL-32-∞ equivalent.
func KernelFor(c Cell, m *matrix.CSR[float64], workers int, reg *telemetry.Registry) (hostkernel.Kernel, error) {
	return kernelFor(c, m, new(sweepScratch), hostkernel.Options{Workers: workers, Metrics: reg})
}

// sweepScratch is what the cells of a sweep share: one SELL layout,
// rebuilt in place for each SELL and pJDS cell, the arena its
// conversions take their scratch from, and one CMRS layout rebuilt for
// each CMRS cell.
type sweepScratch struct {
	layout core.SELL[float64]
	arena  matrix.Arena
	cmrs   core.CMRS[float64]
}

// kernelFor is KernelFor over sweep scratch: SELL, pJDS and CMRS cells
// rebuild sc's layouts, and their kernel reads them until it is closed.
func kernelFor(c Cell, m *matrix.CSR[float64], sc *sweepScratch, opt hostkernel.Options) (hostkernel.Kernel, error) {
	switch c.Format {
	case "crs":
		return hostkernel.New(hostkernel.KindBlocked, m, opt)
	case "pjds", "sell":
		chunk, sigma := c.sellGeometry(m.NRows)
		sc.arena.Reset()
		if err := sc.layout.Reset(m, chunk, sigma, matrix.ConvertOptions{Workers: opt.Workers, Arena: &sc.arena}); err != nil {
			return nil, err
		}
		return hostkernel.NewSELLFrom(&sc.layout, opt), nil
	case "cmrs":
		if err := sc.cmrs.Reset(m, c.Height, matrix.ConvertOptions{Workers: opt.Workers}); err != nil {
			return nil, err
		}
		return hostkernel.NewCMRSOver(&sc.cmrs, opt), nil
	}
	return nil, fmt.Errorf("tuner: unknown cell format %q", c.Format)
}

// sellGeometry returns the chunk height and sorting window of a SELL or
// pJDS cell on an n-row matrix; pJDS is SELL-32-∞.
func (c Cell) sellGeometry(n int) (chunk, sigma int) {
	if c.Format == "pjds" {
		return 32, max(n, 1)
	}
	return c.C, c.Sigma
}

// modelBytesPerNnz is the Eq. 1 traffic prediction the model pass
// ranks cells by: Eq. (1)'s per-nnz traffic 12 + 8α + 16/N_nzr with
// the format's own correction:
//
//   - pJDS/SELL: val+idx streams inflate by the zero-padding (1+β),
//     with β predicted exactly from the row lengths;
//   - CMRS: no padding, but one row-in-strip metadata byte per
//     non-zero;
//   - CRS: the scalar kernel's per-lane row walk breaks coalescing,
//     inflating val+idx by a device-dependent gather factor.
//
// For SELL and pJDS cells it sets the cell's β and also returns the
// layout's stored slot count; it returns 0 slots for the others.
func modelBytesPerNnz(c *Cell, pad *core.Padding, n int, alpha, nnzr float64, dev *gpu.Device) (float64, int64) {
	base := 8*alpha + 16/nnzr // RHS gather + LHS/rowLen streams, per nnz
	switch c.Format {
	case "crs":
		return 12*crsGather(dev) + base, 0
	case "cmrs":
		return 13 + base, 0
	}
	var stored int64
	stored, c.Beta = pad.Estimate(c.sellGeometry(n))
	return 12*(1+c.Beta) + base, stored
}

// crsGather is the scalar-CSR gather factor: each lane streams its own
// row, so a warp-step touches up to one segment per lane instead of
// sharing them; half the segment granularity over the element size is
// the simulator-observed midpoint between aligned and worst case.
func crsGather(dev *gpu.Device) float64 {
	return max(float64(dev.SegmentBytes)/16, 1)
}

// modelPass scores every cell with modelBytesPerNnz for a matrix with
// statistics st and row lengths lens, and returns each cell's stored
// slot count.
func modelPass(cells []Cell, st matrix.Stats, lens []int, dev *gpu.Device) []int64 {
	alpha := EstimateAlpha(st, dev)
	nnzr := st.AvgRowLen
	if nnzr <= 0 {
		nnzr = 1
	}
	pad := core.NewPadding(lens)
	stored := make([]int64, len(cells))
	for i := range cells {
		cells[i].ModelBytesPerNnz, stored[i] = modelBytesPerNnz(&cells[i], pad, len(lens), alpha, nnzr, dev)
	}
	return stored
}

// dominanceSlack is how much more traffic than a dominated cell its
// dominating cell may model. 1% is well inside the run-to-run spread
// of one cell's timed replays (10% and more on a shared host), so a
// cell within it has no model advantage a measurement could confirm.
const dominanceSlack = 1.01

// prune marks the cells of an n-row matrix's grid that the
// measurement pass skips and returns how many it marked. The model
// pass must have scored them. Two rules apply, and the pJDS reference
// cell is never pruned:
//
//   - the band: a cell modeling more than factor × the grid's best
//     bytes/nnz;
//   - dominance: a cell B for which a cell A inside the band models at
//     most dominanceSlack × B's bytes/nnz and is no worse on an axis
//     the model does not price (see dominates).
//
// groupKernel says whether the SELL kernel runs its eight-lane groups
// on the AVX-512 group kernel (core.GroupKernel()).
func prune(cells []Cell, n int, factor float64, groupKernel bool) int {
	best := math.Inf(1)
	for _, c := range cells {
		best = min(best, c.ModelBytesPerNnz)
	}
	inBand := make([]bool, len(cells))
	for i, c := range cells {
		inBand[i] = c.Format == "pjds" || c.ModelBytesPerNnz <= best*factor
	}
	pruned := 0
	for i, b := range cells {
		drop := !inBand[i]
		for j, a := range cells {
			drop = drop || inBand[j] && a.ModelBytesPerNnz <= dominanceSlack*b.ModelBytesPerNnz &&
				dominates(a, b, n, groupKernel)
		}
		cells[i].Pruned = drop
		if drop {
			pruned++
		}
	}
	return pruned
}

// dominates reports whether cell a is at least as fast as cell b on
// every axis the Eq. 1 model does not price, so that a model no worse
// than b's leaves b nothing to win. b is then a SELL or CMRS cell,
// never pJDS:
//
//   - a is a SELL or pJDS cell (pJDS as SELL-32-n) with b's chunk
//     height and a smaller sorting window, or pJDS itself against its
//     SELL-32-n duplicate. A larger window that cuts no padding only
//     permutes rows further from their neighbours' x entries
//     (arXiv:1307.6209 picks σ as small as the padding allows).
//   - groupKernel is set, a runs the eight-lane group kernel (a chunk
//     height that is a multiple of 8) and b runs a lane-by-lane Go
//     loop (SELL with C = 4, or CMRS).
func dominates(a, b Cell, n int, groupKernel bool) bool {
	if a.Format != "sell" && a.Format != "pjds" {
		return false
	}
	ac, as := a.sellGeometry(n)
	if b.Format == "sell" && b.C == ac && (as < b.Sigma || a.Format == "pjds" && as == b.Sigma) {
		return true
	}
	return groupKernel && ac%8 == 0 && (b.Format == "cmrs" || b.Format == "sell" && b.C%8 != 0)
}

// tune sweeps the grid for m, whose Fingerprint is fp, and returns the
// completed entry (not yet persisted — TuneOrLookup handles the DB
// round trip). Every cell
// first gets its model score; cells beyond the pruning band or
// dominated by a cell inside it (see prune) are skipped, survivors are
// measured one at a time through hostkernel.Measure: one untimed
// apply, then the best of 3 timed ones. The SELL and pJDS survivors
// share one layout, sized once for the largest of them and rebuilt in
// place for each; the CMRS survivors share another.
func tune(m *matrix.CSR[float64], name, fp string, cfg Config) (*Entry, error) {
	dev := cfg.device()
	reg := cfg.metrics()
	t0 := time.Now()
	span := func(stage string, start time.Time) {
		if cfg.Spans == nil {
			return
		}
		cfg.Spans.Add(telemetry.Span{
			Lane: SpanLane, Cat: SpanLane, Name: stage,
			Start: start.Sub(t0).Seconds(), End: time.Since(t0).Seconds(),
		})
	}

	lens := make([]int, m.NRows)
	for i := range lens {
		lens[i] = m.RowLen(i)
	}

	cells := Grid(m.NRows, dev)

	// Model pass: score every cell, then prune.
	tModel := time.Now()
	stored := modelPass(cells, matrix.ComputeStats(m), lens, dev)
	pruned := prune(cells, m.NRows, pruneFactor, core.GroupKernel())
	var slots int64
	for i := range cells {
		if !cells[i].Pruned {
			slots = max(slots, stored[i])
		}
	}
	span("model-prune", tModel)

	reg.Help("tuner_candidates_pruned_total", "grid cells rejected by the Eq. 1 model before measurement")
	reg.Counter("tuner_candidates_pruned_total").Add(float64(pruned))

	// Measurement pass: one cell at a time, one untimed apply then the
	// best of 3 timed ones.
	nnz := m.Nnz()
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1 + float64(i%7)*0.125
	}
	ys := [][]float64{make([]float64, m.NRows)}
	sc := &sweepScratch{layout: core.SELL[float64]{Val: make([]float64, 0, slots), ColIdx: make([]int32, 0, slots)}}
	winner := -1
	for i := range cells {
		if cells[i].Pruned {
			continue
		}
		tc := time.Now()
		k, err := kernelFor(cells[i], m, sc, hostkernel.Options{Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		ts, err := hostkernel.Measure([]hostkernel.Kernel{k}, ys, x, 3)
		k.Close()
		if err != nil {
			return nil, err
		}
		if nnz > 0 {
			cells[i].MeasuredNsPerNnz = float64(ts[0].Best.Nanoseconds()) / float64(nnz)
		}
		if winner < 0 || cells[i].MeasuredNsPerNnz < cells[winner].MeasuredNsPerNnz {
			winner = i
		}
		span("measure:"+cells[i].Label(), tc)
	}
	if winner < 0 {
		return nil, fmt.Errorf("tuner: every grid cell was pruned")
	}

	reg.Help("tuner_sweeps_total", "full (C, σ) tuning sweeps executed")
	reg.Counter("tuner_sweeps_total").Inc()
	reg.Help("tuner_candidates_measured_total", "grid cells measured with timed replays")
	reg.Counter("tuner_candidates_measured_total").Add(float64(len(cells) - pruned))

	return &Entry{
		Matrix:      name,
		Fingerprint: fp,
		Device:      dev.Name,
		Rows:        m.NRows,
		Cols:        m.NCols,
		Nnz:         nnz,
		Workers:     cfg.Workers,
		Winner:      cells[winner],
		Cells:       cells,
	}, nil
}

// TuneOrLookup consults the DB at path ("" = DefaultPath) before
// sweeping: a stored entry for the same structure fingerprint and
// device is a cache hit and returns immediately (no re-sweep); a miss
// tunes and appends. The bool result reports the cache hit. Lookups go
// through a per-path index kept for the life of the process, which
// decodes only the lines appended to the file since the previous
// lookup, by this process or any other writer.
func TuneOrLookup(m *matrix.CSR[float64], name, path string, cfg Config) (*Entry, bool, error) {
	if path == "" {
		path = DefaultPath
	}
	reg := cfg.metrics()
	reg.Help("tuner_cache_hits_total", "tuning requests answered from the persisted DB")
	reg.Help("tuner_cache_misses_total", "tuning requests that required a sweep")
	fp := Fingerprint(m)
	e, ok, err := indexFor(path).lookup(path, fp, cfg.device().Name)
	if err != nil {
		return nil, false, err
	}
	if ok {
		reg.Counter("tuner_cache_hits_total").Inc()
		e.Cells = slices.Clone(e.Cells) // the index keeps its own copy
		return &e, true, nil
	}
	reg.Counter("tuner_cache_misses_total").Inc()
	tuned, err := tune(m, name, fp, cfg)
	if err != nil {
		return nil, false, err
	}
	if err := Append(path, *tuned); err != nil {
		return nil, false, err
	}
	return tuned, false, nil
}
