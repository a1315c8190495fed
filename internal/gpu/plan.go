package gpu

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"pjds/internal/core"
	"pjds/internal/matrix"
	"pjds/internal/profiles"
)

// defaultWorkers holds the package-wide worker-count default applied
// when RunOptions.Workers is 0. A stored value ≤ 0 selects
// runtime.GOMAXPROCS(0). The CLIs set it from their -workers flag so
// the experiment drivers need no per-call plumbing.
var defaultWorkers atomic.Int32

// SetDefaultWorkers sets the package default for RunOptions.Workers=0
// callers: n ≤ 0 restores the GOMAXPROCS default, 1 forces sequential
// execution everywhere, n > 1 enables n-way warp parallelism.
func SetDefaultWorkers(n int) { defaultWorkers.Store(int32(n)) }

// DefaultWorkers returns the effective package default worker count.
func DefaultWorkers() int {
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// planSource describes one storage format's warp-level access pattern
// to the shared plan compiler and replay loop. Every kernel that uses
// it stores its elements chunk-major: element (i, j) of padded row i
// lives at chunkStart[i/chunk] + j*chunk + i%chunk. The SELL presets
// and CMRS differ only in these fields; everything else — coalescing
// analysis, L2 simulation, divergence accounting, the numeric warp
// loop and the worker pool — is shared.
type planSource[T matrix.Float] struct {
	kernel           string
	rows, cols, nPad int
	nnz              int64
	// metaSegs is the number of coalesced metadata segments (row
	// lengths, slice offsets) every warp loads.
	metaSegs int64
	// val and col back the numeric replay and the RHS gather.
	val        []T
	col        []int32
	chunk      int
	chunkStart []int64
	// steps[i] is the number of SIMT steps padded row i executes on the
	// device (its true row length, or the global maximum for plain
	// ELLPACK, which computes on padding); lens[i] is the true row
	// length the numeric replay walks.
	steps, lens []int32
	// colStart, when non-nil, replaces the chunk-major device address
	// of (i, j) by the jagged-diagonal address colStart[j]+i (pJDS,
	// Listing 2) in the coalescing analysis.
	colStart []int32

	// The optional hooks below cover element-parallel kernels (CMRS)
	// whose warps do not map one lane to one row. All three default to
	// the row-parallel behaviour when nil.
	//
	// mul replaces the default per-lane dot-product executor for one
	// warp; sum is a warpSize-long scratch buffer. Implementations must
	// keep warps writing disjoint y rows (the parallel-replay contract)
	// and accumulate each row in stored column order (the bit-identity
	// contract).
	mul func(sum, y, x []T, wbase int, accumulate bool)
	// lhsRows reports the result rows warp [wbase, wbase+lanes) writes;
	// nil means rows wbase..wbase+lanes clipped to rows.
	lhsRows func(wbase, lanes int) (lo, hi int)
	// metaBytes reports the warp's metadata traffic; nil charges the
	// flat metaSegs coalesced segments.
	metaBytes func(wbase, lanes int) int64
}

// base returns the storage offset of element (i, 0).
func (src *planSource[T]) base(i int) int64 {
	return src.chunkStart[i/src.chunk] + int64(i%src.chunk)
}

// warpPlan is the compiled schedule of one warp: its geometry plus
// every transaction-level counter the simulator would derive for it.
// All fields depend only on matrix structure and device geometry, so
// they are computed once at compile time — including the RHS L2
// misses, which the compiler resolves by replaying the gather stream
// through the cache model in sequential warp order. Replays therefore
// never touch the (order-dependent) cache simulator, which is what
// makes parallel execution bit-exact.
type warpPlan struct {
	wbase, lanes, maxLen int
	laneSteps            int64
	bytesVal, bytesIdx   int64
	bytesRHS, metaBytes  int64
	lhsSegs              int64 // result-vector segments (doubled when accumulating)
	rhsProbes, rhsMisses int64
}

// Plan is the compiled execution schedule of one (matrix, format,
// device-geometry) pair: per-warp lane counts, step bounds, stream
// segment totals and the pre-resolved RHS descriptor outcomes. Run*
// calls replay it — numeric work plus counter addition — instead of
// re-deriving the geometry every iteration. Plans are immutable after
// compilation and safe for concurrent replay.
type Plan[T matrix.Float] struct {
	src       planSource[T]
	elemBytes int
	warpSize  int
	segBytes  int64
	warps     []warpPlan
	// labels is the prebuilt pprof label context replay workers adopt
	// at spawn (phase=gpu, kernel=...): built once at compile time so
	// labeling a fresh goroutine costs no allocation at replay time.
	labels context.Context
}

// Kernel returns the kernel name the plan was compiled for.
func (p *Plan[T]) Kernel() string { return p.src.kernel }

// Warps returns the number of warps the plan schedules.
func (p *Plan[T]) Warps() int { return len(p.warps) }

// compilePlan runs the full transaction-level analysis once: warp
// geometry, val/idx coalescing, the LHS segment count, and the RHS
// gather replayed through the L2 model in sequential warp order.
func compilePlan[T matrix.Float](d *Device, src planSource[T]) *Plan[T] {
	es := core.SizeofElem[T]()
	ws := d.WarpSize
	segShift := log2(d.SegmentBytes)
	segBytes := int64(d.SegmentBytes)
	secShift := log2(d.GatherSectorBytes)
	secBytes := int64(d.GatherSectorBytes)
	l2 := newCache(d.L2, d.GatherSectorBytes)
	var valSegs, idxSegs, rhsSegs, lhsSegs segCounter
	base := make([]int64, ws)
	stride := int64(src.chunk)

	p := &Plan[T]{
		src:       src,
		elemBytes: es,
		warpSize:  ws,
		segBytes:  segBytes,
		warps:     make([]warpPlan, 0, (src.nPad+ws-1)/ws),
		labels:    profiles.Ctx(profiles.PhaseGPU, "kernel", src.kernel),
	}
	for wbase := 0; wbase < src.nPad; wbase += ws {
		lanes := ws
		if wbase+lanes > src.nPad {
			lanes = src.nPad - wbase
		}
		maxLen := 0
		for lane := 0; lane < lanes; lane++ {
			if l := int(src.steps[wbase+lane]); l > maxLen {
				maxLen = l
			}
			base[lane] = src.base(wbase + lane)
		}
		wp := warpPlan{
			wbase: wbase, lanes: lanes, maxLen: maxLen,
			metaBytes: src.metaSegs * segBytes,
		}
		if src.metaBytes != nil {
			wp.metaBytes = src.metaBytes(wbase, lanes)
		}
		for j := 0; j < maxLen; j++ {
			valSegs.reset()
			idxSegs.reset()
			rhsSegs.reset()
			for lane := 0; lane < lanes; lane++ {
				i := wbase + lane
				if j >= int(src.steps[i]) {
					continue // lane idle: reserved but useless (light boxes of Fig. 2b)
				}
				at := base[lane] + int64(j)*stride
				c := src.col[at]
				if src.colStart != nil {
					at = int64(src.colStart[j]) + int64(i)
				}
				wp.laneSteps++
				valSegs.add(addrVal+at*int64(es), segShift)
				idxSegs.add(addrIdx+at*4, segShift)
				rhsSegs.add(addrRHS+int64(c)*int64(es), secShift)
			}
			wp.bytesVal += int64(len(valSegs.segs)) * segBytes
			wp.bytesIdx += int64(len(idxSegs.segs)) * segBytes
			for _, sec := range rhsSegs.segs {
				wp.rhsProbes++
				if !l2.probe(sec << secShift) {
					wp.rhsMisses++
					wp.bytesRHS += secBytes
				}
			}
		}
		lhsLo, lhsHi := wbase, min(wbase+lanes, src.rows)
		if src.lhsRows != nil {
			lhsLo, lhsHi = src.lhsRows(wbase, lanes)
		}
		wp.lhsSegs = lhsSegments(&lhsSegs, lhsLo, lhsHi, es, segShift)
		p.warps = append(p.warps, wp)
	}
	return p
}

// mulWarp executes one warp's arithmetic: each lane's dot product over
// its true row length in ascending step order (the same per-row order
// as the sequential simulator, so results are bit-exact for any
// schedule), committed to the rows the warp owns. The lane's chunk base
// is computed once; the inner loop only advances by the chunk stride.
// Warps own disjoint row ranges, so concurrent calls never write the
// same element.
func (p *Plan[T]) mulWarp(wp *warpPlan, sum, y, x []T, accumulate bool) {
	src := &p.src
	if src.mul != nil {
		src.mul(sum, y, x, wp.wbase, accumulate)
		return
	}
	val, col, stride := src.val, src.col, int64(src.chunk)
	for i := wp.wbase; i < min(wp.wbase+wp.lanes, src.rows); i++ {
		at := src.base(i)
		var s T
		for j := src.lens[i]; j > 0; j-- {
			s += val[at] * x[col[at]]
			at += stride
		}
		if accumulate {
			y[i] += s
		} else {
			y[i] = s
		}
	}
}

// addWarp accumulates one compiled warp's counters into s.
func (s *KernelStats) addWarp(wp *warpPlan, segBytes int64, accumulate bool) {
	s.Warps++
	if wp.maxLen > 0 {
		s.ActiveWarps++
	}
	s.WarpSteps += int64(wp.maxLen)
	s.ExecutedLaneSteps += wp.laneSteps
	s.BytesVal += wp.bytesVal
	s.BytesIdx += wp.bytesIdx
	s.BytesRHS += wp.bytesRHS
	lhs := wp.lhsSegs * segBytes
	if accumulate {
		lhs *= 2
	}
	s.BytesLHS += lhs
	s.BytesMeta += wp.metaBytes
	s.RHSProbes += wp.rhsProbes
	s.RHSMisses += wp.rhsMisses
}

// mergeShard folds one worker's counter shard into s. Every field is
// an integer sum over warps, so the merge is exact and independent of
// the schedule; shards are still merged in fixed worker order so the
// reduction is deterministic by construction, not by argument.
func (s *KernelStats) mergeShard(o *KernelStats) {
	s.Warps += o.Warps
	s.ActiveWarps += o.ActiveWarps
	s.WarpSteps += o.WarpSteps
	s.ExecutedLaneSteps += o.ExecutedLaneSteps
	s.BytesVal += o.BytesVal
	s.BytesIdx += o.BytesIdx
	s.BytesRHS += o.BytesRHS
	s.BytesLHS += o.BytesLHS
	s.BytesMeta += o.BytesMeta
	s.RHSProbes += o.RHSProbes
	s.RHSMisses += o.RHSMisses
}

// run replays the plan: numeric warp execution (sequential or on a
// worker pool) plus per-warp counter accumulation, then the derived
// timing on the actual device (which may differ from the compile
// device in bandwidth-only fields such as the ECC mode).
func (p *Plan[T]) run(d *Device, y, x []T, opt RunOptions) *KernelStats {
	st := &KernelStats{
		Kernel: p.src.kernel, Rows: p.src.rows, Nnz: p.src.nnz,
		UsefulFlops: 2 * p.src.nnz, ElemBytes: p.elemBytes,
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(p.warps) {
		workers = len(p.warps)
	}
	if workers <= 1 {
		sum := make([]T, p.warpSize)
		for i := range p.warps {
			wp := &p.warps[i]
			p.mulWarp(wp, sum, y, x, opt.Accumulate)
			st.addWarp(wp, p.segBytes, opt.Accumulate)
		}
	} else {
		// Chunked self-scheduling: workers claim fixed-size runs of
		// consecutive warps from an atomic cursor. The assignment of
		// warps to workers is racy, but no output depends on it: y
		// rows are disjoint and the shards merge exactly.
		chunk := len(p.warps) / (workers * 4)
		if chunk < 1 {
			chunk = 1
		}
		if chunk > 256 {
			chunk = 256
		}
		shards := make([]KernelStats, workers)
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(sh *KernelStats) {
				defer wg.Done()
				// Fresh goroutine: adopt the plan's phase=gpu labels
				// for its whole (short) life. Prebuilt context, so
				// this allocates nothing per replay.
				pprof.SetGoroutineLabels(p.labels)
				sum := make([]T, p.warpSize)
				for {
					hi := int(cursor.Add(int64(chunk)))
					lo := hi - chunk
					if lo >= len(p.warps) {
						return
					}
					if hi > len(p.warps) {
						hi = len(p.warps)
					}
					for i := lo; i < hi; i++ {
						wp := &p.warps[i]
						p.mulWarp(wp, sum, y, x, opt.Accumulate)
						sh.addWarp(wp, p.segBytes, opt.Accumulate)
					}
				}
			}(&shards[w])
		}
		wg.Wait()
		for w := range shards {
			st.mergeShard(&shards[w])
		}
	}
	st.finish(d, p.warpSize)
	st.Publish(opt.Metrics, opt.MetricLabels...)
	return st
}
