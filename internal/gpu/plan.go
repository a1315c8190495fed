package gpu

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"pjds/internal/core"
	"pjds/internal/matrix"
	"pjds/internal/model"
	"pjds/internal/par"
	"pjds/internal/profiles"
	"pjds/internal/telemetry"
)

// planSource describes one storage format's warp-level access pattern
// to the shared plan compiler and replay loop. nPad lanes run in warps
// of the device's warp size, and every kernel that uses it stores its
// elements chunk-major: step j of lane l touches storage position
// chunkStart[l/chunk] + j*chunk + l%chunk. The SELL presets, CSR-scalar,
// CSR-vector, ELLPACK-R from CSR, ELLR-T and BELLPACK differ only
// in these fields; everything else — coalescing analysis, L2
// simulation, divergence accounting, the worker pool and the
// telemetry — is shared.
type planSource[T matrix.Float] struct {
	kernel           string
	rows, cols, nPad int
	nnz              int64
	// metaSegs is the number of coalesced metadata segments (row
	// lengths, slice offsets) every warp loads.
	metaSegs int64
	// col backs the RHS gather analysis: lane l reads entry e's column
	// at its index slot, or, when rowPtr is set (ELLPACK-R straight
	// from the CSR), at col[rowPtr[l] + e]. The index stream is charged
	// at the slot either way.
	col        []int32
	rowPtr     []int
	chunk      int
	chunkStart []int64
	// lens and group give every lane its SIMT step count. The lanes
	// form consecutive groups of group lanes (a power of two dividing
	// the warp size) that stride one element run of length lens[g]
	// jointly: lane t of group g runs ceil((lens[g] − t)/group) steps.
	// One lane per row is group 1 with lens the row lengths; CSR-vector
	// puts a whole warp on one row, ELLR-T T lanes on one row.
	lens  []int32
	group int
	// block is the shape BR×BC of the dense blocks whose elements share
	// one column index (BELLPACK, reference [2]); the zero value means
	// 1×1, the shape of every other kernel. Lane l runs BC steps per
	// entry of lens[(l/BR)/group] (group counted in blocks). Its step j
	// reads the index slot base(l) − l + l/BR + (j/BC)·chunk/BR — its
	// element position with the lane replaced by the block's — charged
	// to the index stream only when j%BC == 0, and gathers column
	// col[slot]·BC + j%BC. A lane whose column reaches cols (a partial
	// block at the matrix's right edge) idles for that step.
	block [2]int
	// reduceSteps is the intra-warp reduction every warp adds to its
	// SIMT steps when a group's lanes share one row.
	reduceSteps int64
	// colStart, when non-nil, replaces the chunk-major device address
	// of (i, j) by the jagged-diagonal address colStart[j]+i (pJDS,
	// Listing 2) in the coalescing analysis.
	colStart []int32
	// geometry, when non-nil, labels the format-geometry gauges every
	// replay publishes (after kernel and device); stored is the slot
	// count, padding included, they compare with nnz.
	geometry []telemetry.Label
	stored   int64

	// mul executes the arithmetic of warps [wlo, whi). It must keep
	// distinct warps writing disjoint y rows (the parallel-replay
	// contract) and accumulate each row in stored column order (the
	// bit-identity contract).
	mul func(y, x []T, wlo, whi int, accumulate bool)
	// lhsRows reports the result rows warp [wbase, wbase+lanes) writes,
	// for kernels whose warps do not map one lane to one row
	// (CSR-vector, ELLR-T); nil means rows wbase..wbase+lanes clipped to
	// rows.
	lhsRows func(wbase, lanes int) (lo, hi int)
}

// base returns the storage offset of element (i, 0).
func (src *planSource[T]) base(i int) int64 {
	return src.chunkStart[i/src.chunk] + int64(i%src.chunk)
}

// blockShape returns the source's block rows and columns, 1×1 unless
// set.
func (src *planSource[T]) blockShape() (br, bc int) {
	return max(src.block[0], 1), max(src.block[1], 1)
}

// Plan is the compiled execution schedule of one (matrix, format,
// device-geometry) pair. Every transaction-level counter depends only
// on matrix structure and device geometry, so compilation sums them
// over all warps once — including the RHS L2 misses, which the
// compiler resolves by replaying the gather stream through the cache
// model in sequential warp order. A replay is then numeric work plus a
// copy of the totals: it never touches the (order-dependent) cache
// simulator, which is what makes parallel execution bit-exact. Plans
// are immutable after compilation, apart from their telemetry handle
// cache, and safe for concurrent replay.
type Plan[T matrix.Float] struct {
	src      planSource[T]
	warpSize int
	// total holds every counter of one non-accumulating replay; the
	// derived fields are filled per run by finish.
	total KernelStats
	// beta and occ are the format-geometry gauge values (see
	// planSource.geometry).
	beta, occ float64
	// labels is the prebuilt pprof label context replay workers adopt
	// at spawn (phase=gpu, kernel=...): built once at compile time so
	// labeling a fresh goroutine costs no allocation at replay time.
	labels context.Context

	mu     sync.Mutex
	series []*planSeries // most recently added last, at most maxPlanSeries
}

// Kernel returns the kernel name the plan was compiled for.
func (p *Plan[T]) Kernel() string { return p.src.kernel }

// Warps returns the number of warps the plan schedules.
func (p *Plan[T]) Warps() int { return p.total.Warps }

// compileScratch is the reusable working state of one plan compile:
// the L2 model, the per-step RHS sector set and the warp's lanes.
// Compiles borrow it from compileScratches, so a warm compile allocates
// none of them.
type compileScratch struct {
	l2    model.LRU
	rhs   sectorSet
	lanes []laneState
}

// laneState is one lane of the warp being compiled: its element 0's
// storage offset, its first index slot, where its column indices start
// in planSource.col and its step count.
type laneState struct {
	base, slot, col int64
	steps           int32
}

var compileScratches = sync.Pool{New: func() any { return new(compileScratch) }}

// sectorSet de-duplicates the RHS gather sectors of one warp step in
// first-touch order, which is the L2 probe order. Membership is an
// epoch stamp per sector of the RHS vector, so starting the next step
// costs one increment instead of a clear.
type sectorSet struct {
	stamp []uint32 // stamp[k] == epoch: sector k is in the current step
	epoch uint32
	secs  []int64 // the step's distinct sectors, first touch first
}

// size makes room for sectors [0, n) and starts an empty step. Stamps
// left over from earlier uses are all below the epoch, so a reused
// array needs no clear.
func (s *sectorSet) size(n int) {
	if cap(s.stamp) < n {
		s.stamp = make([]uint32, n)
	}
	s.stamp = s.stamp[:n]
	s.next()
}

// next starts an empty step. When the epoch wraps, every stamp the
// array has ever held is cleared, so none can match a future epoch.
func (s *sectorSet) next() {
	s.secs = s.secs[:0]
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp[:cap(s.stamp)])
		s.epoch = 1
	}
}

// add records sector sec, stored at index k.
func (s *sectorSet) add(k int, sec int64) {
	if s.stamp[k] != s.epoch {
		s.stamp[k] = s.epoch
		s.secs = append(s.secs, sec)
	}
}

// compilePlan runs the full transaction-level analysis once: warp
// geometry, val/idx coalescing, the LHS segment count, and the RHS
// gather replayed through the L2 model in sequential warp order.
func compilePlan[T matrix.Float](d *Device, src planSource[T]) *Plan[T] {
	sc := compileScratches.Get().(*compileScratch)
	defer compileScratches.Put(sc)
	return compilePlanWith(d, src, sc)
}

// compilePlanWith is compilePlan on caller-supplied scratch.
//
// Every plan source stores a step's active lanes at increasing
// addresses: within a chunk the lane is the address offset, a later
// chunk starts after every element of an earlier one, and the jagged
// diagonals of pJDS are contiguous in the row. The lanes of a block
// share its index slot, so index addresses never decrease either. The
// val and idx segments of a step are then non-decreasing in the lane,
// so the distinct ones are counted as runs.
func compilePlanWith[T matrix.Float](d *Device, src planSource[T], sc *compileScratch) *Plan[T] {
	es := int64(core.SizeofElem[T]())
	ws := d.WarpSize
	segShift := log2(d.SegmentBytes)
	segBytes := int64(d.SegmentBytes)
	secShift := log2(d.GatherSectorBytes)
	secBytes := int64(d.GatherSectorBytes)
	l2 := configureCache(&sc.l2, d.L2, d.GatherSectorBytes)
	// RHS element c lies in sector (addrRHS + c·es) >> secShift, stored
	// at that minus the sector of element 0.
	rhs := &sc.rhs
	sec0 := int64(addrRHS) >> secShift
	rhs.size(int((addrRHS+int64(max(src.cols, 1)-1)*es)>>secShift - sec0 + 1))
	if cap(sc.lanes) < ws {
		sc.lanes = make([]laneState, ws)
	}
	stride := int64(src.chunk)
	br, bc := src.blockShape()
	slotStride, bc64 := int64(src.chunk/br), int64(bc)
	col, colStart, rowPtr := src.col, src.colStart, src.rowPtr
	colStep := slotStride
	if rowPtr != nil {
		colStep = 1
	}
	// Column col[slot]·BC + jc reaches cols from col[slot] =
	// ceil((cols − jc)/BC) on: colQ while jc ≤ colRem, then colQ − 1.
	colQ, colRem := int64((src.cols-1)/bc+1), int64((src.cols-1)%bc)
	rhsStride := bc64 * es
	// Lane t of a group runs (lens − t + group − 1) >> gShift entries of
	// BC steps, which is never negative because t < group.
	gShift := log2(src.group)
	gMask := int32(src.group - 1)

	p := &Plan[T]{
		src:      src,
		warpSize: ws,
		total: KernelStats{
			Kernel: src.kernel, Rows: src.rows, Nnz: src.nnz,
			UsefulFlops: 2 * src.nnz, ElemBytes: int(es),
		},
		occ:    1,
		labels: profiles.Ctx(profiles.PhaseGPU, "kernel", src.kernel),
	}
	if src.nnz > 0 && src.stored > 0 {
		p.beta = float64(src.stored)/float64(src.nnz) - 1
		p.occ = float64(src.nnz) / float64(src.stored)
	}
	t := &p.total
	for wbase := 0; wbase < src.nPad; wbase += ws {
		lanes := sc.lanes[:min(ws, src.nPad-wbase)]
		maxLen := int32(0)
		g, r := int32(wbase/br), wbase%br // lane l is row r of block lane g
		for lane := range lanes {
			l := wbase + lane
			ls := &lanes[lane]
			ls.steps = ((src.lens[g>>gShift] - g&gMask + gMask) >> gShift) * int32(bc)
			maxLen = max(maxLen, ls.steps)
			ls.base = src.base(l)
			ls.slot = ls.base - int64(l) + int64(g)
			ls.col = ls.slot
			if rowPtr != nil && ls.steps > 0 {
				ls.col = int64(rowPtr[l])
			}
			if r++; r == br {
				g, r = g+1, 0
			}
		}
		t.Warps++
		if maxLen > 0 {
			t.ActiveWarps++
		}
		t.WarpSteps += int64(maxLen) + src.reduceSteps
		t.BytesMeta += src.metaSegs * segBytes
		// slotOff and colOff are entry j/BC's offsets from the lane's
		// first slot and column; jc is j%BC.
		slotOff, colOff, jc := int64(0), int64(0), int64(0)
		executed := int64(0)
		for j := int32(0); j < maxLen; j++ {
			var valSegs, idxSegs int64
			lastVal, lastIdx := int64(-1), int64(-1)
			rhs.next()
			valOff := int64(j) * stride
			// Column col[slot]·BC + jc lies in RHS sector
			// (rhsOff + col[slot]·rhsStride) >> secShift, and reaches
			// cols from col[slot] = colLimit on.
			rhsOff, colLimit := addrRHS+jc*es, colQ
			if jc > colRem {
				colLimit--
			}
			for lane := range lanes {
				ls := &lanes[lane]
				if j >= ls.steps {
					continue // lane idle: reserved but useless (light boxes of Fig. 2b)
				}
				c := int64(col[ls.col+colOff])
				if c >= colLimit {
					continue // past the right edge of a partial block
				}
				at, k := ls.base+valOff, ls.slot+slotOff
				if colStart != nil {
					at = int64(colStart[j]) + int64(wbase+lane)
					k = at
				}
				executed++
				if seg := (addrVal + at*es) >> segShift; seg != lastVal {
					valSegs++
					lastVal = seg
				}
				if seg := (addrIdx + k*4) >> segShift; seg != lastIdx {
					idxSegs++
					lastIdx = seg
				}
				sec := (rhsOff + c*rhsStride) >> secShift
				rhs.add(int(sec-sec0), sec)
			}
			t.BytesVal += valSegs * segBytes
			if jc == 0 {
				t.BytesIdx += idxSegs * segBytes
			}
			t.RHSProbes += int64(len(rhs.secs))
			for _, sec := range rhs.secs {
				if !l2.Probe(sec << secShift) {
					t.RHSMisses++
					t.BytesRHS += secBytes
				}
			}
			if jc++; jc == bc64 {
				slotOff, colOff, jc = slotOff+slotStride, colOff+colStep, 0
			}
		}
		t.ExecutedLaneSteps += executed
		lhsLo, lhsHi := wbase, min(wbase+len(lanes), src.rows)
		if src.lhsRows != nil {
			lhsLo, lhsHi = src.lhsRows(wbase, len(lanes))
		}
		t.BytesLHS += lhsSegments(lhsLo, lhsHi, int(es), segShift) * segBytes
	}
	return p
}

// run replays the plan: the numeric warp execution (sequential or on a
// worker pool) plus a copy of the compiled counter totals, then the
// derived timing on the actual device (which may differ from the
// compile device in bandwidth-only fields such as the ECC mode), and
// the kernel's telemetry through the handles ps holds.
func (p *Plan[T]) run(d *Device, y, x []T, opt RunOptions, ps *planSeries) *KernelStats {
	st := new(KernelStats)
	*st = p.total
	if opt.Accumulate {
		st.BytesLHS *= 2 // the result vector is read as well as written
	}
	warps := p.total.Warps
	workers := par.Resolve(opt.Workers)
	if workers <= 1 || warps <= 1 {
		p.src.mul(y, x, 0, warps, opt.Accumulate)
	} else {
		// Chunked self-scheduling: workers claim fixed-size runs of
		// consecutive warps from an atomic cursor. The assignment of
		// warps to workers is racy, but no output depends on it: y
		// rows are disjoint and the counters come from the plan.
		workers = min(workers, warps)
		chunk := min(max(warps/(workers*4), 1), 256)
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Fresh goroutine: adopt the plan's phase=gpu labels
				// for its whole (short) life. Prebuilt context, so
				// this allocates nothing per replay.
				pprof.SetGoroutineLabels(p.labels)
				for {
					hi := int(cursor.Add(int64(chunk)))
					lo := hi - chunk
					if lo >= warps {
						return
					}
					p.src.mul(y, x, lo, min(hi, warps), opt.Accumulate)
				}
			}()
		}
		wg.Wait()
	}
	st.finish(d, p.warpSize)
	ps.publish(st, p.beta, p.occ)
	return st
}
