package gpu

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"pjds/internal/core"
	"pjds/internal/matrix"
)

// refCache is the per-set-slice LRU model the flat cache replaced: one
// slice of line tags per set, front = MRU.
type refCache struct {
	sets     [][]int64
	assoc    int
	lineBits uint
	nSets    int64
}

func newRefCache(cfg *CacheConfig, lineBytes int) *refCache {
	if cfg == nil || cfg.RHSFraction <= 0 {
		return nil
	}
	frac := min(cfg.RHSFraction, 1)
	if lineBytes <= 0 {
		lineBytes = cfg.LineBytes
	}
	lines := max(int(float64(cfg.Bytes)*frac)/lineBytes, cfg.Assoc)
	nSets := max(lines/cfg.Assoc, 1)
	c := &refCache{sets: make([][]int64, nSets), assoc: cfg.Assoc, lineBits: log2(lineBytes), nSets: int64(nSets)}
	for i := range c.sets {
		c.sets[i] = make([]int64, 0, cfg.Assoc)
	}
	return c
}

func (c *refCache) probe(addr int64) bool {
	if c == nil {
		return false
	}
	line := addr >> c.lineBits
	set := c.sets[line%c.nSets]
	for i, tag := range set {
		if tag == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true
		}
	}
	if len(set) < c.assoc {
		set = append(set, 0)
	}
	copy(set[1:], set)
	set[0] = line
	c.sets[line%c.nSets] = set
	return false
}

// segCounter accumulates distinct aligned segments within one
// warp-step for one stream. Lanes touch monotonically non-decreasing
// addresses for the val/idx streams, and arbitrary ones for the RHS
// gather; the counter handles both with a tiny linear set (a warp
// touches at most warpSize distinct segments).
type segCounter struct {
	segs []int64
}

// add records the segment containing addr; segShift = log2(segment size).
func (c *segCounter) add(addr int64, segShift uint) {
	seg := addr >> segShift
	for _, s := range c.segs {
		if s == seg {
			return
		}
	}
	c.segs = append(c.segs, seg)
}

// reset clears the counter for the next warp-step.
func (c *segCounter) reset() { c.segs = c.segs[:0] }

// refCompile is the scan-based plan compiler the run-counting one
// replaced, kept as the differential reference: every stream's
// segments go through segCounter's linear set, and the RHS gather
// through refCache. Every address comes from refElem and every step
// count from refLaneSteps, the planSource definitions, block shape
// included. It returns the counter totals of one replay.
func refCompile[T matrix.Float](d *Device, src planSource[T]) KernelStats {
	es := core.SizeofElem[T]()
	ws := d.WarpSize
	segShift := log2(d.SegmentBytes)
	segBytes := int64(d.SegmentBytes)
	secShift := log2(d.GatherSectorBytes)
	secBytes := int64(d.GatherSectorBytes)
	l2 := newRefCache(d.L2, d.GatherSectorBytes)
	_, bc := src.blockShape()
	var valSegs, idxSegs, rhsSegs, lhsSegs segCounter
	t := KernelStats{
		Kernel: src.kernel, Rows: src.rows, Nnz: src.nnz,
		UsefulFlops: 2 * src.nnz, ElemBytes: es,
	}
	for wbase := 0; wbase < src.nPad; wbase += ws {
		lanes := min(ws, src.nPad-wbase)
		maxLen := 0
		for lane := 0; lane < lanes; lane++ {
			maxLen = max(maxLen, refLaneSteps(src, wbase+lane))
		}
		t.Warps++
		if maxLen > 0 {
			t.ActiveWarps++
		}
		t.WarpSteps += int64(maxLen) + src.reduceSteps
		if src.metaBytes != nil {
			t.BytesMeta += src.metaBytes(wbase, lanes)
		} else {
			t.BytesMeta += src.metaSegs * segBytes
		}
		for j := 0; j < maxLen; j++ {
			valSegs.reset()
			idxSegs.reset()
			rhsSegs.reset()
			for lane := 0; lane < lanes; lane++ {
				i := wbase + lane
				if j >= refLaneSteps(src, i) {
					continue
				}
				at, slot, c := refElem(src, i, j)
				if c >= src.cols {
					continue
				}
				t.ExecutedLaneSteps++
				valSegs.add(addrVal+at*int64(es), segShift)
				idxSegs.add(addrIdx+slot*4, segShift)
				rhsSegs.add(addrRHS+int64(c)*int64(es), secShift)
			}
			t.BytesVal += int64(len(valSegs.segs)) * segBytes
			if j%bc == 0 {
				t.BytesIdx += int64(len(idxSegs.segs)) * segBytes
			}
			for _, sec := range rhsSegs.segs {
				t.RHSProbes++
				if !l2.probe(sec << secShift) {
					t.RHSMisses++
					t.BytesRHS += secBytes
				}
			}
		}
		lhsLo, lhsHi := wbase, min(wbase+lanes, src.rows)
		if src.lhsRows != nil {
			lhsLo, lhsHi = src.lhsRows(wbase, lanes)
		}
		if lhsHi > lhsLo {
			lhsSegs.reset()
			for i := lhsLo; i < lhsHi; i++ {
				lhsSegs.add(addrLHS+int64(i)*int64(es), segShift)
			}
			t.BytesLHS += int64(len(lhsSegs.segs)) * segBytes
		}
	}
	return t
}

// refLaneSteps is the step count of lane l by the definition of
// planSource.lens, group and block: lane l is lane t of group g in
// block-row units, which runs ceil((lens[g] − t)/group) entries of BC
// steps each, none when the group's run ends before the lane.
func refLaneSteps[T matrix.Float](src planSource[T], l int) int {
	br, bc := src.blockShape()
	n := int(src.lens[l/br/src.group]) - l/br%src.group
	if n <= 0 {
		return 0
	}
	return (n + src.group - 1) / src.group * bc
}

// refElem returns the device addresses of lane l's step j in the value
// and index arrays, and the column it gathers, by the definition of
// planSource's chunk-major layout, block shape and jagged diagonals.
func refElem[T matrix.Float](src planSource[T], l, j int) (at, slot int64, col int) {
	br, bc := src.blockShape()
	at = src.chunkStart[l/src.chunk] + int64(l%src.chunk)
	slot = at - int64(l) + int64(l/br) + int64(j/bc*(src.chunk/br))
	at += int64(j * src.chunk)
	col = int(src.col[slot])*bc + j%bc
	if src.colStart != nil {
		at = int64(src.colStart[j]) + int64(l)
		slot = at
	}
	return at, slot, col
}

// laneAddressesIncrease checks the property the run counting relies
// on: in every warp step, the active lanes' value addresses strictly
// increase with the lane, and their index addresses never decrease.
func laneAddressesIncrease[T matrix.Float](d *Device, src planSource[T]) error {
	ws := d.WarpSize
	for wbase := 0; wbase < src.nPad; wbase += ws {
		lanes := min(ws, src.nPad-wbase)
		maxLen := 0
		for lane := 0; lane < lanes; lane++ {
			maxLen = max(maxLen, refLaneSteps(src, wbase+lane))
		}
		for j := 0; j < maxLen; j++ {
			lastAt, lastSlot := int64(-1), int64(-1)
			for lane := 0; lane < lanes; lane++ {
				i := wbase + lane
				if j >= refLaneSteps(src, i) {
					continue
				}
				at, slot, c := refElem(src, i, j)
				if c >= src.cols {
					continue
				}
				if at <= lastAt || slot < lastSlot {
					return fmt.Errorf("%s: warp at row %d, step %d: lane %d addresses (%d, %d) after (%d, %d)",
						src.kernel, wbase, j, lane, at, slot, lastAt, lastSlot)
				}
				lastAt, lastSlot = at, slot
			}
		}
	}
	return nil
}

// checkPlan asserts the lane-monotone property on p's source and that
// a fresh compile on sc matches the reference in every counter.
func checkPlan[T matrix.Float](d *Device, p *Plan[T], sc *compileScratch) error {
	if err := laneAddressesIncrease(d, p.src); err != nil {
		return err
	}
	want := refCompile(d, p.src)
	for _, got := range []KernelStats{p.total, compilePlanWith(d, p.src, sc).total} {
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s: compiled %+v\nreference %+v", p.src.kernel, got, want)
		}
	}
	return nil
}

// CheckCompiledPlans verifies every plan pc holds against the
// reference compiler, including a recompile whose RHS sector epoch
// wraps around mid-plan, and returns how many plans it checked.
func CheckCompiledPlans(d *Device, pc *PlanCache) (int, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, key := range pc.order {
		// Start two steps short of the wrap, with stale stamps equal to
		// epochs the wrapped counter reaches again.
		stale := make([]uint32, 1<<16)
		for i := range stale {
			stale[i] = uint32(1 + i%3)
		}
		sc := &compileScratch{}
		sc.rhs.stamp = stale[:0]
		sc.rhs.epoch = math.MaxUint32 - 2
		var err error
		switch p := pc.entries[key].plan.(type) {
		case *Plan[float64]:
			err = checkPlan(d, p, sc)
		case *Plan[float32]:
			err = checkPlan(d, p, sc)
		default:
			err = fmt.Errorf("unexpected plan type %T", p)
		}
		if err != nil {
			return 0, err
		}
	}
	return len(pc.order), nil
}

func TestSectorSetEpochWrap(t *testing.T) {
	var s sectorSet
	s.size(4)
	s.epoch = math.MaxUint32 - 1
	for _, k := range []int{2, 0, 2} {
		s.add(k, int64(k))
	}
	if !reflect.DeepEqual(s.secs, []int64{2, 0}) {
		t.Fatalf("before the wrap: %v", s.secs)
	}
	// Stamp sector 3 with the last epoch, then wrap: the cleared array
	// must not report it in epoch 1 or any later step.
	s.next()
	s.add(3, 3)
	if s.epoch != math.MaxUint32 {
		t.Fatalf("epoch %d, want the last one", s.epoch)
	}
	s.stamp[1] = 1 // a stale stamp equal to the first epoch after the wrap
	s.next()
	if s.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", s.epoch)
	}
	for _, k := range []int{3, 1, 3} {
		s.add(k, int64(k))
	}
	if !reflect.DeepEqual(s.secs, []int64{3, 1}) {
		t.Fatalf("after the wrap: %v", s.secs)
	}

	// A wrap while the array is sized short must also clear the stamps
	// beyond its length, which a later, larger size reuses.
	s.size(8)
	s.stamp[7] = 2 // the epoch the second size(8) below starts
	s.size(4)
	s.epoch = math.MaxUint32
	s.next()  // wraps to epoch 1
	s.size(8) // epoch 2
	s.add(7, 7)
	if !reflect.DeepEqual(s.secs, []int64{7}) {
		t.Fatalf("a stamp beyond the length survived the wrap: %v", s.secs)
	}
}

// TestPlanCompileAllocs checks that a compile's allocation count does
// not grow with the L2 set count: the flat model sizes one tag array
// and reuses it, where one slice per set cost 768 allocations on the
// C2050.
func TestPlanCompileAllocs(t *testing.T) {
	m := bandedCSR(2000, 1, 40, 5)
	s := newELLR(m)
	pc := NewPlanCache(0)
	x := randVec(m.NCols, 6)
	y := make([]float64, s.NPad)
	if _, err := RunSELL(TeslaC2050(), s, y, x, RunOptions{Workers: 1, Plans: pc}); err != nil {
		t.Fatal(err)
	}
	p := pc.entries[pc.order[0]].plan.(*Plan[float64])
	// One scratch for every compile, as a warm compileScratches pool
	// hands out: the race detector drops pooled items at random, which
	// would add a fresh scratch's allocations to some runs.
	sc := new(compileScratch)
	allocs := func(l2 *CacheConfig) float64 {
		d := TeslaC2050()
		d.L2 = l2
		return testing.AllocsPerRun(20, func() { compilePlanWith(d, p.src, sc) })
	}
	small := allocs(&CacheConfig{Bytes: 16 * 32, LineBytes: 128, Assoc: 16, RHSFraction: 1}) // one set
	big := allocs(DefaultL2())                                                               // 768 sets
	l2, sector := DefaultL2(), TeslaC2050().GatherSectorBytes
	if nSets := int(float64(l2.Bytes)*l2.RHSFraction) / sector / l2.Assoc; nSets != 768 {
		t.Fatalf("C2050 L2 has %d sets, want 768", nSets)
	}
	if big > small+1 {
		t.Errorf("compile allocs: %.0f with 768 L2 sets, %.0f with one", big, small)
	}
}
