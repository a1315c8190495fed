package gpu

import (
	"sync"
	"sync/atomic"
	"time"

	"pjds/internal/matrix"
)

// devFingerprint captures the device fields the transaction counters
// depend on. Name, clock, bandwidth and the ECC flag are deliberately
// excluded: finish() applies them at replay time, so one plan serves
// e.g. both ECC modes of a board (Table I re-uses one simulation per
// format exactly the same way).
type devFingerprint struct {
	warpSize          int
	segmentBytes      int
	gatherSectorBytes int
	hasL2             bool
	l2Bytes, l2Line   int
	l2Assoc           int
	l2Frac            float64
}

func fingerprint(d *Device) devFingerprint {
	fp := devFingerprint{
		warpSize:          d.WarpSize,
		segmentBytes:      d.SegmentBytes,
		gatherSectorBytes: d.GatherSectorBytes,
	}
	if d.L2 != nil {
		fp.hasL2 = true
		fp.l2Bytes = d.L2.Bytes
		fp.l2Line = d.L2.LineBytes
		fp.l2Assoc = d.L2.Assoc
		fp.l2Frac = d.L2.RHSFraction
	}
	return fp
}

// planKey identifies a compiled plan: the matrix identity (the format
// pointer — formats are treated as immutable once handed to a kernel),
// the kernel that reads it (CSR-scalar, CSR-vector and ELLPACK-R from
// CSR share one *matrix.CSR) and the device geometry fingerprint.
type planKey struct {
	src    any
	kernel string
	fp     devFingerprint
}

// planEntry is one cache slot. once gives single-flight compilation:
// concurrent ranks requesting the same plan block on the first
// compile instead of duplicating it.
type planEntry struct {
	once sync.Once
	plan any
}

// PlanCache memoizes compiled kernel plans. It is safe for concurrent
// use; the distributed runs share one cache across all rank
// goroutines. Entries are evicted in insertion (FIFO) order beyond the
// capacity limit.
type PlanCache struct {
	mu      sync.Mutex
	max     int
	entries map[planKey]*planEntry
	order   []planKey

	hits          atomic.Int64
	misses        atomic.Int64
	compiles      atomic.Int64
	compileNanos  atomic.Int64
	compiledWarps atomic.Int64
}

// DefaultPlanCacheSize bounds a cache made with NewPlanCache(0), the
// package default included. An entry holds one plan's counter totals
// and telemetry handles, a few hundred bytes whatever the matrix size
// (plus col_start[] for pJDS and 12 bytes a row for the CSR kernels),
// but it also keeps its format's arrays reachable until it is evicted. Callers whose plans are
// one-shot, such as the distributed engine's per-rank profiles and the
// experiment drivers, therefore compile into a cache of their own that
// dies with them rather than into the default.
const DefaultPlanCacheSize = 128

// NewPlanCache returns a cache holding at most max plans (max ≤ 0
// selects DefaultPlanCacheSize).
func NewPlanCache(max int) *PlanCache {
	if max <= 0 {
		max = DefaultPlanCacheSize
	}
	return &PlanCache{max: max, entries: make(map[planKey]*planEntry)}
}

var defaultPlans = NewPlanCache(0)

// Plans returns the package-default plan cache used when
// RunOptions.Plans is nil.
func Plans() *PlanCache { return defaultPlans }

// entry returns the slot for key, reporting whether it already existed.
func (pc *PlanCache) entry(key planKey) (*planEntry, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if e, ok := pc.entries[key]; ok {
		return e, true
	}
	e := &planEntry{}
	pc.entries[key] = e
	pc.order = append(pc.order, key)
	for len(pc.order) > pc.max {
		old := pc.order[0]
		pc.order = pc.order[1:]
		delete(pc.entries, old)
	}
	return e, false
}

// Reset drops all cached plans and zeroes the statistics.
func (pc *PlanCache) Reset() {
	pc.mu.Lock()
	pc.entries = make(map[planKey]*planEntry)
	pc.order = nil
	pc.mu.Unlock()
	pc.hits.Store(0)
	pc.misses.Store(0)
	pc.compiles.Store(0)
	pc.compileNanos.Store(0)
	pc.compiledWarps.Store(0)
}

// Len returns the number of cached plans.
func (pc *PlanCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}

// PlanCacheStats is a point-in-time snapshot of cache activity.
// CompileSeconds is host wall-clock time spent compiling — it lives
// here (and not in the telemetry registry) because the registry is a
// deterministic world: every published value must be identical across
// runs and worker counts, which wall-clock time is not.
type PlanCacheStats struct {
	Hits, Misses   int64
	Compiles       int64
	Entries        int
	CompiledWarps  int64
	CompileSeconds float64
}

// Stats returns a snapshot of the cache counters.
func (pc *PlanCache) Stats() PlanCacheStats {
	return PlanCacheStats{
		Hits:           pc.hits.Load(),
		Misses:         pc.misses.Load(),
		Compiles:       pc.compiles.Load(),
		Entries:        pc.Len(),
		CompiledWarps:  pc.compiledWarps.Load(),
		CompileSeconds: float64(pc.compileNanos.Load()) / 1e9,
	}
}

// planFor returns the compiled plan for (src format, kernel, device
// geometry),
// compiling at most once per cache entry even under concurrent
// lookups, and the plan's telemetry handles for this run's registry
// and labels, through which it has already published the lookup. The
// generic instantiation is resolved by the caller's build closure;
// entries of different element types never share a key because the
// format pointers differ.
func planFor[T matrix.Float](opt RunOptions, d *Device, src any, kernel string, build func() *Plan[T]) (*Plan[T], *planSeries) {
	pc := opt.Plans
	if pc == nil {
		pc = defaultPlans
	}
	key := planKey{src: src, kernel: kernel, fp: fingerprint(d)}
	e, existed := pc.entry(key)
	e.once.Do(func() {
		t0 := time.Now()
		p := build()
		pc.compileNanos.Add(time.Since(t0).Nanoseconds())
		pc.compiles.Add(1)
		pc.compiledWarps.Add(int64(p.Warps()))
		e.plan = p
	})
	p := e.plan.(*Plan[T])
	// A lookup is a miss iff it created the entry; under concurrency
	// the once body may run on a different goroutine than the creator,
	// but the hit/miss counts stay deterministic either way.
	if existed {
		pc.hits.Add(1)
	} else {
		pc.misses.Add(1)
	}
	ps := p.seriesFor(opt.Metrics, d.Name, opt.MetricLabels)
	ps.lookup(existed, p.Warps())
	return p, ps
}
