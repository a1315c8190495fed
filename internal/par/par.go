// Package par is the shared worker-pool substrate of the ingest and
// conversion pipeline: a process-wide default worker count (set from
// the CLIs' -workers flags, and also read by the GPU simulator's warp
// replay) and a deterministic block-parallel loop.
//
// Parallelism here must never change results. For splits an index
// range into one contiguous block per worker, so every output element
// is written by exactly one goroutine and the result is bit-identical
// to the sequential execution for any worker count — the property the
// conversion determinism tests enforce.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers holds the process-wide default (0 = GOMAXPROCS).
var defaultWorkers atomic.Int64

// SetDefault sets the process-wide default worker count used when a
// ConvertOptions or a gpu.RunOptions leaves Workers at 0. n ≤ 0 restores the GOMAXPROCS
// default, 1 forces sequential conversion everywhere.
func SetDefault(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Default returns the current process-wide default worker count.
func Default() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Resolve maps a per-call worker request onto an effective count:
// n > 0 is taken literally, n ≤ 0 selects the process default.
func Resolve(n int) int {
	if n > 0 {
		return n
	}
	return Default()
}

// seqThreshold is the problem size below which For runs inline: for
// tiny loops the goroutine fan-out costs more than the work.
const seqThreshold = 2048

// For runs fn over [0, n) split into one contiguous block per worker:
// worker w gets [w·n/workers, (w+1)·n/workers). Blocks are disjoint
// and their union is exactly [0, n), so any function writing only to
// indices of its block is race-free and produces results identical to
// the sequential run. Small n (or workers ≤ 1) runs inline on the
// calling goroutine as fn(0, 0, n).
func For(workers, n int, fn func(w, lo, hi int)) {
	if n >= seqThreshold {
		ForceFor(workers, n, fn)
		return
	}
	if n > 0 {
		fn(0, 0, n)
	}
}

// ForceFor is For without the small-n inline shortcut. Conversion
// code uses For; the determinism tests use ForceFor-backed options to
// exercise the parallel path on small fixtures too.
func ForceFor(workers, n int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
