package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opStatus classifies one attempted operation.
type opStatus int

const (
	opOK     opStatus = iota
	opFailed          // refused (429/503/504), any other error status, or a transport error
	opWrong           // completed, but the result failed its correctness check
)

// op is one timed operation of a workload loop. Latency runs from due
// to end: in an open loop due is the scheduled send time, so a request
// that waited for a free connection is charged the wait; in a closed
// loop due equals start, after any benchmark-side input generation.
type op struct {
	id              int
	worker          int
	due, start, end time.Time
	status          opStatus
	// spans are the layer calls inside this operation (trace runs
	// only), recorded live or replayed after the loop.
	spans []layerSpan
}

func (o op) latency() float64 { return o.end.Sub(o.due).Seconds() }

// layerSpan is one timed call into a layer. parent indexes the
// enclosing span of the same operation, -1 for the operation itself.
type layerSpan struct {
	layer, name string
	parent      int
	start, end  time.Time
}

// tally counts operation outcomes.
type tally struct{ attempted, failed, wrong int }

func (t *tally) add(ops []op) {
	for _, o := range ops {
		t.attempted++
		switch o.status {
		case opFailed:
			t.failed++
		case opWrong:
			t.wrong++
		}
	}
}

// okLatencies returns the latencies of the successful operations.
func okLatencies(ops []op) []float64 {
	var out []float64
	for _, o := range ops {
		if o.status == opOK {
			out = append(out, o.latency())
		}
	}
	return out
}

// goodput returns successful operations per second of client busy time
// (start to end, summed over operations and averaged over the workers
// that ran them). Input generation before start does not count.
func goodput(ops []op, workers int) float64 {
	busy, ok := 0.0, 0
	for _, o := range ops {
		busy += o.end.Sub(o.start).Seconds()
		if o.status == opOK {
			ok++
		}
	}
	if busy == 0 {
		return 0
	}
	return float64(ok) / (busy / float64(workers))
}

// blockQuantile splits ops, ordered by id, into consecutive blocks of
// size operations, applies stat to every full block and returns the
// q-quantile of the block values. Every block holds the same mix of
// inputs, so blocks differ only by how fast the machine ran while they
// did; other tenants slow a shared machine for seconds at a time, and
// a quantile on the fast side measures the code rather than them.
// Fewer operations than one block make a single block.
func blockQuantile(ops []op, size int, q float64, stat func([]op) float64) float64 {
	if len(ops) < size || size < 1 {
		return stat(ops)
	}
	var vals []float64
	for i := 0; i+size <= len(ops); i += size {
		vals = append(vals, stat(ops[i:i+size]))
	}
	return percentile(vals, q)
}

// closedLoop runs workers clients that each send their next operation
// only after the previous one completed, until d has elapsed. do runs
// operation i on a worker and must set start, end and status.
func closedLoop(workers int, d time.Duration, do func(i, worker int) op) []op {
	var next atomic.Int64
	deadline := time.Now().Add(d)
	return collect(workers, func(w int) []op {
		var ops []op
		for time.Now().Before(deadline) {
			i := int(next.Add(1) - 1)
			o := do(i, w)
			o.id, o.worker, o.due = i, w, o.start
			ops = append(ops, o)
		}
		return ops
	})
}

// openLoop sends operation i at offset due[i] from the loop start,
// whether or not earlier operations have completed, over at most
// workers connections. An operation that falls due while every
// connection is busy waits for one, and its latency includes the wait.
func openLoop(workers int, due []time.Duration, do func(i, worker int) op) []op {
	var next atomic.Int64
	t0 := time.Now()
	return collect(workers, func(w int) []op {
		var ops []op
		for {
			i := int(next.Add(1) - 1)
			if i >= len(due) {
				return ops
			}
			at := t0.Add(due[i])
			time.Sleep(time.Until(at))
			o := do(i, w)
			o.id, o.worker, o.due = i, w, at
			ops = append(ops, o)
		}
	})
}

// collect runs body on workers goroutines, waits for all of them and
// returns their operations ordered by id.
func collect(workers int, body func(w int) []op) []op {
	per := make([][]op, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[w] = body(w)
		}()
	}
	wg.Wait()
	var all []op
	for _, ops := range per {
		all = append(all, ops...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	return all
}
