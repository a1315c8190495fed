package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/telemetry"
)

// env is what one run of a workload is given.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	// tmp holds the tuning DBs a run creates; the caller removes it.
	tmp string
	// applyDelay is passed to service.Config.ApplyDelay; only the
	// sensitivity test sets it.
	applyDelay time.Duration
	log        io.Writer
}

// dur returns share of the run's measuring time.
func (e env) dur(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

// result is what one run of a workload measured.
type result struct {
	setup  []float64 // seconds, one per setup repetition
	heapMB float64
	// closed holds the closed-loop operations throughput is taken from,
	// run by workers clients; timed holds the operations whose
	// latencies are reported (the open loop for serve, else closed).
	closed  []op
	workers int
	timed   []op
	// block is the number of consecutive operations that make one full
	// round of the workload's input rotation; see blockQuantile.
	block int
	tally
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
}

// setupReps is how many times a run sets its system up; setup_s is the
// median, so slow repetitions do not move it.
const setupReps = 9

// repeatSetup runs setup setupReps times, timing each repetition, and
// keeps the last instance; close releases the earlier ones.
func repeatSetup[T any](setup func() (T, error), close func(T)) (T, []float64, error) {
	var inst T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			close(inst)
		}
		t0 := time.Now()
		var err error
		if inst, err = setup(); err != nil {
			return inst, nil, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return inst, secs, nil
}

// heapMB reports the live heap after a full collection.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

// paperMatrix generates one of the paper's Table I matrices.
func paperMatrix(name string, scale float64, seed uint64) (*matrix.CSR[float64], error) {
	tm, err := matgen.ByName(name)
	if err != nil {
		return nil, err
	}
	return tm.Generate(scale, int64(seed>>1)), nil
}

// mmBody serializes m as a MatrixMarket upload body.
func mmBody(m *matrix.CSR[float64]) ([]byte, error) {
	var b bytes.Buffer
	if err := matrix.WriteMatrixMarket(&b, m); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// vectorSeeds returns the seeds of the vectors requests are drawn from.
func vectorSeeds(seed uint64) []uint64 {
	out := make([]uint64, 8)
	for i := range out {
		out[i] = derive(seed, "vector", i)
	}
	return out
}

// counters sums every counter of reg by name, over all label sets.
func counters(reg *telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, s := range reg.Snapshot() {
		if s.Type == "counter" {
			out[s.Name] += s.Value
		}
	}
	return out
}

// since returns the per-name growth of counters from before to after.
func since(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
