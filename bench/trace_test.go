package main

import (
	"math"
	"testing"
	"time"
)

func TestReplaySampleTakesWholeBlocks(t *testing.T) {
	const block = 8
	ops := make([]op, 5*block+3)
	for i := range ops {
		ops[i].id = i
	}
	ops[block+1].status = opFailed
	var replayed []int
	err := replaySample(ops, block, func(o *op, r *recorder) error {
		replayed = append(replayed, o.id)
		return r.span("gpu", "x", -1, func() error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two blocks cover the 12 samples; each holds every position of the
	// input rotation once.
	seen := map[int]int{}
	for _, id := range replayed {
		seen[id%block]++
		if ops[id].status != opOK || len(ops[id].spans) != 1 {
			t.Errorf("op %d replayed with status %s and %d spans", id, statusName(ops[id].status), len(ops[id].spans))
		}
	}
	if len(replayed) != 2*block || len(seen) != block {
		t.Errorf("replayed %v, want two whole blocks", replayed)
	}
}

func TestAttributionAddsUpToLatency(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	o := op{due: t0, start: at(1), end: at(20), spans: []layerSpan{
		{layer: "solver", name: "CG", parent: -1, start: at(2), end: at(14)},
		{layer: "gpu", name: "apply", parent: 0, start: at(3), end: at(7)},
		{layer: "gpu", name: "apply", parent: 0, start: at(8), end: at(12)},
		{layer: "service", name: "digest", parent: -1, start: at(15), end: at(16)},
	}}
	a := attribute([]op{o, {due: t0, start: t0, end: at(5)}}) // the second op has no spans
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if a.ops != 1 || !near(a.latency, 0.020) {
		t.Fatalf("attributed %d ops over %g s, want 1 over 0.020", a.ops, a.latency)
	}
	for layer, want := range map[string]float64{"solver": 0.004, "gpu": 0.008, "service": 0.001} {
		if !near(a.self[layer], want) {
			t.Errorf("%s self time %g s, want %g", layer, a.self[layer], want)
		}
	}
	if !near(a.residual, 0.007) {
		t.Errorf("residual %g s, want 0.007", a.residual)
	}
	m := a.metrics()
	sum := m["trace.residual_share"]
	for _, l := range traceLayers {
		sum += m["trace.share."+l]
	}
	if !near(sum, 1) {
		t.Errorf("shares add up to %g, want 1", sum)
	}
}
