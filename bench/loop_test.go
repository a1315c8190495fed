package main

import (
	"testing"
	"time"
)

// sleepOp is an operation that takes d once started.
func sleepOp(d time.Duration) op {
	o := op{start: time.Now()}
	time.Sleep(d)
	o.end = time.Now()
	return o
}

func TestOpenLoopChargesConnectionWait(t *testing.T) {
	const service = 30 * time.Millisecond
	// Three requests due 1 ms apart on one connection: the second and
	// third wait for the connection, and the wait is part of their
	// latency.
	ops := openLoop(1, []time.Duration{0, time.Millisecond, 2 * time.Millisecond}, func(i, w int) op {
		return sleepOp(service)
	})
	if len(ops) != 3 {
		t.Fatalf("got %d operations, want 3", len(ops))
	}
	for i, o := range ops {
		wait := o.start.Sub(o.due)
		if least := time.Duration(i)*service - time.Duration(i)*time.Millisecond - 5*time.Millisecond; wait < least {
			t.Errorf("op %d waited %v for the connection, want at least %v", i, wait, least)
		}
		if got, want := o.latency(), (o.end.Sub(o.start) + wait).Seconds(); got != want {
			t.Errorf("op %d latency %g s, want service plus wait %g s", i, got, want)
		}
	}
	if lat := ops[2].latency(); lat < (3*service - 7*time.Millisecond).Seconds() {
		t.Errorf("third op latency %g s, want about three service times", lat)
	}
}

func TestOpenLoopSendsOnSchedule(t *testing.T) {
	// Two idle connections: each request leaves at its due time, not
	// when the previous one completes.
	due := []time.Duration{0, 5 * time.Millisecond}
	ops := openLoop(2, due, func(i, w int) op { return sleepOp(40 * time.Millisecond) })
	for i, o := range ops {
		if late := o.start.Sub(o.due); late > 15*time.Millisecond {
			t.Errorf("op %d sent %v after it was due on an idle connection", i, late)
		}
	}
}

func TestClosedLoopExcludesGeneration(t *testing.T) {
	ops := closedLoop(1, 200*time.Millisecond, func(i, w int) op {
		time.Sleep(10 * time.Millisecond) // input generation, not timed
		return sleepOp(5 * time.Millisecond)
	})
	if len(ops) < 5 {
		t.Fatalf("only %d operations in 200 ms", len(ops))
	}
	for i, o := range ops {
		if o.id != i || !o.due.Equal(o.start) {
			t.Fatalf("op %d: id %d, due %v, start %v", i, o.id, o.due, o.start)
		}
		if lat := o.latency(); lat > 0.009 {
			t.Errorf("op %d latency %g s includes the generation time", i, lat)
		}
	}
	if g := goodput(ops, 1); g < 100 {
		t.Errorf("goodput %g/s, want about 1/(5 ms) = 200/s", g)
	}
}

func TestTallyAndGoodputCountOutcomes(t *testing.T) {
	t0 := time.Now()
	mk := func(s opStatus) op { return op{start: t0, due: t0, end: t0.Add(100 * time.Millisecond), status: s} }
	ops := []op{mk(opOK), mk(opFailed), mk(opWrong), mk(opOK)}
	var tl tally
	tl.add(ops)
	if tl != (tally{attempted: 4, failed: 1, wrong: 1}) {
		t.Errorf("tally = %+v", tl)
	}
	if n := len(okLatencies(ops)); n != 2 {
		t.Errorf("%d ok latencies, want 2", n)
	}
	// Two successes in 0.4 s of busy time on one worker.
	if g := goodput(ops, 1); g < 4.99 || g > 5.01 {
		t.Errorf("goodput = %g, want 5", g)
	}
}
