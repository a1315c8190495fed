package service

import (
	"testing"
	"time"
)

func TestTokenBucketBounds(t *testing.T) {
	t0 := time.Unix(0, 0)
	b := newTokenBucket(10, 2, t0) // 10 tok/s, burst 2

	for i := 0; i < 2; i++ {
		if ok, _ := b.take(t0); !ok {
			t.Fatalf("take %d within burst refused", i)
		}
	}
	ok, wait := b.take(t0)
	if ok {
		t.Fatalf("take beyond burst admitted")
	}
	if want := 100 * time.Millisecond; wait != want {
		t.Fatalf("empty-bucket wait = %v, want %v (1 token at 10/s)", wait, want)
	}

	// Refill accrues at rate and is capped at burst.
	if ok, _ := b.take(t0.Add(100 * time.Millisecond)); !ok {
		t.Fatalf("refused after exactly one token accrued")
	}
	if ok, _ := b.take(t0.Add(time.Hour)); !ok {
		t.Fatalf("refused after long idle")
	}
	if lvl := b.level(); lvl > 2 {
		t.Fatalf("bucket overfilled to %g beyond burst 2", lvl)
	}
}

func TestAdmissionQueueBounds(t *testing.T) {
	a := newAdmission(1, 1)

	if full, err := a.admit(nil); full || err != nil {
		t.Fatalf("uncontended admit: full=%v err=%v", full, err)
	}
	if a.inFlight() != 1 {
		t.Fatalf("inFlight = %d, want 1", a.inFlight())
	}

	// Second request queues; third finds the queue full.
	type res struct {
		full bool
		err  error
	}
	done := make(chan struct{})
	got := make(chan res, 1)
	go func() {
		full, err := a.admit(done)
		got <- res{full, err}
	}()
	waitUntil(t, "waiter queued", func() bool { return a.queueDepth() == 1 })
	if full, err := a.admit(done); !full || err != nil {
		t.Fatalf("over-queue admit: full=%v err=%v, want queueFull", full, err)
	}

	// Releasing the slot hands it to the waiter.
	a.release()
	r := <-got
	if r.full || r.err != nil {
		t.Fatalf("queued admit after release: %+v", r)
	}
	if a.queueDepth() != 0 || a.inFlight() != 1 {
		t.Fatalf("after handoff: queue=%d inflight=%d", a.queueDepth(), a.inFlight())
	}
	a.release()
}

func TestAdmissionAbortWhileQueued(t *testing.T) {
	a := newAdmission(1, 4)
	if full, err := a.admit(nil); full || err != nil {
		t.Fatalf("admit: full=%v err=%v", full, err)
	}
	done := make(chan struct{})
	got := make(chan error, 1)
	go func() {
		_, err := a.admit(done)
		got <- err
	}()
	waitUntil(t, "waiter queued", func() bool { return a.queueDepth() == 1 })
	close(done) // deadline expired / client gone while queued
	if err := <-got; err != errAdmissionAborted {
		t.Fatalf("aborted admit: err=%v, want errAdmissionAborted", err)
	}
	if a.queueDepth() != 0 {
		t.Fatalf("aborted waiter still counted: queue=%d", a.queueDepth())
	}
	a.release()
}

func TestLatRingQuantiles(t *testing.T) {
	r := newLatRing()
	if p50, p99 := r.quantiles(); p50 != 0 || p99 != 0 {
		t.Fatalf("empty ring: (%g, %g)", p50, p99)
	}
	for i := 1; i <= 100; i++ {
		r.observe(float64(i))
	}
	p50, p99 := r.quantiles()
	if p50 < 45 || p50 > 55 {
		t.Fatalf("p50 = %g, want ≈50", p50)
	}
	if p99 < 95 || p99 > 100 {
		t.Fatalf("p99 = %g, want ≈99", p99)
	}
	if r.total() != 100 {
		t.Fatalf("total = %d, want 100", r.total())
	}

	// Overflow wraps without growing.
	for i := 0; i < 2*latRingSize; i++ {
		r.observe(1)
	}
	if p50, _ := r.quantiles(); p50 != 1 {
		t.Fatalf("post-wrap p50 = %g, want 1", p50)
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmitZeroAllocs: the uncontended admission fast path — one
// token-bucket take plus one execution-slot seize and release — is
// crossed by every request and must not create garbage under
// thousands of concurrent calls.
func TestAdmitZeroAllocs(t *testing.T) {
	a := newAdmission(4, 16)
	tb := newTokenBucket(1e12, 1e12, time.Unix(0, 0))
	now := time.Unix(1, 0)
	allocs := testing.AllocsPerRun(100, func() {
		if ok, _ := tb.take(now); !ok {
			t.Fatalf("bucket refused")
		}
		full, err := a.admit(nil)
		if full || err != nil {
			t.Fatalf("admit: full=%v err=%v", full, err)
		}
		a.release()
	})
	if allocs != 0 {
		t.Fatalf("admission cycle: %v allocs, want 0", allocs)
	}
}

// BenchmarkAdmit times the admission cycle TestAdmitZeroAllocs gates.
func BenchmarkAdmit(b *testing.B) {
	a := newAdmission(4, 16)
	tb := newTokenBucket(1e12, 1e12, time.Unix(0, 0))
	now := time.Unix(1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := tb.take(now); !ok {
			b.Fatalf("bucket refused")
		}
		full, err := a.admit(nil)
		if full || err != nil {
			b.Fatalf("admit: full=%v err=%v", full, err)
		}
		a.release()
	}
}
