package mpi

import (
	"errors"
	"math"
	"testing"

	"pjds/internal/simnet"
	"pjds/internal/telemetry"
)

// dropAll is a test injector dropping a fixed number of transmission
// attempts on every message.
type dropAll struct{ attempts int }

func (d dropAll) OnSend(src, dst, tag int, bytes int64, seq int64) simnet.SendFault {
	return simnet.SendFault{DropAttempts: d.attempts}
}

// TestRetryPolicyTable exercises the backoff schedule itself over the
// edge cases: zero timeout, no factor, factor growth, and the cap.
// The virtual clock is fully deterministic, so exact equality holds.
func TestRetryPolicyTable(t *testing.T) {
	cases := []struct {
		name  string
		pol   RetryPolicy
		lost  int
		total float64
	}{
		{"zero timeout", RetryPolicy{MaxRetries: 4}, 3, 0},
		{"constant, no factor", RetryPolicy{MaxRetries: 4, TimeoutSeconds: 1e-3}, 3, 3e-3},
		{"exponential backoff", RetryPolicy{MaxRetries: 8, TimeoutSeconds: 1e-4, BackoffFactor: 2}, 4, (1 + 2 + 4 + 8) * 1e-4},
		{"backoff cap", RetryPolicy{MaxRetries: 8, TimeoutSeconds: 1e-4, BackoffFactor: 10, MaxBackoffSeconds: 5e-4}, 4, (1 + 5 + 5 + 5) * 1e-4},
		{"factor below one is constant", RetryPolicy{MaxRetries: 4, TimeoutSeconds: 2e-3, BackoffFactor: 0.5}, 2, 4e-3},
	}
	for _, c := range cases {
		if got := c.pol.totalBackoff(c.lost); math.Abs(got-c.total) > 1e-15 {
			t.Errorf("%s: totalBackoff(%d) = %g, want %g", c.name, c.lost, got, c.total)
		}
	}
	if !(RetryPolicy{}).isZero() {
		t.Error("zero policy not recognized")
	}
	if (RetryPolicy{MaxRetries: 3}).isZero() {
		t.Error("explicit zero-timeout policy mistaken for the default")
	}
}

// TestRecvChargesRetryBackoff: a dropped message charges the receiver
// one deadline per lost attempt, deterministically.
func TestRecvChargesRetryBackoff(t *testing.T) {
	cases := []struct {
		name    string
		pol     RetryPolicy
		lost    int
		charged float64
	}{
		{"zero timeout retries are free", RetryPolicy{MaxRetries: 4}, 2, 0},
		{"expired deadline per attempt", RetryPolicy{MaxRetries: 4, TimeoutSeconds: 1e-3}, 2, 2e-3},
		{"capped exponential", RetryPolicy{MaxRetries: 8, TimeoutSeconds: 1e-4, BackoffFactor: 2, MaxBackoffSeconds: 2e-4}, 3, (1 + 2 + 2) * 1e-4},
	}
	for _, tc := range cases {
		reg := telemetry.NewRegistry()
		opt := Options{Faults: dropAll{tc.lost}, Retry: tc.pol, Metrics: reg}
		var healthy, faulty float64
		// Reference run without drops to isolate the charged backoff.
		_, err := RunWithOptions(2, fabric(), Options{Retry: tc.pol}, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 0, nil, 800)
			}
			_, err := c.Recv(0, 0)
			healthy = c.Clock()
			return err
		})
		if err != nil {
			t.Fatalf("%s: healthy run: %v", tc.name, err)
		}
		_, err = RunWithOptions(2, fabric(), opt, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 0, nil, 800)
			}
			_, err := c.Recv(0, 0)
			faulty = c.Clock()
			return err
		})
		if err != nil {
			t.Fatalf("%s: faulty run: %v", tc.name, err)
		}
		if got := faulty - healthy; math.Abs(got-tc.charged) > 1e-12 {
			t.Errorf("%s: charged %g, want %g", tc.name, got, tc.charged)
		}
		lbl := telemetry.Li("rank", 1)
		if got := reg.Counter("mpi_retries_total", lbl).Value(); got != float64(tc.lost) {
			t.Errorf("%s: retries counter = %g, want %d", tc.name, got, tc.lost)
		}
	}
}

// TestRecvRetriesExhausted: more drops than the budget tolerates fail
// the receive with a typed error naming the link and counts.
func TestRecvRetriesExhausted(t *testing.T) {
	pol := RetryPolicy{MaxRetries: 2, TimeoutSeconds: 1e-4, BackoffFactor: 2}
	_, err := RunWithOptions(2, fabric(), Options{Faults: dropAll{5}, Retry: pol}, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, nil, 800)
		}
		_, err := c.Recv(0, 0)
		return err
	})
	var re *RetriesExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RetriesExhaustedError", err)
	}
	if re.Src != 0 || re.Dst != 1 || re.Attempts != 5 || re.MaxRetries != 2 {
		t.Errorf("error fields = %+v", re)
	}
}

// TestCrashDetectedByBlockedReceiver: an injected crash converts the
// survivor's blocked receive into a RankFailedError whose detection
// time is the death time plus the heartbeat period.
func TestCrashDetectedByBlockedReceiver(t *testing.T) {
	const hb = 1e-3
	var got *RankFailedError
	_, err := RunWithOptions(2, fabric(), Options{HeartbeatSeconds: hb}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Advance(0.5)
			return c.Crash()
		}
		_, err := c.Recv(0, 7)
		errors.As(err, &got)
		if got != nil && math.Abs(c.Clock()-got.DetectedAt) > 1e-15 {
			t.Errorf("detector clock %g != DetectedAt %g", c.Clock(), got.DetectedAt)
		}
		return err
	})
	if err == nil {
		t.Fatal("crash not surfaced")
	}
	var rf *RankFailedError
	if !errors.As(err, &rf) {
		t.Fatalf("run err = %v, want *RankFailedError", err)
	}
	// Run prefers the root cause: the crashing rank's own report.
	if rf.DetectedBy != -1 || rf.Rank != 0 || rf.FailedAt != 0.5 {
		t.Errorf("root cause = %+v", rf)
	}
	if got == nil {
		t.Fatal("survivor did not observe a RankFailedError")
	}
	if got.Rank != 0 || got.DetectedBy != 1 {
		t.Errorf("survivor observation = %+v", got)
	}
	if want := 0.5 + hb; math.Abs(got.DetectedAt-want) > 1e-15 {
		t.Errorf("DetectedAt = %g, want %g (death + heartbeat)", got.DetectedAt, want)
	}
}

// TestCrashBreaksCollectives: survivors blocked in a collective unwind
// with a typed error instead of deadlocking.
func TestCrashBreaksCollectives(t *testing.T) {
	_, err := Run(3, fabric(), func(c *Comm) error {
		if c.Rank() == 2 {
			return c.Crash()
		}
		_, err := c.AllreduceSum(1)
		var rf *RankFailedError
		if !errors.As(err, &rf) || rf.Rank != 2 {
			t.Errorf("rank %d: collective err = %v", c.Rank(), err)
		}
		return err
	})
	if err == nil {
		t.Fatal("crash not surfaced through collective")
	}
}

// TestBodyErrorUnblocksPeers: a plain body error also marks the rank
// dead so a peer blocked on it does not hang.
func TestBodyErrorUnblocksPeers(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := Run(2, fabric(), func(c *Comm) error {
		if c.Rank() == 0 {
			return sentinel
		}
		_, err := c.Recv(0, 0)
		return err
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want root cause %v", err, sentinel)
	}
}

// TestSendOutOfRangeSurfacesTypedError: the simnet RangeError reaches
// the caller through Wait instead of panicking.
func TestSendOutOfRangeSurfacesTypedError(t *testing.T) {
	_, err := Run(1, fabric(), func(c *Comm) error {
		return c.Send(5, 0, nil, 8)
	})
	var re *simnet.RangeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *simnet.RangeError", err)
	}
}

// TestJitterClampAndPassthrough: Jitter's edge cases — frac ≥ 1 is
// clamped below 1 (a step can never reach zero or double), frac ≤ 0
// and non-positive d pass through unchanged.
func TestJitterClampAndPassthrough(t *testing.T) {
	const d = 1e-3
	for step := uint64(0); step < 256; step++ {
		got := Jitter(d, 5, 1, 2, step)
		if got <= 0 || got >= 2*d {
			t.Fatalf("step %d: frac clamp failed, Jitter = %g outside (0, %g)", step, got, 2*d)
		}
	}
	if got := Jitter(d, 0, 1, 2, 3); got != d {
		t.Errorf("frac=0: Jitter = %g, want %g", got, d)
	}
	if got := Jitter(d, -1, 1, 2, 3); got != d {
		t.Errorf("frac<0: Jitter = %g, want %g", got, d)
	}
	if got := Jitter(0, 0.5, 1, 2, 3); got != 0 {
		t.Errorf("d=0: Jitter = %g, want 0", got)
	}
	if got := Jitter(-d, 0.5, 1, 2, 3); got != -d {
		t.Errorf("d<0: Jitter = %g, want %g", got, -d)
	}
}
