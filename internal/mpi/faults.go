package mpi

import (
	"fmt"
	"math"
)

// DefaultHeartbeatSeconds is the failure-detector period used when
// Options.HeartbeatSeconds is zero: a silently dead rank is detected no
// earlier than its death time plus one heartbeat.
const DefaultHeartbeatSeconds = 200e-6

// RetryPolicy models the reliable-transport reaction to dropped
// messages: each lost transmission attempt charges one timeout to the
// receiver's virtual clock, with exponential backoff between attempts.
// The whole-zero value selects DefaultRetry; any other value is used
// as written (so a test can ask for a zero timeout explicitly by
// setting MaxRetries alone). Distributed runs (distmv, distsolver)
// always get DefaultRetry; Options.Retry lets this package's tests
// substitute another policy.
type RetryPolicy struct {
	// MaxRetries is the number of retransmissions tolerated before the
	// receive fails with a RetriesExhaustedError.
	MaxRetries int
	// TimeoutSeconds is the base receive deadline: the wait charged for
	// the first lost attempt.
	TimeoutSeconds float64
	// BackoffFactor multiplies the timeout after every lost attempt
	// (values ≤ 1 mean a constant timeout).
	BackoffFactor float64
	// MaxBackoffSeconds caps one backoff step (0 = uncapped).
	MaxBackoffSeconds float64
}

// DefaultRetry is the policy used when Options.Retry is the zero value.
var DefaultRetry = RetryPolicy{
	MaxRetries:        8,
	TimeoutSeconds:    50e-6,
	BackoffFactor:     2,
	MaxBackoffSeconds: 1e-3,
}

// isZero reports whether the policy is the whole-zero value (which
// selects DefaultRetry).
func (p RetryPolicy) isZero() bool {
	return p.MaxRetries == 0 && p.TimeoutSeconds == 0 &&
		p.BackoffFactor == 0 && p.MaxBackoffSeconds == 0
}

// BackoffSeconds returns the deadline charged for lost attempt i
// (0-based): TimeoutSeconds·BackoffFactor^i, capped at
// MaxBackoffSeconds when that is positive.
func (p RetryPolicy) BackoffSeconds(i int) float64 {
	d := p.TimeoutSeconds
	if p.BackoffFactor > 1 {
		d *= math.Pow(p.BackoffFactor, float64(i))
	}
	if p.MaxBackoffSeconds > 0 && d > p.MaxBackoffSeconds {
		d = p.MaxBackoffSeconds
	}
	return d
}

// totalBackoff sums the deadlines for n lost attempts.
func (p RetryPolicy) totalBackoff(n int) float64 {
	total := 0.0
	for i := 0; i < n; i++ {
		total += p.BackoffSeconds(i)
	}
	return total
}

// normalized resolves the whole-zero policy to DefaultRetry.
func (p RetryPolicy) normalized() RetryPolicy {
	if p.isZero() {
		return DefaultRetry
	}
	return p
}

// Jitter spreads d by a deterministic factor in [1−frac, 1+frac),
// derived from the splitmix64 mix of (seed, stream, step) — no wall
// clock, no shared RNG, so a schedule replays exactly. frac outside
// [0, 1) is clamped; non-positive d and zero frac pass through
// unchanged. spmvtop's reconnect loop spreads its waits with it.
func Jitter(d, frac float64, seed, stream, step uint64) float64 {
	if frac <= 0 || d <= 0 {
		return d
	}
	if frac >= 1 {
		frac = math.Nextafter(1, 0)
	}
	z := seed ^ stream*0x9e3779b97f4a7c15 ^ step*0xbf58476d1ce4e5b9
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	// z → uniform in [−1, 1), then scale into the ±frac band.
	u := 2*float64(z>>11)/float64(1<<53) - 1
	return d * (1 + frac*u)
}

// RankFailedError reports that a rank died — by injected crash, body
// error, or panic — and names who detected it and when. DetectedBy is
// -1 when the rank reports its own injected crash.
type RankFailedError struct {
	Rank       int     // the dead rank
	FailedAt   float64 // virtual time of death
	DetectedBy int     // detecting rank, or -1 for a self-reported crash
	DetectedAt float64 // virtual time the detector learned of the death
}

func (e *RankFailedError) Error() string {
	if e.DetectedBy < 0 {
		return fmt.Sprintf("mpi: rank %d crashed at t=%gs (injected fault)", e.Rank, e.FailedAt)
	}
	return fmt.Sprintf("mpi: rank %d failed at t=%gs (detected by rank %d at t=%gs)",
		e.Rank, e.FailedAt, e.DetectedBy, e.DetectedAt)
}

// RetriesExhaustedError reports a receive whose message was dropped
// more times than the retry policy tolerates.
type RetriesExhaustedError struct {
	Src, Dst, Tag int
	Attempts      int // lost transmission attempts observed
	MaxRetries    int
}

func (e *RetriesExhaustedError) Error() string {
	return fmt.Sprintf("mpi: recv %d←%d tag %d: %d transmission attempts lost, retry budget %d exhausted",
		e.Dst, e.Src, e.Tag, e.Attempts, e.MaxRetries)
}

// ClockError reports an illegal virtual-clock move. Advance and
// SetClock used to panic on these conditions; they now latch the first
// ClockError on the Comm (subsequent clock ops are no-ops) and Run
// surfaces it as the rank's error.
type ClockError struct {
	Op       string // "advance" or "set"
	From, To float64
}

func (e *ClockError) Error() string {
	if e.Op == "advance" {
		return "mpi: negative time advance"
	}
	return fmt.Sprintf("mpi: clock moving backwards: %g < %g", e.To, e.From)
}
