package service

import (
	"sync/atomic"
	"time"

	"pjds/internal/flight"
	"pjds/internal/gpu"
	"pjds/internal/health"
	"pjds/internal/telemetry"
)

// Tier is one rung of the degradation ladder. The service walks down
// it under stress and back up as the health window clears:
//
//	TierDevice — requests run on a simulated GPU from the pool; this
//	  is the paper's fast path, bounded by the Eq. 1 device bandwidth.
//	TierHost   — every device has taken an uncorrectable ECC error
//	  (the PR 4 fault signal); requests run the hostkernel CPU path,
//	  the hybrid fallback of Schubert et al., bit-identical but slower.
//	TierReject — the PR 6 health engine reports fail-grade trouble
//	  (divergence, rank failures, …); new work is shed with 503 until
//	  the rolling window clears. Admission-queue overload never reaches
//	  this rung — it sheds per-request with 429 instead.
type Tier int32

const (
	TierDevice Tier = iota
	TierHost
	TierReject
)

// String returns the lowercase tier name.
func (t Tier) String() string {
	switch t {
	case TierDevice:
		return "device"
	case TierHost:
		return "host"
	case TierReject:
		return "reject"
	}
	return "unknown"
}

// device is one simulated accelerator of the pool. lost latches after
// an uncorrectable ECC error: real GPGPU runtimes poison the context
// (the paper's §II ECC motivation), so the device never rejoins.
type device struct {
	id  int
	dev *gpu.Device
	inj gpu.ECCInjector // nil = healthy board
	// labels tag the board's kernel series (rank = device: per-board
	// rows on the dashboards); built once so an apply allocates none.
	labels  []telemetry.Label
	lost    atomic.Bool
	applies atomic.Int64
}

// ladder evaluates the current tier, caching the (mutex-taking)
// health report briefly so per-request checks stay cheap under the
// swarm's thousands of concurrent calls.
type ladder struct {
	eng     *health.Engine // nil = never reject
	healthy *atomic.Int32  // surviving device count (owned by Server)

	cached  atomic.Int32 // last evaluated Tier
	checked atomic.Int64 // unix nanos of last health evaluation
}

// ladderTTL bounds how stale the cached health verdict may be.
const ladderTTL = 250 * time.Millisecond

func newLadder(eng *health.Engine, healthy *atomic.Int32) *ladder {
	return &ladder{eng: eng, healthy: healthy}
}

// tier returns the current rung. Device loss is evaluated on every
// call (an atomic load); the health verdict is re-evaluated at most
// every ladderTTL.
func (l *ladder) tier(now time.Time) Tier {
	if l.eng != nil {
		at := l.checked.Load()
		if now.UnixNano()-at > int64(ladderTTL) && l.checked.CompareAndSwap(at, now.UnixNano()) {
			prev := Tier(l.cached.Load())
			next := TierDevice
			if l.eng.Report().Status == health.Fail {
				next = TierReject
			}
			l.cached.Store(int32(next))
			if prev == TierReject && next != TierReject {
				flight.Record(flight.Info, "service.breaker_close", -1, 0, "health window cleared, admitting again", 0)
			} else if prev != TierReject && next == TierReject {
				flight.Record(flight.Warn, "service.breaker_open", -1, 0, "fail-grade health, shedding all new work", 0)
			}
		}
		if Tier(l.cached.Load()) == TierReject {
			return TierReject
		}
	}
	if l.healthy.Load() == 0 {
		return TierHost
	}
	return TierDevice
}
