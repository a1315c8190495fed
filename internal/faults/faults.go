// Package faults builds seeded, reproducible fault plans for the
// simulated cluster: message drops, delays, duplicates and link
// degradation injected into internal/simnet, rank crashes and
// compute slowdowns consumed by the distributed drivers, and
// uncorrectable-ECC events consumed by the internal/gpu simulator.
//
// A plan is written in a small schedule DSL (see Parse) and is
// deterministic by construction: probabilistic decisions are keyed on
// (seed, rule, src, dst, per-link sequence number) through a
// splitmix64 hash — never on wall-clock time or goroutine order — so
// the same seed reproduces the exact same fault schedule on every
// run. That is what makes chaos runs diffable: two invocations with
// one seed see identical drops, identical retries, identical crash
// points.
package faults

import (
	"sync"

	"pjds/internal/flight"
	"pjds/internal/simnet"
)

// Plan is a parsed fault schedule. It implements simnet.Injector for
// the wire-level faults; rank-level events (crash, ECC, slowdown) are
// consulted by the distributed drivers through CrashNow / ECCNow /
// SlowFactor. The zero Plan injects nothing.
type Plan struct {
	// Seed keys every probabilistic decision in the plan.
	Seed uint64

	rules []rule // wire-level rules, in script order

	crash map[int]int     // rank → solver iteration of death
	ecc   map[int]int     // rank → kernel-launch index of the ECC event
	slow  map[int]float64 // rank → compute slowdown factor
	// rankRuleTexts preserves the original crash/ecc/slow lines for
	// reporting, in script order.
	rankRuleTexts []string

	mu         sync.Mutex
	crashFired map[int]bool
	eccFired   map[int]bool
}

// rule is one wire-level line of the schedule.
type rule struct {
	kind     string // "drop", "delay", "dup", "degrade"
	all      bool   // applies to every link
	src, dst int    // the link, when !all
	nth      int64  // 1-based per-link message index (0 = unset)
	prob     float64
	attempts int     // drop: lost transmission attempts
	delay    float64 // delay: extra seconds
	factor   float64 // degrade: bandwidth divisor
	text     string  // the original line, for reporting
}

// splitmix64 is the standard 64-bit finalizer; good avalanche, no
// allocation, no shared state.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// roll returns a uniform [0,1) variate fully determined by the plan
// seed, the rule index, the link, and the per-link sequence number.
func (p *Plan) roll(ruleIdx, src, dst int, seq int64) float64 {
	h := splitmix64(p.Seed ^ uint64(ruleIdx)*0xA24BAED4963EE407)
	h = splitmix64(h ^ uint64(src)<<40 ^ uint64(dst)<<20 ^ uint64(seq))
	return float64(h>>11) / (1 << 53)
}

// OnSend implements simnet.Injector: it folds every matching rule
// into one SendFault for this transmission. Deterministic in its
// arguments and the plan seed.
func (p *Plan) OnSend(src, dst, tag int, bytes int64, seq int64) simnet.SendFault {
	var f simnet.SendFault
	for i, r := range p.rules {
		if !r.all && (r.src != src || r.dst != dst) {
			continue
		}
		if r.nth > 0 {
			if seq+1 != r.nth {
				continue
			}
		} else if r.prob > 0 && p.roll(i, src, dst, seq) >= r.prob {
			continue
		}
		switch r.kind {
		case "drop":
			f.DropAttempts += r.attempts
		case "delay":
			f.ExtraDelaySeconds += r.delay
		case "dup":
			f.Duplicate = true
		case "degrade":
			if r.factor > f.BandwidthFactor {
				f.BandwidthFactor = r.factor
			}
		}
	}
	return f
}

// CrashNow reports whether rank dies at this solver iteration. The
// event is one-shot: it fires once per plan, so a recovered run that
// re-executes the iteration does not crash again. Reset re-arms it.
func (p *Plan) CrashNow(rank, iter int) bool {
	at, ok := p.crash[rank]
	if !ok || at != iter {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashFired[rank] {
		return false
	}
	if p.crashFired == nil {
		p.crashFired = map[int]bool{}
	}
	p.crashFired[rank] = true
	flight.Record(flight.Warn, "faults.crash_armed", rank, 0, "planned rank crash fired at solver iteration", float64(iter))
	return true
}

// ECCNow reports whether rank's device takes an uncorrectable ECC hit
// at this kernel-launch index. One-shot per rank, like CrashNow.
func (p *Plan) ECCNow(rank, launch int) bool {
	at, ok := p.ecc[rank]
	if !ok || at != launch {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.eccFired[rank] {
		return false
	}
	if p.eccFired == nil {
		p.eccFired = map[int]bool{}
	}
	p.eccFired[rank] = true
	flight.Record(flight.Warn, "faults.ecc_armed", rank, 0, "planned ECC hit fired at kernel launch", float64(launch))
	return true
}

// SlowFactor returns the compute-slowdown multiplier for rank (1 when
// the plan leaves it at full speed).
func (p *Plan) SlowFactor(rank int) float64 {
	if f, ok := p.slow[rank]; ok && f > 0 {
		return f
	}
	return 1
}

// Reset re-arms the one-shot rank events, so the identical schedule
// replays in a second run of the same process (reproducibility
// checks).
func (p *Plan) Reset() {
	p.mu.Lock()
	p.crashFired = nil
	p.eccFired = nil
	p.mu.Unlock()
}

// Rules returns the original script lines in order, for reporting.
func (p *Plan) Rules() []string {
	out := make([]string, 0, len(p.rules)+len(p.crash)+len(p.ecc)+len(p.slow))
	for _, r := range p.rules {
		out = append(out, r.text)
	}
	for _, t := range p.rankRuleTexts {
		out = append(out, t)
	}
	return out
}

// DeviceInjector adapts the plan to the internal/gpu fault hook for
// one rank: it counts that rank's kernel launches and fires the
// planned ECC event at the configured launch index.
type DeviceInjector struct {
	p      *Plan
	rank   int
	mu     sync.Mutex
	launch int
}

// DeviceFor returns the per-rank device-fault adapter (satisfies
// gpu.ECCInjector). Each call returns a fresh launch counter.
func (p *Plan) DeviceFor(rank int) *DeviceInjector {
	return &DeviceInjector{p: p, rank: rank}
}

// ECCEvent implements the gpu fault hook: called once per kernel
// launch, it reports whether this launch takes the planned
// uncorrectable double-bit ECC error.
func (d *DeviceInjector) ECCEvent(kernel string) bool {
	d.mu.Lock()
	l := d.launch
	d.launch++
	d.mu.Unlock()
	return d.p.ECCNow(d.rank, l)
}
