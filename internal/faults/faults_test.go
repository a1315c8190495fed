package faults

import (
	"math"
	"strings"
	"testing"
)

const script = `
# chaos schedule
drop link=0->1 nth=3 attempts=2
drop all prob=0.01
delay link=1->0 nth=1 by=50us
dup link=0->1 nth=5
degrade link=2->3 factor=4
slow rank=2 factor=3
crash rank=1 iter=5
ecc rank=2 launch=6
`

func TestParseAndMatch(t *testing.T) {
	p, err := Parse(42, script)
	if err != nil {
		t.Fatal(err)
	}
	// nth=3 on 0->1 is seq 2 (1-based nth), two lost attempts.
	f := p.OnSend(0, 1, 9, 100, 2)
	if f.DropAttempts < 2 {
		t.Errorf("nth drop: %+v", f)
	}
	// delay 1->0 first message.
	f = p.OnSend(1, 0, 0, 8, 0)
	if math.Abs(f.ExtraDelaySeconds-50e-6) > 1e-18 {
		t.Errorf("delay = %g, want 50us", f.ExtraDelaySeconds)
	}
	// dup 0->1 fifth message.
	if f = p.OnSend(0, 1, 0, 8, 4); !f.Duplicate {
		t.Error("nth dup did not fire")
	}
	// degrade applies to every 2->3 message.
	if f = p.OnSend(2, 3, 0, 8, 7); f.BandwidthFactor != 4 {
		t.Errorf("degrade factor = %g", f.BandwidthFactor)
	}
	if got := p.SlowFactor(2); got != 3 {
		t.Errorf("slow factor = %g", got)
	}
	if got := p.SlowFactor(0); got != 1 {
		t.Errorf("healthy rank slowed: %g", got)
	}
	if p.CrashNow(1, 4) || !p.CrashNow(1, 5) {
		t.Error("rank 1 should crash at iteration 5 only")
	}
	if len(p.Rules()) != 8 {
		t.Errorf("rules = %d: %v", len(p.Rules()), p.Rules())
	}
}

func TestDeterministicSchedule(t *testing.T) {
	a := mustParse(t, 7, "drop all prob=0.2\ndelay all prob=0.1 by=1ms")
	b := mustParse(t, 7, "drop all prob=0.2\ndelay all prob=0.1 by=1ms")
	c := mustParse(t, 8, "drop all prob=0.2\ndelay all prob=0.1 by=1ms")
	same, diff := 0, 0
	for seq := int64(0); seq < 2000; seq++ {
		fa, fb, fc := a.OnSend(0, 1, 0, 8, seq), b.OnSend(0, 1, 0, 8, seq), c.OnSend(0, 1, 0, 8, seq)
		if fa != fb {
			t.Fatalf("seq %d: same seed diverged: %+v vs %+v", seq, fa, fb)
		}
		if fa == fc {
			same++
		} else {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical schedules")
	}
}

func TestProbabilisticRate(t *testing.T) {
	p := mustParse(t, 3, "drop all prob=0.1")
	hits := 0
	const n = 20000
	for seq := int64(0); seq < n; seq++ {
		if p.OnSend(0, 1, 0, 8, seq).DropAttempts > 0 {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.08 || rate > 0.12 {
		t.Errorf("drop rate = %g, want ≈ 0.1", rate)
	}
}

func TestOneShotEvents(t *testing.T) {
	p := mustParse(t, 1, "crash rank=1 iter=5\necc rank=2 launch=3")
	if p.CrashNow(1, 4) || p.CrashNow(0, 5) {
		t.Error("crash fired off schedule")
	}
	if !p.CrashNow(1, 5) {
		t.Error("crash did not fire")
	}
	if p.CrashNow(1, 5) {
		t.Error("crash fired twice")
	}
	d := p.DeviceFor(2)
	for l := 0; l < 3; l++ {
		if d.ECCEvent("k") {
			t.Errorf("ECC fired at launch %d", l)
		}
	}
	if !d.ECCEvent("k") {
		t.Error("ECC did not fire at launch 3")
	}
	if d.ECCEvent("k") {
		t.Error("ECC fired twice")
	}
	p.Reset()
	if !p.CrashNow(1, 5) {
		t.Error("Reset did not re-arm the crash")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"explode rank=1",
		"drop nth=1",             // no target
		"drop all",               // no nth/prob
		"drop link=0->0 nth=1",   // self link
		"drop all prob=1.5",      // prob out of range
		"delay all prob=0.1",     // missing by
		"degrade all factor=0.5", // factor ≤ 1
		"crash rank=1",           // missing iter
		"ecc rank=1",             // missing launch
		"slow rank=1 factor=1",   // factor ≤ 1
		"drop link=0>1 nth=1",    // malformed link
		"delay all prob=0.1 by=-3us",
		// Non-finite numbers slip past every comparison-based range check.
		"drop all prob=NaN",
		"degrade all factor=NaN",
		"slow rank=0 factor=NaN",
		"slow rank=0 factor=Inf",
		"delay all prob=0.5 by=NaN",
		"delay all prob=0.5 by=Infs",
		"delay all prob=0.5 by=+infms",
	}
	for _, s := range bad {
		if _, err := Parse(0, s); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
	// Error carries the line number.
	if _, err := Parse(0, "drop all prob=0.5\nbogus line"); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("line number missing from %v", err)
	}
}

func TestDurations(t *testing.T) {
	cases := map[string]float64{"50us": 50e-6, "50µs": 50e-6, "2ms": 2e-3, "1.5s": 1.5, "100ns": 1e-7, "0.25": 0.25}
	for s, want := range cases {
		got, err := parseDuration(s)
		if err != nil {
			t.Errorf("%q: %v", s, err)
		}
		if math.Abs(got-want) > 1e-18 {
			t.Errorf("%q = %g, want %g", s, got, want)
		}
	}
}

// mustParse is Parse for a schedule the test knows to be valid.
func mustParse(t testing.TB, seed uint64, script string) *Plan {
	t.Helper()
	p, err := Parse(seed, script)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
