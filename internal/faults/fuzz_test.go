package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzFaultsParse: Parse never panics, a plan it accepts re-parses from
// its own Rules() to the same rules, and no accepted number is NaN or
// infinite. The seed corpus is in testdata/fuzz/FuzzFaultsParse.
func FuzzFaultsParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, script string) {
		p, err := Parse(1, script)
		if err != nil {
			return
		}
		for _, r := range p.rules {
			for _, v := range []float64{r.prob, r.delay, r.factor} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%q accepted non-finite %s rule %+v", script, r.kind, r)
				}
			}
		}
		for rank, f := range p.slow {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				t.Fatalf("%q accepted slow factor %g for rank %d", script, f, rank)
			}
		}
		text := strings.Join(p.Rules(), "\n")
		q, err := Parse(1, text)
		if err != nil {
			t.Fatalf("%q: its rules %q do not re-parse: %v", script, text, err)
		}
		if !reflect.DeepEqual(p.rules, q.rules) || !reflect.DeepEqual(p.crash, q.crash) ||
			!reflect.DeepEqual(p.ecc, q.ecc) || !reflect.DeepEqual(p.slow, q.slow) ||
			!reflect.DeepEqual(p.Rules(), q.Rules()) {
			t.Fatalf("%q: re-parsing its rules %q changed the plan", script, text)
		}
	})
}
