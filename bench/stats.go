package main

import (
	"math"
	"sort"
	"time"
)

// splitmix64 is the benchmark's only source of randomness: every input
// choice derives from (seed, index), never from time or a shared RNG,
// so one seed names one exact set of inputs.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// derive mixes a stream tag and an index into seed.
func derive(seed uint64, stream string, i int) uint64 {
	h := seed
	for _, c := range []byte(stream) {
		h = splitmix64(h ^ uint64(c))
	}
	return splitmix64(h ^ uint64(i)<<1)
}

// unit maps a hash onto [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// poissonSchedule returns the send offsets of a Poisson arrival process
// at rate per second over d. The schedule depends only on seed.
func poissonSchedule(seed uint64, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for i := 0; ; i++ {
		t += -math.Log(1-unit(derive(seed, "arrival", i))) / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs,
// which it sorts in place; 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// tailQuantiles are the tail percentiles a report may quote, highest
// first.
var tailQuantiles = []float64{0.999, 0.99, 0.9, 0.75, 0.5}

// supportedTail returns the highest quantile of tailQuantiles that
// leaves at least ten of n samples beyond it, or 0 when even the
// median does not (n < 20).
func supportedTail(n int) float64 {
	for _, q := range tailQuantiles {
		rank := int(math.Ceil(q * float64(n)))
		if n-rank >= 10 {
			return q
		}
	}
	return 0
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ratio returns a/(a+b), 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}
