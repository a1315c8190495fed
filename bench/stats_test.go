package main

import (
	"testing"
	"time"
)

func TestSupportedTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75},
		{100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ q, want float64 }{{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	const rate = 200.0
	d := 20 * time.Second
	a := poissonSchedule(7, rate, d)
	b := poissonSchedule(7, rate, d)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := poissonSchedule(8, rate, d)
	if len(c) == len(a) && c[0] == a[0] && c[len(c)-1] == a[len(a)-1] {
		t.Errorf("seeds 7 and 8 gave the same schedule")
	}
	// The count of a Poisson process over d has standard deviation
	// sqrt(rate·d) = 63; allow five of them.
	if want := rate * d.Seconds(); float64(len(a)) < want-320 || float64(len(a)) > want+320 {
		t.Errorf("%d arrivals over %v at %g/s, want about %g", len(a), d, rate, want)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= d {
			t.Fatalf("arrival %d at %v is out of order or beyond %v", i, a[i], d)
		}
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g", got)
	}
	if got := geomean([]float64{1, 4}); got < 1.999 || got > 2.001 {
		t.Errorf("geomean(1,4) = %g", got)
	}
}
