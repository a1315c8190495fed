package main

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"pjds/internal/matgen"
	"pjds/internal/matrix"
)

func loadRepoSpec(t *testing.T) *spec {
	t.Helper()
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecIsWellFormed(t *testing.T) {
	s := loadRepoSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(s.EndToEnd))
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(s.PerLayer))
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(s.Workloads))
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", s.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	var declared []string
	for _, w := range s.Workloads {
		name(w.Name)
		declared = append(declared, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var code []string
	for w := range workloads {
		code = append(code, w)
	}
	sort.Strings(declared)
	sort.Strings(code)
	if strings.Join(declared, ",") != strings.Join(code, ",") {
		t.Errorf("BENCHMARK.json declares workloads %v, the program runs %v", declared, code)
	}
	maxBound, setupBound := 0.0, -1.0
	for _, m := range s.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g, want the largest bound %g", setupBound, maxBound)
	}
	for _, m := range s.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %s: unit %q, better %q, bound %g", m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	for _, p := range s.Paths {
		if st, err := os.Stat("../" + p); err != nil || !st.IsDir() {
			t.Errorf("path %q is not a directory of the repository", p)
		}
	}
}

func TestReportRequiresExactlyTheDeclaredMetrics(t *testing.T) {
	s := loadRepoSpec(t)
	r := &result{setup: []float64{1, 2, 3}, heapMB: 1}
	values := r.endToEnd()
	if _, err := s.report(values, false); err != nil {
		t.Errorf("end-to-end metrics: %v", err)
	}
	values["undeclared"] = 1
	if _, err := s.report(values, false); err == nil {
		t.Errorf("an undeclared metric was reported")
	}
	delete(values, "undeclared")
	delete(values, "lat_p50_ms")
	if _, err := s.report(values, false); err == nil {
		t.Errorf("a declared metric was missing and not noticed")
	}
}

// TestPerLayerMetricsAreDeclared checks the per-layer metrics every
// workload reports: the layer costs, the loop counters (0 when a
// workload's loop bypasses the layer), and the trace attribution.
func TestPerLayerMetricsAreDeclared(t *testing.T) {
	s := loadRepoSpec(t)
	layers, err := layerCosts([]*matrix.CSR[float64]{matgen.Stencil2D(20, 20)}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &result{layers: layers}
	rep, err := s.report(r.perLayer(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range s.PerLayer {
		if rep[m.Name].Unit != m.Unit {
			t.Errorf("%s reported in %q", m.Name, rep[m.Name].Unit)
		}
	}
}
