package critpath

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// The perf-regression gate: a structural diff of two benchmark JSON
// documents (BENCH_*.json, perfreport -json output, telemetry
// snapshots — any JSON whose leaves are numbers). Every numeric leaf
// is compared under a per-metric tolerance band; direction heuristics
// classify each excursion as an improvement or a regression, and
// metrics with no known direction treat ANY excursion as a regression
// — the simulation is deterministic, so unexplained drift is a bug.

// DiffOptions parameterize the comparison.
type DiffOptions struct {
	// Tolerance is the default relative band (e.g. 0.02 = ±2%);
	// 0 selects 1e-9, the determinism band.
	Tolerance float64
	// PerMetric overrides the band for leaves whose path contains the
	// key (substring match on the final path component first, then the
	// full path).
	PerMetric map[string]float64
}

// Verdicts of one compared leaf.
const (
	DiffEqual       = "equal"
	DiffImprovement = "improvement"
	DiffRegression  = "regression"
	DiffMissing     = "missing" // present in old, absent in new: a regression
	DiffAdded       = "added"   // new metric: informational
)

// Finding is one leaf-level comparison result.
type Finding struct {
	Path      string  `json:"path"`
	Old       float64 `json:"old"`
	New       float64 `json:"new"`
	RelChange float64 `json:"rel_change"`
	Verdict   string  `json:"verdict"`
}

// Regression reports whether this finding should fail the gate.
func (f Finding) Regression() bool {
	return f.Verdict == DiffRegression || f.Verdict == DiffMissing
}

// Diff compares two benchmark JSON documents leaf by leaf. Findings
// are sorted by path; equal leaves are omitted.
func Diff(oldDoc, newDoc []byte, opt DiffOptions) ([]Finding, error) {
	var oldV, newV any
	if err := json.Unmarshal(oldDoc, &oldV); err != nil {
		return nil, fmt.Errorf("critpath: old document: %w", err)
	}
	if err := json.Unmarshal(newDoc, &newV); err != nil {
		return nil, fmt.Errorf("critpath: new document: %w", err)
	}
	oldLeaves := map[string]float64{}
	newLeaves := map[string]float64{}
	flatten("", oldV, oldLeaves)
	flatten("", newV, newLeaves)

	var out []Finding
	for path, ov := range oldLeaves {
		nv, ok := newLeaves[path]
		if !ok {
			out = append(out, Finding{Path: path, Old: ov, New: math.NaN(), Verdict: DiffMissing})
			continue
		}
		if f, changed := compare(path, ov, nv, opt); changed {
			out = append(out, f)
		}
	}
	for path, nv := range newLeaves {
		if _, ok := oldLeaves[path]; !ok {
			out = append(out, Finding{Path: path, Old: math.NaN(), New: nv, Verdict: DiffAdded})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// flatten walks a decoded JSON value, collecting numeric leaves under
// dotted/indexed paths like "entries[3].gflops".
func flatten(path string, v any, out map[string]float64) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := k
			if path != "" {
				p = path + "." + k
			}
			flatten(p, child, out)
		}
	case []any:
		for i, child := range x {
			flatten(fmt.Sprintf("%s[%d]", path, i), child, out)
		}
	case float64:
		out[path] = x
	case bool:
		b := 0.0
		if x {
			b = 1
		}
		out[path] = b
	}
}

// compare classifies one leaf pair, returning changed=false inside the
// tolerance band.
func compare(path string, ov, nv float64, opt DiffOptions) (Finding, bool) {
	tol := opt.Tolerance
	if tol <= 0 {
		tol = 1e-9
	}
	leaf := path
	if i := strings.LastIndexAny(path, ".]"); i >= 0 && i+1 < len(path) {
		leaf = path[i+1:]
	}
	for key, t := range opt.PerMetric {
		if strings.Contains(leaf, key) || strings.Contains(path, key) {
			tol = t
			break
		}
	}
	var rel float64
	switch {
	case ov == nv:
		return Finding{}, false
	case ov == 0:
		rel = math.Inf(sign(nv))
	default:
		rel = (nv - ov) / math.Abs(ov)
	}
	if math.Abs(rel) <= tol {
		return Finding{}, false
	}
	f := Finding{Path: path, Old: ov, New: nv, RelChange: rel}
	switch direction(leaf) {
	case +1: // higher is better
		if rel > 0 {
			f.Verdict = DiffImprovement
		} else {
			f.Verdict = DiffRegression
		}
	case -1: // lower is better
		if rel < 0 {
			f.Verdict = DiffImprovement
		} else {
			f.Verdict = DiffRegression
		}
	default: // no known direction: deterministic output should not move
		f.Verdict = DiffRegression
	}
	return f, true
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}

// direction guesses whether a metric is higher-better (+1),
// lower-better (−1) or direction-free (0) from its leaf name.
func direction(leaf string) int {
	l := strings.ToLower(leaf)
	for _, k := range []string{"gflops", "gf_s", "bandwidth", "efficiency", "hit_rate", "speedup", "overlap", "hidden", "fraction_hidden", "throughput"} {
		if strings.Contains(l, k) {
			return +1
		}
	}
	for _, k := range []string{"seconds", "_ns", "ns_per", "latency", "balance", "deviation", "penalty", "wire", "idle", "imbalance", "allocs"} {
		if strings.Contains(l, k) {
			return -1
		}
	}
	return 0
}
