package runledger

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"pjds/internal/critpath"
)

// Cross-run trend analysis: where critpath.Diff compares exactly two
// artifacts under a tolerance band, Trend lines up any number of
// ledger entries in chronological order, each keyed by stable metric
// names, and classifies each metric's latest value against its
// historical best. Directions reuse the diff
// gate's heuristics; metrics with unknown direction are reported but
// never gate across runs (environments differ run to run, unlike the
// deterministic pairwise self-diff).

// Verdicts of one metric's trend.
const (
	TrendOK         = "ok"         // last value within tolerance of historical best
	TrendImproved   = "improved"   // last value is a new best beyond tolerance
	TrendWatch      = "watch"      // worse than best, but not sustained (or direction unknown)
	TrendRegression = "regression" // last Sustain points all worse than best: gate-worthy
	TrendSingle     = "single"     // seen in fewer than two sources: informational
)

// Source is one point-in-time metric set with a display name.
type Source struct {
	Name    string
	Metrics map[string]float64
}

// Point is one metric observation within a trend row.
type Point struct {
	Source string  `json:"source"`
	Value  float64 `json:"value"`
}

// TrendRow is one metric's cross-run trajectory.
type TrendRow struct {
	Metric    string  `json:"metric"`
	Points    []Point `json:"points"`
	Direction int     `json:"direction"` // +1 higher-better, -1 lower-better, 0 unknown
	Best      float64 `json:"best"`
	Last      float64 `json:"last"`
	// RelVsBest is how far the last value sits from the historical
	// best, signed so positive = worse (direction-adjusted).
	RelVsBest float64 `json:"rel_vs_best"`
	Verdict   string  `json:"verdict"`
}

// Gates reports whether this row should fail the trend gate.
func (r TrendRow) Gates() bool { return r.Verdict == TrendRegression }

// TrendOptions parameterize the analysis.
type TrendOptions struct {
	// Tolerance is the relative band around the historical best
	// within which the latest value counts as "ok" (default 0.05:
	// cross-run noise is larger than same-process pairwise noise).
	Tolerance float64
	// Sustain is how many consecutive trailing points must sit beyond
	// tolerance for a regression verdict (default 2) — one bad run is
	// "watch", a trend is a regression.
	Sustain int
	// PerMetric overrides Tolerance for metrics whose name contains
	// the key (substring match).
	PerMetric map[string]float64
}

func (o TrendOptions) tolerance(metric string) float64 {
	tol := o.Tolerance
	if tol <= 0 {
		tol = 0.05
	}
	for key, t := range o.PerMetric {
		if strings.Contains(metric, key) {
			tol = t
			break
		}
	}
	return tol
}

func (o TrendOptions) sustain() int {
	if o.Sustain <= 0 {
		return 2
	}
	return o.Sustain
}

// SourceFromEntry exposes a ledger entry's metric sums as a Source.
func SourceFromEntry(e Entry) Source {
	name := e.Tool
	if e.Time != "" {
		name = e.Tool + "@" + e.Time
	}
	return Source{Name: name, Metrics: e.Metrics}
}

// ReadSources reads the ledger at path as trend sources, oldest first.
func ReadSources(path string) ([]Source, error) {
	entries, err := Read(path)
	if err != nil {
		return nil, err
	}
	sources := make([]Source, len(entries))
	for i, e := range entries {
		sources[i] = SourceFromEntry(e)
	}
	return sources, nil
}

// badness returns how much worse v is than best, relative and
// direction-adjusted: positive = worse, 0 = at or beyond best.
func badness(dir int, best, v float64) float64 {
	if best == v {
		return 0
	}
	denom := math.Abs(best)
	if denom == 0 {
		denom = 1
	}
	var b float64
	switch dir {
	case +1:
		b = (best - v) / denom
	case -1:
		b = (v - best) / denom
	default:
		b = math.Abs(v-best) / denom
	}
	if b < 0 {
		return 0
	}
	return b
}

// Trend lines up sources (chronological order) and classifies every
// metric that appears in at least one of them. Rows are sorted with
// gating regressions first, then watch, then the rest by name.
func Trend(sources []Source, opt TrendOptions) []TrendRow {
	metrics := map[string][]Point{}
	for _, src := range sources {
		for name, v := range src.Metrics {
			metrics[name] = append(metrics[name], Point{Source: src.Name, Value: v})
		}
	}
	rows := make([]TrendRow, 0, len(metrics))
	for name, pts := range metrics {
		row := TrendRow{Metric: name, Points: pts, Direction: critpath.Direction(name)}
		row.Last = pts[len(pts)-1].Value
		if len(pts) < 2 {
			row.Best = row.Last
			row.Verdict = TrendSingle
			rows = append(rows, row)
			continue
		}
		best := pts[0].Value
		for _, p := range pts[1:] {
			switch row.Direction {
			case +1:
				if p.Value > best {
					best = p.Value
				}
			case -1:
				if p.Value < best {
					best = p.Value
				}
			default:
				// No direction: "best" is just the first value; any
				// drift is measured against it.
			}
		}
		row.Best = best
		tol := opt.tolerance(name)
		row.RelVsBest = badness(row.Direction, best, row.Last)
		switch {
		case row.Direction == 0:
			// Unknown direction never gates across runs; flag drift
			// beyond tolerance as watch.
			if row.RelVsBest > tol {
				row.Verdict = TrendWatch
			} else {
				row.Verdict = TrendOK
			}
		case row.RelVsBest <= tol:
			// At (or tied with) the best. Call out a fresh best that
			// beats every earlier point by more than the band.
			prevBest := pts[0].Value
			for _, p := range pts[1 : len(pts)-1] {
				switch row.Direction {
				case +1:
					if p.Value > prevBest {
						prevBest = p.Value
					}
				case -1:
					if p.Value < prevBest {
						prevBest = p.Value
					}
				}
			}
			if badness(row.Direction, row.Last, prevBest) > tol {
				row.Verdict = TrendImproved
			} else {
				row.Verdict = TrendOK
			}
		default:
			// Worse than best beyond tolerance: regression only when
			// sustained over the trailing Sustain points.
			n := opt.sustain()
			if n > len(pts) {
				n = len(pts)
			}
			sustained := true
			for _, p := range pts[len(pts)-n:] {
				if badness(row.Direction, best, p.Value) <= tol {
					sustained = false
					break
				}
			}
			if sustained {
				row.Verdict = TrendRegression
			} else {
				row.Verdict = TrendWatch
			}
		}
		rows = append(rows, row)
	}
	rank := map[string]int{TrendRegression: 0, TrendWatch: 1, TrendImproved: 2, TrendOK: 3, TrendSingle: 4}
	sort.Slice(rows, func(i, j int) bool {
		if rank[rows[i].Verdict] != rank[rows[j].Verdict] {
			return rank[rows[i].Verdict] < rank[rows[j].Verdict]
		}
		return rows[i].Metric < rows[j].Metric
	})
	return rows
}

// Regressions filters rows down to the gate-failing ones.
func Regressions(rows []TrendRow) []TrendRow {
	var out []TrendRow
	for _, r := range rows {
		if r.Gates() {
			out = append(out, r)
		}
	}
	return out
}

// WriteTrendReport renders the rows as a text report. When full is
// false, "single" rows (metrics seen in only one source) are
// summarized by count instead of listed.
func WriteTrendReport(w io.Writer, sources []Source, rows []TrendRow, full bool) {
	fmt.Fprintf(w, "trend over %d sources:\n", len(sources))
	for i, s := range sources {
		fmt.Fprintf(w, "  [%d] %s (%d metrics)\n", i+1, s.Name, len(s.Metrics))
	}
	counts := map[string]int{}
	for _, r := range rows {
		counts[r.Verdict]++
	}
	fmt.Fprintf(w, "metrics: %d tracked — %d regression, %d watch, %d improved, %d ok, %d single-source\n",
		len(rows), counts[TrendRegression], counts[TrendWatch], counts[TrendImproved],
		counts[TrendOK], counts[TrendSingle])
	fmt.Fprintf(w, "  %-11s %-4s %-52s %12s %12s %8s\n", "verdict", "dir", "metric", "best", "last", "Δvs best")
	for _, r := range rows {
		if r.Verdict == TrendSingle && !full {
			continue
		}
		if (r.Verdict == TrendOK) && !full {
			continue
		}
		fmt.Fprintf(w, "  %-11s %-4s %-52s %12.4g %12.4g %7.1f%%\n",
			r.Verdict, dirString(r.Direction), trimMetric(r.Metric), r.Best, r.Last, 100*r.RelVsBest)
	}
	if !full {
		fmt.Fprintf(w, "  (%d ok and %d single-source rows hidden; -trend-full lists them)\n",
			counts[TrendOK], counts[TrendSingle])
	}
}

func dirString(d int) string {
	switch d {
	case +1:
		return "↑"
	case -1:
		return "↓"
	}
	return "·"
}

func trimMetric(m string) string {
	if len(m) > 52 {
		return "…" + m[len(m)-51:]
	}
	return m
}
