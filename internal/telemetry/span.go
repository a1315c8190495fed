package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Span is one named interval of virtual time on one lane of one
// simulated process (rank). It is the unit the Chrome-trace codec
// (WriteTrace) consumes: Proc becomes the pid, Lane the thread,
// Cat the event category ("comm", "gpu", "solver").
type Span struct {
	Proc       int
	Lane       string
	Cat        string
	Name       string
	Start, End float64 // virtual seconds
	// Args are attached verbatim to the exported trace event
	// (iteration numbers, modes, formats). encoding/json sorts map
	// keys, so Args do not threaten determinism.
	Args map[string]string
}

// spanMirror is the process-wide span tap: when set (by the
// internal/flight recorder), every SpanLog.Add is also handed to it,
// so an always-on ring buffer can keep a recent window of whatever
// any simulation layer records, without threading a recorder through
// every Options struct. The cost when disabled is one atomic load.
var spanMirror atomic.Pointer[func(Span)]

// SetSpanMirror installs fn as the process-wide span tap (nil clears
// it). fn must be safe for concurrent use and must not call back into
// the SpanLog it is observing.
func SetSpanMirror(fn func(Span)) {
	if fn == nil {
		spanMirror.Store(nil)
		return
	}
	spanMirror.Store(&fn)
}

// SpanLog collects spans from concurrent rank goroutines. Insertion
// order is not meaningful; Spans() returns a deterministically sorted
// copy.
type SpanLog struct {
	mu    sync.Mutex
	spans []Span
}

// NewSpanLog returns an empty log.
func NewSpanLog() *SpanLog { return &SpanLog{} }

// Add records one span. Degenerate intervals are clamped rather than
// stored verbatim: a negative Start moves to 0 and an End before Start
// collapses to Start. Un-clamped they would corrupt every downstream
// consumer that assumes well-ordered intervals (the Chrome-trace
// exporter and the internal/critpath happens-before DAG, where a span
// ending before it starts would make path time go backwards).
func (l *SpanLog) Add(s Span) {
	if s.Start < 0 {
		s.Start = 0
	}
	if s.End < s.Start {
		s.End = s.Start
	}
	if fn := spanMirror.Load(); fn != nil {
		(*fn)(s)
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// Len returns the number of recorded spans.
func (l *SpanLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// MaxEnd returns the latest span end time (0 when empty).
func (l *SpanLog) MaxEnd() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	max := 0.0
	for _, s := range l.spans {
		if s.End > max {
			max = s.End
		}
	}
	return max
}

// AppendShifted copies every span of src into l with its times moved
// by shift. It stitches separately-clocked simulation phases (e.g. a
// benchmark run followed by a solver run) into one timeline.
func (l *SpanLog) AppendShifted(src *SpanLog, shift float64) {
	for _, s := range src.Spans() {
		s.Start += shift
		s.End += shift
		l.Add(s)
	}
}

// Spans returns a sorted copy: by start time, then process, lane,
// name, end. The order is stable across runs of the deterministic
// simulation regardless of goroutine scheduling.
func (l *SpanLog) Spans() []Span {
	l.mu.Lock()
	out := append([]Span(nil), l.spans...)
	l.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.Start != b.Start:
			return a.Start < b.Start
		case a.Proc != b.Proc:
			return a.Proc < b.Proc
		case a.Lane != b.Lane:
			return a.Lane < b.Lane
		case a.Name != b.Name:
			return a.Name < b.Name
		}
		return a.End < b.End
	})
	return out
}
