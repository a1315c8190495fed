// Package flight is the always-on flight recorder of the simulated
// GPGPU cluster: a pair of fixed-size ring buffers — one for
// severity-tagged structured events (fault injected, rank failed, ECC
// downgrade, checkpoint/rollback, plan-cache miss, retry exhausted),
// one for spans mirrored off every telemetry.SpanLog — that keep the
// most recent window of a run in memory at near-zero cost, so that
// when something goes wrong a bounded post-incident trace can be
// dumped and analyzed with perfreport -trace-in / internal/critpath.
//
// Recording is lock-light and allocation-free in steady state: a slot
// index is claimed with one atomic add and the slot is written under
// a per-slot mutex, so concurrent rank goroutines only contend when
// they land on the same slot (ring wrap). Snapshots lock each slot
// briefly in turn and never block recorders for long.
//
// Dumps are triggered three ways: automatically when an event at or
// above the armed severity is recorded (PR4 fault detection, solver
// divergence), explicitly via Recorder.Trigger, or over HTTP with
// POST /spans/dump on a telemetry endpoint. A dump is bounded by the
// ring capacity by construction.
package flight

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"pjds/internal/telemetry"
)

// Severity tags an event with how alarming it is.
type Severity uint8

const (
	Debug Severity = iota // chatty bookkeeping (plan-cache misses)
	Info                  // normal lifecycle (checkpoints, retries absorbed)
	Warn                  // degraded but progressing (faults injected, rollbacks)
	Error                 // something failed (rank death, ECC event, retry budget)
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	}
	return "unknown"
}

// Event is one structured flight-recorder entry. The fields are flat
// scalars and strings so recording never allocates: callers pass
// constant kind/message strings and fold any variable detail into
// Rank and Value.
type Event struct {
	// Seq is the global record index; the ring keeps the highest ones.
	Seq uint64 `json:"seq"`
	// Time is the virtual-time coordinate when the recording layer has
	// one (mpi/distsolver clocks), 0 otherwise.
	Time float64 `json:"t"`
	// Rank is the simulated rank the event concerns (-1 = no rank).
	Rank int `json:"rank"`
	// Sev is the severity tag.
	Sev Severity `json:"sev"`
	// Kind is the stable event identifier, dot-scoped by layer
	// ("mpi.rank_failed", "gpu.ecc", "solver.checkpoint").
	Kind string `json:"kind"`
	// Msg is a short human-readable constant.
	Msg string `json:"msg"`
	// Value carries the event's one number (attempts, iteration,
	// peer rank, slowdown factor), 0 when unused.
	Value float64 `json:"value"`
}

// eventSlot is one ring cell; the mutex makes concurrent writers and
// snapshot readers race-safe without a global lock.
type eventSlot struct {
	mu sync.Mutex
	ev Event
}

type spanSlot struct {
	mu  sync.Mutex
	set bool
	sp  telemetry.Span
}

// DumpConfig parameterizes triggered dumps.
type DumpConfig struct {
	// Path is the trace file written on trigger. Each SetDump allows
	// one triggered dump; dumps after a recorder's first get a numeric
	// suffix before the extension.
	Path string
	// MinSeverity arms the automatic trigger: recording an event at or
	// above it fires a dump. Use ArmedOff to dump only on explicit
	// Trigger calls.
	MinSeverity Severity
}

// ArmedOff disables the automatic severity trigger.
const ArmedOff Severity = 255

// Recorder is a fixed-capacity flight recorder. The zero value is not
// usable; call New.
type Recorder struct {
	eventMask uint64
	eventSeq  atomic.Uint64
	events    []eventSlot

	spanMask uint64
	spanSeq  atomic.Uint64
	spans    []spanSlot

	dumpMu     sync.Mutex
	dump       DumpConfig
	armed      atomic.Uint32 // MinSeverity+1, 0 = unarmed
	dumpsLeft  atomic.Int32
	dumpsDone  atomic.Int32
	lastDumpMu sync.Mutex
	lastDump   string
}

// ceilPow2 rounds n up to a power of two (min 16).
func ceilPow2(n int) uint64 {
	c := uint64(16)
	for c < uint64(n) {
		c <<= 1
	}
	return c
}

// New builds a recorder keeping the last eventCap events and spanCap
// spans (capacities round up to powers of two; spanCap 0 selects
// 4×events).
func New(eventCap, spanCap int) *Recorder {
	if eventCap <= 0 {
		eventCap = 1024
	}
	if spanCap <= 0 {
		spanCap = 4 * eventCap
	}
	ec, sc := ceilPow2(eventCap), ceilPow2(spanCap)
	return &Recorder{
		eventMask: ec - 1,
		events:    make([]eventSlot, ec),
		spanMask:  sc - 1,
		spans:     make([]spanSlot, sc),
	}
}

// Event records one structured event. Safe for concurrent use;
// allocation-free when kind and msg are pre-existing strings.
func (r *Recorder) Event(sev Severity, kind string, rank int, t float64, msg string, value float64) {
	seq := r.eventSeq.Add(1) - 1
	s := &r.events[seq&r.eventMask]
	s.mu.Lock()
	s.ev = Event{Seq: seq, Time: t, Rank: rank, Sev: sev, Kind: kind, Msg: msg, Value: value}
	s.mu.Unlock()
	if a := r.armed.Load(); a != 0 && uint32(sev)+1 >= a {
		r.fire(kind)
	}
}

// Span records one completed span (the telemetry.SpanLog mirror lands
// here). Allocation-free: the span's strings and args map are stored
// by reference.
func (r *Recorder) Span(sp telemetry.Span) {
	seq := r.spanSeq.Add(1) - 1
	s := &r.spans[seq&r.spanMask]
	s.mu.Lock()
	s.set = true
	s.sp = sp
	s.mu.Unlock()
}

// EventCount returns the total number of events ever recorded (not
// just the retained window).
func (r *Recorder) EventCount() uint64 { return r.eventSeq.Load() }

// Events returns the retained window, oldest first.
func (r *Recorder) Events() []Event {
	hi := r.eventSeq.Load()
	out := make([]Event, 0, len(r.events))
	for i := range r.events {
		s := &r.events[i]
		s.mu.Lock()
		ev := s.ev
		ok := ev.Kind != "" && ev.Seq < hi
		s.mu.Unlock()
		if ok {
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Spans returns the retained span window in the deterministic
// telemetry order (start time, then proc/lane/name). It deliberately
// avoids telemetry.SpanLog here: SpanLog.Add invokes the process-wide
// span mirror, which is this recorder — re-adding would feed the
// window back into its own ring.
func (r *Recorder) Spans() []telemetry.Span {
	out := make([]telemetry.Span, 0, len(r.spans))
	for i := range r.spans {
		s := &r.spans[i]
		s.mu.Lock()
		if s.set {
			out = append(out, s.sp)
		}
		s.mu.Unlock()
	}
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

// SetDump configures triggered dumps, arms the severity trigger and
// allows one triggered dump.
func (r *Recorder) SetDump(cfg DumpConfig) {
	r.dumpMu.Lock()
	r.dump = cfg
	r.dumpMu.Unlock()
	r.dumpsLeft.Store(1)
	if cfg.Path == "" || cfg.MinSeverity == ArmedOff {
		r.armed.Store(0)
	} else {
		r.armed.Store(uint32(cfg.MinSeverity) + 1)
	}
}

// fire consumes one dump budget slot and writes the dump; exhausted
// budgets and write errors are swallowed (the recorder must never
// fail the run it is observing).
func (r *Recorder) fire(reason string) {
	if r.dumpsLeft.Add(-1) < 0 {
		r.dumpsLeft.Add(1) // keep the floor at 0 for later explicit checks
		return
	}
	r.dumpMu.Lock()
	cfg := r.dump
	r.dumpMu.Unlock()
	if cfg.Path == "" {
		return
	}
	path := cfg.Path
	if n := r.dumpsDone.Add(1); n > 1 {
		path = numberedPath(path, int(n))
	}
	if err := r.DumpFile(path, reason); err == nil {
		r.lastDumpMu.Lock()
		r.lastDump = path
		r.lastDumpMu.Unlock()
	}
}

// numberedPath inserts .N before the extension for later dumps.
func numberedPath(path string, n int) string {
	for i := len(path) - 1; i >= 0 && path[i] != '/'; i-- {
		if path[i] == '.' {
			return path[:i] + "." + strconv.Itoa(n) + path[i:]
		}
	}
	return path + "." + strconv.Itoa(n)
}

// LastDump returns the path of the most recent successful dump ("" if
// none fired).
func (r *Recorder) LastDump() string {
	r.lastDumpMu.Lock()
	defer r.lastDumpMu.Unlock()
	return r.lastDump
}

// Trigger explicitly dumps the current window to path (the configured
// dump path when path is empty) and returns the file written. It does
// not consume the automatic-trigger budget.
func (r *Recorder) Trigger(path, reason string) (string, error) {
	if path == "" {
		r.dumpMu.Lock()
		path = r.dump.Path
		r.dumpMu.Unlock()
	}
	if path == "" {
		return "", fmt.Errorf("flight: no dump path configured")
	}
	if err := r.DumpFile(path, reason); err != nil {
		return "", err
	}
	r.lastDumpMu.Lock()
	r.lastDump = path
	r.lastDumpMu.Unlock()
	return path, nil
}

// DumpFile writes the post-incident trace to path.
func (r *Recorder) DumpFile(path, reason string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = r.WriteTrace(f, reason)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// EventLane is the trace lane carrying flight events; events render as
// degenerate (zero-duration) spans there, which the downstream
// consumers (trace viewers, internal/critpath) already clamp-tolerate.
const EventLane = "flight"

// WriteTrace renders the retained window as a Chrome trace readable
// by perfreport -trace-in: all mirrored spans, plus every event as a
// zero-duration span on the EventLane of its rank (rank -1 events
// land on process 0 so the trace stays well-formed).
func (r *Recorder) WriteTrace(w interface{ Write([]byte) (int, error) }, reason string) error {
	spans := r.Spans()
	events := r.Events()
	for _, ev := range events {
		proc := ev.Rank
		if proc < 0 {
			proc = 0
		}
		spans = append(spans, telemetry.Span{
			Proc: proc, Lane: EventLane, Cat: "flight", Name: ev.Kind,
			Start: ev.Time, End: ev.Time,
			Args: map[string]string{
				"sev":   ev.Sev.String(),
				"msg":   ev.Msg,
				"value": strconv.FormatFloat(ev.Value, 'g', -1, 64),
				"seq":   strconv.FormatUint(ev.Seq, 10),
			},
		})
	}
	return telemetry.WriteTrace(w, spans, telemetry.TraceMeta{
		LaneNames: map[string]string{EventLane: "flight recorder events"},
		Other: map[string]any{
			"flight_reason":          reason,
			"flight_events_retained": len(events),
			"flight_events_total":    r.EventCount(),
		},
	})
}

// active is the process-wide recorder consulted by the simulation
// layers; nil means recording is off and every hook is one atomic
// load.
var active atomic.Pointer[Recorder]

// Enable installs a fresh recorder of the given capacity as the
// process-wide one, mirrors every telemetry span into it, and returns
// it. Pass 0 for the default capacity.
func Enable(eventCap, spanCap int) *Recorder {
	r := New(eventCap, spanCap)
	active.Store(r)
	telemetry.SetSpanMirror(r.Span)
	return r
}

// Disable uninstalls the process-wide recorder and the span mirror.
func Disable() {
	active.Store(nil)
	telemetry.SetSpanMirror(nil)
}

// Record is the nil-safe recording hook the simulation layers call;
// it is a no-op (one atomic load) when no recorder is enabled.
func Record(sev Severity, kind string, rank int, t float64, msg string, value float64) {
	if r := active.Load(); r != nil {
		r.Event(sev, kind, rank, t, msg, value)
	}
}

// window is the /spans JSON document.
type window struct {
	EventsTotal    uint64           `json:"events_total"`
	EventsRetained int              `json:"events_retained"`
	SpansRetained  int              `json:"spans_retained"`
	LastDump       string           `json:"last_dump,omitempty"`
	Events         []eventJSON      `json:"events"`
	Spans          []telemetry.Span `json:"spans"`
}

// eventJSON renders the severity as a string for human consumers.
type eventJSON struct {
	Seq   uint64  `json:"seq"`
	Time  float64 `json:"t"`
	Rank  int     `json:"rank"`
	Sev   string  `json:"sev"`
	Kind  string  `json:"kind"`
	Msg   string  `json:"msg"`
	Value float64 `json:"value"`
}

// Handler serves the recent flight-recorder window:
//
//	GET  /spans       JSON: events + spans retained in the rings
//	POST /spans/dump  explicit dump trigger (?path= overrides the
//	                  configured file); responds with the file written
func (r *Recorder) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/spans", func(w http.ResponseWriter, _ *http.Request) {
		events := r.Events()
		spans := r.Spans()
		doc := window{
			EventsTotal:    r.EventCount(),
			EventsRetained: len(events),
			SpansRetained:  len(spans),
			LastDump:       r.LastDump(),
			Events:         make([]eventJSON, 0, len(events)),
			Spans:          spans,
		}
		for _, ev := range events {
			doc.Events = append(doc.Events, eventJSON{
				Seq: ev.Seq, Time: ev.Time, Rank: ev.Rank,
				Sev: ev.Sev.String(), Kind: ev.Kind, Msg: ev.Msg, Value: ev.Value,
			})
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
	mux.HandleFunc("/spans/dump", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		path, err := r.Trigger(req.URL.Query().Get("path"), "http signal")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "dumped %s\n", path)
	})
	return mux
}

// RegisterHTTP attaches the recorder's endpoints to every future
// telemetry.Serve mux.
func (r *Recorder) RegisterHTTP() {
	telemetry.RegisterHandler("/spans", r.Handler())
	telemetry.RegisterHandler("/spans/dump", r.Handler())
}
