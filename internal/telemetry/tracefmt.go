package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// This file is the Chrome trace-event codec for spans: the JSON
// consumed by chrome://tracing and Perfetto. It lives in telemetry so
// that low-level recorders (internal/flight) and the CLIs (scaling
// -trace-out, perfreport -trace-in) share one codec without importing
// the higher simulation layers.

// traceEvent is one Chrome trace "complete" event (ph = "X");
// timestamps and durations are in microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceMetadata names processes and threads in the viewer.
type traceMetadata struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// TraceMeta parameterizes a trace header: display names for processes
// (ranks) and lanes, and run-level values for the viewer's otherData.
type TraceMeta struct {
	// Processes maps pid (rank) to a display name; pids present in the
	// spans but absent here keep a generic "rank N" name.
	Processes map[int]string
	// LaneNames maps a lane to its thread display name; unnamed lanes
	// display as the lane string itself.
	LaneNames map[string]string
	// Other is attached verbatim as the trace's otherData.
	Other map[string]any
}

// canonicalLaneTID maps the timeline lanes onto stable thread ids: the
// communication (host) thread is thread 0 (as in Fig. 4), the GPU
// stream is thread 1, and the solver lane is thread 2.
func canonicalLaneTID(lane string) int {
	switch lane {
	case "gpu":
		return 1
	case "solver":
		return 2
	default:
		return 0
	}
}

// traceTID extends canonicalLaneTID to arbitrary lanes: unknown lanes
// get ids from 3 upward in sorted lane order, so output stays
// deterministic.
func traceTID(lane string, extra map[string]int) int {
	switch lane {
	case "host", "gpu", "solver":
		return canonicalLaneTID(lane)
	}
	return extra[lane]
}

// WriteTrace renders spans as one Chrome trace: each span's Proc
// becomes a trace process (one per rank), each lane a named thread
// within it. Output is deterministic: metadata sorted by (pid, tid),
// events by (Start, Proc, Lane, Name, End).
func WriteTrace(w io.Writer, spans []Span, meta TraceMeta) error {
	sorted := append([]Span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Lane != b.Lane {
			return a.Lane < b.Lane
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.End < b.End
	})

	// Discover processes and lanes; assign ids to non-standard lanes.
	procLanes := map[int]map[string]bool{}
	unknown := map[string]bool{}
	for _, s := range sorted {
		if procLanes[s.Proc] == nil {
			procLanes[s.Proc] = map[string]bool{}
		}
		procLanes[s.Proc][s.Lane] = true
		switch s.Lane {
		case "host", "gpu", "solver":
		default:
			unknown[s.Lane] = true
		}
	}
	extraTID := map[string]int{}
	{
		lanes := make([]string, 0, len(unknown))
		for l := range unknown {
			lanes = append(lanes, l)
		}
		sort.Strings(lanes)
		for i, l := range lanes {
			extraTID[l] = 3 + i
		}
	}

	var out []any
	pids := make([]int, 0, len(procLanes))
	for pid := range procLanes {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		name, ok := meta.Processes[pid]
		if !ok {
			name = fmt.Sprintf("rank %d", pid)
		}
		out = append(out, traceMetadata{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}})
		lanes := make([]string, 0, len(procLanes[pid]))
		for l := range procLanes[pid] {
			lanes = append(lanes, l)
		}
		sort.Slice(lanes, func(i, j int) bool { return traceTID(lanes[i], extraTID) < traceTID(lanes[j], extraTID) })
		for _, l := range lanes {
			ln, ok := meta.LaneNames[l]
			if !ok {
				ln = l
			}
			out = append(out, traceMetadata{Name: "thread_name", Ph: "M", PID: pid, TID: traceTID(l, extraTID), Args: map[string]any{"name": ln}})
		}
	}

	for _, s := range sorted {
		var args map[string]any
		if len(s.Args) > 0 {
			args = make(map[string]any, len(s.Args))
			for k, v := range s.Args {
				args[k] = v
			}
		}
		out = append(out, traceEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			Ts:   1e6 * s.Start,
			Dur:  1e6 * (s.End - s.Start),
			PID:  s.Proc,
			TID:  traceTID(s.Lane, extraTID),
			Args: args,
		})
	}

	other := meta.Other
	if other == nil {
		other = map[string]any{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     out,
		"displayTimeUnit": "ns",
		"otherData":       other,
	})
}

// ReadTrace parses a Chrome trace-event document produced by
// WriteTrace back into spans, so saved -trace-out artifacts can be
// re-analyzed offline (cmd/perfreport). Lanes are recovered from the
// thread ids — 0/1/2 are the canonical host/gpu/solver lanes — falling
// back to the thread_name metadata for the extra lanes (which
// WriteTrace names by their raw lane token, e.g. "mpi"). Timestamps
// round-trip through microseconds, so positions are exact to ~1 ulp;
// span args survive verbatim.
func ReadTrace(r io.Reader) ([]Span, error) {
	type raw struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var doc struct {
		TraceEvents []raw `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("telemetry: reading trace events: %w", err)
	}
	laneName := map[[2]int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			if n, ok := e.Args["name"].(string); ok {
				laneName[[2]int{e.PID, e.TID}] = n
			}
		}
	}
	laneOf := func(pid, tid int) string {
		switch tid {
		case 0:
			return "host"
		case 1:
			return "gpu"
		case 2:
			return "solver"
		}
		if n, ok := laneName[[2]int{pid, tid}]; ok {
			return n
		}
		return fmt.Sprintf("lane%d", tid)
	}
	log := NewSpanLog()
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		var args map[string]string
		if len(e.Args) > 0 {
			args = make(map[string]string, len(e.Args))
			for k, v := range e.Args {
				args[k] = fmt.Sprint(v)
			}
		}
		log.Add(Span{
			Proc: e.PID, Lane: laneOf(e.PID, e.TID), Cat: e.Cat, Name: e.Name,
			Start: e.Ts / 1e6, End: (e.Ts + e.Dur) / 1e6,
			Args: args,
		})
	}
	return log.Spans(), nil
}
