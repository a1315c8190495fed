package telemetry_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"pjds/internal/distmv"
	"pjds/internal/matgen"
	"pjds/internal/telemetry"
)

// TestWriteSpansAllModes runs an instrumented distributed spMVM in all
// three communication modes and checks the exported Chrome trace: valid
// JSON, every rank present as a process with comm and gpu events, and
// the mode recorded on each event's args.
func TestWriteSpansAllModes(t *testing.T) {
	m := matgen.Random(4000, 8, 20, 1)
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1
	}
	const p = 3
	for _, mode := range distmv.Modes() {
		spans := telemetry.NewSpanLog()
		if _, err := distmv.RunSpMVM(m, x, p, mode, distmv.Config{
			Iterations: 1, Telemetry: telemetry.NewRegistry(), Spans: spans,
		}); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		var buf bytes.Buffer
		if err := telemetry.WriteTrace(&buf, spans.Spans(), telemetry.TraceMeta{}); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: invalid JSON: %v", mode, err)
		}
		cats := map[int]map[string]bool{}
		lastTS := -1.0
		for _, e := range doc.TraceEvents {
			if e["ph"] != "X" {
				continue
			}
			pid := int(e["pid"].(float64))
			if cats[pid] == nil {
				cats[pid] = map[string]bool{}
			}
			cats[pid][e["cat"].(string)] = true
			ts := e["ts"].(float64)
			if ts < lastTS {
				t.Errorf("%s: events out of timestamp order", mode)
			}
			lastTS = ts
			if e["cat"] == "net" {
				// mpi-lane message records carry peer/bytes args, not
				// the mode.
				continue
			}
			args := e["args"].(map[string]any)
			if args["mode"] != mode.Slug() {
				t.Errorf("%s: event mode arg %v", mode, args["mode"])
			}
		}
		for r := 0; r < p; r++ {
			if !cats[r]["comm"] || !cats[r]["gpu"] {
				t.Errorf("%s: rank %d categories %v", mode, r, cats[r])
			}
		}
	}
}

// TestWriteSpansDeterministic writes the same span set twice and
// expects byte-identical output.
func TestWriteSpansDeterministic(t *testing.T) {
	spans := []telemetry.Span{
		{Proc: 1, Lane: "gpu", Cat: "gpu", Name: "b", Start: 0, End: 2, Args: map[string]string{"k": "v", "a": "z"}},
		{Proc: 0, Lane: "host", Cat: "comm", Name: "a", Start: 0, End: 1},
		{Proc: 0, Lane: "solver", Cat: "solver", Name: "c", Start: 1, End: 3},
	}
	meta := telemetry.TraceMeta{Processes: map[int]string{0: "rank 0", 1: "rank 1"}, Other: map[string]any{"n": 2}}
	var b1, b2 bytes.Buffer
	if err := telemetry.WriteTrace(&b1, spans, meta); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteTrace(&b2, spans, meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("trace output not deterministic")
	}
}

// TestReadSpansRoundTrip writes spans with WriteTrace — including an mpi lane carrying
// message args — and reads them back: lanes, categories, names, args
// and (to trace precision) times must survive.
func TestReadSpansRoundTrip(t *testing.T) {
	in := []telemetry.Span{
		{Proc: 0, Lane: "host", Cat: "comm", Name: "MPI_Waitall", Start: 0, End: 1e-3},
		{Proc: 0, Lane: "gpu", Cat: "gpu", Name: "spMVM", Start: 1e-3, End: 2e-3},
		{Proc: 1, Lane: "mpi", Cat: "net", Name: "send", Start: 0, End: 0.5e-3,
			Args: map[string]string{"peer": "0", "bytes": "4096", "arrives": "0.00125"}},
		{Proc: 1, Lane: "solver", Cat: "solver", Name: "CG iteration", Start: 0, End: 3e-3},
	}
	var buf bytes.Buffer
	if err := telemetry.WriteTrace(&buf, in, telemetry.TraceMeta{LaneNames: map[string]string{
		"host": "host thread 0 (MPI)", "gpu": "GPU stream", "solver": "solver",
	}}); err != nil {
		t.Fatal(err)
	}
	got, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("read %d spans, want %d", len(got), len(in))
	}
	bySig := map[string]telemetry.Span{}
	for _, s := range got {
		bySig[s.Lane+"/"+s.Name] = s
	}
	for _, want := range in {
		s, ok := bySig[want.Lane+"/"+want.Name]
		if !ok {
			t.Fatalf("lane %q name %q missing after round trip: %+v", want.Lane, want.Name, got)
		}
		if s.Proc != want.Proc || s.Cat != want.Cat {
			t.Errorf("%s/%s: proc/cat %d/%q, want %d/%q", want.Lane, want.Name, s.Proc, s.Cat, want.Proc, want.Cat)
		}
		if math.Abs(s.Start-want.Start) > 1e-12 || math.Abs(s.End-want.End) > 1e-12 {
			t.Errorf("%s/%s: times %g..%g, want %g..%g", want.Lane, want.Name, s.Start, s.End, want.Start, want.End)
		}
		for k, v := range want.Args {
			if s.Args[k] != v {
				t.Errorf("%s/%s: arg %s = %q, want %q", want.Lane, want.Name, k, s.Args[k], v)
			}
		}
	}
}
