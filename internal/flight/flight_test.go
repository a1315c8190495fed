package flight

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pjds/internal/telemetry"
)

func TestRingKeepsMostRecent(t *testing.T) {
	r := New(16, 16)
	for i := 0; i < 40; i++ {
		r.Event(Info, "test.kind", i, float64(i), "msg", float64(i))
	}
	evs := r.Events()
	if len(evs) != 16 {
		t.Fatalf("retained %d events, want ring capacity 16", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(40 - 16 + i)
		if ev.Seq != wantSeq {
			t.Fatalf("event %d has seq %d, want %d (oldest-first window)", i, ev.Seq, wantSeq)
		}
	}
	if got := r.EventCount(); got != 40 {
		t.Fatalf("EventCount = %d, want 40", got)
	}
}

func TestSpanRingAndMirror(t *testing.T) {
	r := Enable(16, 16)
	defer Disable()
	log := telemetry.NewSpanLog()
	log.Add(telemetry.Span{Proc: 1, Lane: "gpu", Name: "spmvm", Start: 0.5, End: 1.0})
	log.Add(telemetry.Span{Proc: 0, Lane: "host", Name: "exchange", Start: 0.1, End: 0.4})
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("mirror captured %d spans, want 2", len(spans))
	}
	if spans[0].Name != "exchange" || spans[1].Name != "spmvm" {
		t.Fatalf("spans not in deterministic order: %q, %q", spans[0].Name, spans[1].Name)
	}
}

func TestRecordNilSafe(t *testing.T) {
	Disable()
	// Must be a no-op, not a panic, with no recorder installed.
	Record(Error, "test.kind", 0, 0, "msg", 0)
	if active.Load() != nil {
		t.Fatal("recorder still installed after Disable")
	}
}

func TestConcurrentRecordAndSnapshot(t *testing.T) {
	r := New(64, 64)
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				r.Event(Severity(i%4), "test.kind", g, float64(i), "msg", float64(i))
				r.Span(telemetry.Span{Proc: g, Lane: "host", Name: "s", Start: float64(i), End: float64(i) + 1})
			}
		}(g)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Events()
				r.Spans()
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	if got := r.EventCount(); got != 2000 {
		t.Fatalf("EventCount = %d, want 2000", got)
	}
	if len(r.Events()) != 64 {
		t.Fatalf("retained %d events, want 64", len(r.Events()))
	}
}

func TestSeverityTriggeredDumpIsOneShot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "incident.trace.json")
	r := New(32, 32)
	r.SetDump(DumpConfig{Path: path, MinSeverity: Error})
	r.Event(Info, "test.checkpoint", 0, 1.0, "checkpoint", 1)
	if _, err := os.Stat(path); err == nil {
		t.Fatal("Info event fired an Error-armed dump")
	}
	r.Event(Error, "test.rank_failed", 2, 2.5, "rank died", 0)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Error event did not fire dump: %v", err)
	}
	if got := r.LastDump(); got != path {
		t.Fatalf("LastDump = %q, want %q", got, path)
	}
	// One-shot: a second severe event must not rewrite the file.
	fi1, _ := os.Stat(path)
	r.Event(Error, "test.rank_failed", 3, 3.0, "rank died", 0)
	fi2, _ := os.Stat(path)
	if fi1.ModTime() != fi2.ModTime() || fi1.Size() != fi2.Size() {
		t.Fatal("second severe event rewrote a one-shot dump")
	}
}

func TestDumpReadableAsTrace(t *testing.T) {
	r := New(32, 32)
	r.Span(telemetry.Span{Proc: 0, Lane: "gpu", Cat: "gpu", Name: "spmvm", Start: 1.0, End: 2.0})
	r.Event(Error, "mpi.rank_failed", 2, 1.5, "heartbeat silence", 3)
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf, "unit test"); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	spans, err := telemetry.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("dump not readable by telemetry.ReadTrace: %v", err)
	}
	var gotSpan, gotEvent bool
	for _, s := range spans {
		if s.Name == "spmvm" && s.Lane == "gpu" {
			gotSpan = true
		}
		if s.Name == "mpi.rank_failed" && s.Proc == 2 {
			gotEvent = true
			if s.Start != s.End {
				t.Fatalf("event span not degenerate: [%g, %g]", s.Start, s.End)
			}
			if s.Args["sev"] != "error" {
				t.Fatalf("event severity arg = %q, want error", s.Args["sev"])
			}
		}
	}
	if !gotSpan || !gotEvent {
		t.Fatalf("dump missing span (%v) or event (%v)", gotSpan, gotEvent)
	}
}

func TestExplicitTrigger(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "explicit.json")
	r := New(16, 16)
	r.Event(Warn, "test.fault", 1, 0.5, "injected", 1)
	got, err := r.Trigger(path, "unit test")
	if err != nil {
		t.Fatalf("Trigger: %v", err)
	}
	if got != path {
		t.Fatalf("Trigger wrote %q, want %q", got, path)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := telemetry.ReadTrace(f); err != nil {
		t.Fatalf("explicit dump unreadable: %v", err)
	}
}

func TestHandlerServesWindow(t *testing.T) {
	r := New(16, 16)
	r.Event(Warn, "simnet.fault", 0, 0.25, "packet dropped", 1)
	r.Span(telemetry.Span{Proc: 0, Lane: "host", Name: "exchange", Start: 0, End: 0.1})
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /spans = %d", resp.StatusCode)
	}
	var doc struct {
		EventsTotal    uint64 `json:"events_total"`
		EventsRetained int    `json:"events_retained"`
		SpansRetained  int    `json:"spans_retained"`
		Events         []struct {
			Sev  string `json:"sev"`
			Kind string `json:"kind"`
		} `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding /spans: %v", err)
	}
	if doc.EventsTotal != 1 || doc.EventsRetained != 1 || doc.SpansRetained != 1 {
		t.Fatalf("window counts = %d/%d/%d, want 1/1/1", doc.EventsTotal, doc.EventsRetained, doc.SpansRetained)
	}
	if doc.Events[0].Sev != "warn" || doc.Events[0].Kind != "simnet.fault" {
		t.Fatalf("event = %+v", doc.Events[0])
	}
}

func TestNumberedPath(t *testing.T) {
	cases := map[string]string{
		"a/b.trace.json": "a/b.trace.2.json",
		"dump":           "dump.2",
		"a.b/dump":       "a.b/dump.2",
	}
	for in, want := range cases {
		if got := numberedPath(in, 2); got != want {
			t.Errorf("numberedPath(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestHotPathZeroAllocs: recording an event, mirroring a span and the
// disabled hook allocate nothing, so the recorder can stay always-on.
func TestHotPathZeroAllocs(t *testing.T) {
	r := New(1024, 1024)
	sp := telemetry.Span{Proc: 1, Lane: "gpu", Cat: "gpu", Name: "spmvm", Start: 1, End: 2}
	Disable()
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Recorder.Event", func() { r.Event(Info, "bench.kind", 3, 1.5, "steady state", 42) }},
		{"Recorder.Span", func() { r.Span(sp) }},
		{"disabled Record", func() { Record(Info, "bench.kind", 0, 0, "off", 0) }},
	} {
		if a := testing.AllocsPerRun(100, c.f); a != 0 {
			t.Errorf("%s: %v allocs, want 0", c.name, a)
		}
	}
}

// The benchmarks below time the paths TestHotPathZeroAllocs gates.

// BenchmarkFlightEvent times the hot recording path.
func BenchmarkFlightEvent(b *testing.B) {
	r := New(1024, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Event(Info, "bench.kind", 3, 1.5, "steady state", 42)
	}
}

// BenchmarkFlightSpan times the span-mirror path.
func BenchmarkFlightSpan(b *testing.B) {
	r := New(1024, 1024)
	sp := telemetry.Span{Proc: 1, Lane: "gpu", Cat: "gpu", Name: "spmvm", Start: 1, End: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Span(sp)
	}
}

// BenchmarkRecordDisabled times the disabled hook (one atomic load).
func BenchmarkRecordDisabled(b *testing.B) {
	Disable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Record(Info, "bench.kind", 0, 0, "off", 0)
	}
}
