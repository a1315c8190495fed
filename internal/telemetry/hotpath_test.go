package telemetry

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
)

// TestHelpEscaping covers the Prometheus text-format escaping rule
// for HELP docstrings: a raw backslash or newline would corrupt the
// line-oriented exposition.
func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird_total").Inc()
	r.Help("weird_total", "first line\nsecond \\ line")
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `# HELP weird_total first line\nsecond \\ line`
	if !strings.Contains(out, want) {
		t.Fatalf("HELP line not escaped:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "second") {
			t.Fatalf("raw newline leaked into exposition:\n%s", out)
		}
	}
}

func TestEscapeHelpNoop(t *testing.T) {
	const plain = "a perfectly ordinary help string"
	if got := escapeHelp(plain); got != plain {
		t.Fatalf("escapeHelp(%q) = %q", plain, got)
	}
}

// TestConcurrentScrapeWhileWrite hammers the registry and span log
// from writer goroutines while scrapers run WritePrometheus/WriteJSON
// in a loop. It exists to fail under -race if any exposition path
// reads unsynchronized state (scripts/check.sh runs this package with
// -race).
func TestConcurrentScrapeWhileWrite(t *testing.T) {
	r := NewRegistry()
	log := NewSpanLog()
	const writers = 4
	const perWriter = 400

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("hammer_total", Li("rank", g))
			h := r.Histogram("hammer_seconds", []float64{0.001, 0.01, 0.1}, Li("rank", g))
			for i := 0; i < perWriter; i++ {
				c.Add(1)
				r.Gauge("hammer_gauge", Li("rank", g)).Set(float64(i))
				h.Observe(float64(i) * 1e-4)
				log.Add(Span{Proc: g, Lane: "host", Name: "hammer", Start: float64(i), End: float64(i) + 1})
			}
		}(g)
	}

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = r.WritePrometheus(io.Discard)
					_ = r.WriteJSON(io.Discard)
					_ = log.Spans()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	series, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range series {
		if s.Name == "hammer_total" {
			total += s.Value
		}
	}
	if want := float64(writers * perWriter); total != want {
		t.Fatalf("hammer_total sums to %g, want %g", total, want)
	}
	if got := log.Len(); got != writers*perWriter {
		t.Fatalf("span log has %d spans, want %d", got, writers*perWriter)
	}
}

// TestHotPathZeroAllocs: counters and histograms sit on every kernel
// launch and message, so their steady-state updates allocate nothing.
func TestHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", L("rank", "0"))
	h := r.Histogram("hot_seconds", []float64{1e-4, 1e-3, 1e-2, 1e-1})
	if a := testing.AllocsPerRun(100, c.Inc); a != 0 {
		t.Errorf("Counter.Inc: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { h.Observe(2e-3) }); a != 0 {
		t.Errorf("Histogram.Observe: %v allocs, want 0", a)
	}
}

// The benchmarks time the same hot path; TestHotPathZeroAllocs gates
// its allocations.

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", L("rank", "0"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", []float64{1e-4, 1e-3, 1e-2, 1e-1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(2e-3)
	}
}
