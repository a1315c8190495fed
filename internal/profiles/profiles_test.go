package profiles

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

// --- minimal protobuf writer for fixtures ---

type enc struct{ b []byte }

func (e *enc) varint(v uint64) {
	for v >= 0x80 {
		e.b = append(e.b, byte(v)|0x80)
		v >>= 7
	}
	e.b = append(e.b, byte(v))
}

func (e *enc) tag(num, wt int) { e.varint(uint64(num)<<3 | uint64(wt)) }

func (e *enc) uintField(num int, v uint64) {
	e.tag(num, 0)
	e.varint(v)
}

func (e *enc) bytesField(num int, b []byte) {
	e.tag(num, 2)
	e.varint(uint64(len(b)))
	e.b = append(e.b, b...)
}

func (e *enc) msgField(num int, fill func(*enc)) {
	var sub enc
	fill(&sub)
	e.bytesField(num, sub.b)
}

// fixtureProfile builds a two-sample CPU profile by hand:
//
//	strtab:   0:"" 1:"samples" 2:"count" 3:"cpu" 4:"nanoseconds"
//	          5:"phase" 6:"host" 7:"main.hot" 8:"kernel" 9:"blocked"
//	sample A: 30ns, labels phase=host kernel=blocked, loc 1 (main.hot)
//	sample B: 10ns, no labels, loc 1
func fixtureProfile(t *testing.T, packed bool) []byte {
	t.Helper()
	var e enc
	e.msgField(1, func(s *enc) { // sample_type samples/count
		s.uintField(1, 1)
		s.uintField(2, 2)
	})
	e.msgField(1, func(s *enc) { // sample_type cpu/nanoseconds
		s.uintField(1, 3)
		s.uintField(2, 4)
	})
	e.msgField(2, func(s *enc) { // sample A
		if packed {
			s.bytesField(1, []byte{1})     // location_id [1]
			s.bytesField(2, []byte{3, 30}) // value [3, 30]
		} else {
			s.uintField(1, 1)
			s.uintField(2, 3)
			s.uintField(2, 30)
		}
		s.msgField(3, func(l *enc) { // phase=host
			l.uintField(1, 5)
			l.uintField(2, 6)
		})
		s.msgField(3, func(l *enc) { // kernel=blocked
			l.uintField(1, 8)
			l.uintField(2, 9)
		})
	})
	e.msgField(2, func(s *enc) { // sample B, unlabeled
		s.uintField(1, 1)
		s.uintField(2, 1)
		s.uintField(2, 10)
	})
	e.msgField(4, func(l *enc) { // location 1 -> function 1
		l.uintField(1, 1)
		l.msgField(4, func(ln *enc) { ln.uintField(1, 1) })
	})
	e.msgField(5, func(f *enc) { // function 1 = main.hot
		f.uintField(1, 1)
		f.uintField(2, 7)
	})
	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds", "phase", "host", "main.hot", "kernel", "blocked"} {
		e.bytesField(6, []byte(s))
	}
	e.uintField(10, 40) // duration_nanos
	e.msgField(11, func(s *enc) {
		s.uintField(1, 3)
		s.uintField(2, 4)
	})
	e.uintField(12, 10) // period
	return e.b
}

func TestParseFixture(t *testing.T) {
	for _, packed := range []bool{false, true} {
		raw := fixtureProfile(t, packed)
		// Exercise the gzip path for the packed variant.
		data := raw
		if packed {
			var zbuf bytes.Buffer
			zw := gzip.NewWriter(&zbuf)
			zw.Write(raw)
			zw.Close()
			data = zbuf.Bytes()
		}
		p, err := Parse(data)
		if err != nil {
			t.Fatalf("packed=%v: Parse: %v", packed, err)
		}
		if len(p.SampleTypes) != 2 || p.SampleTypes[1].Type != "cpu" || p.SampleTypes[1].Unit != "nanoseconds" {
			t.Fatalf("packed=%v: sample types = %+v", packed, p.SampleTypes)
		}
		if p.DefaultValueIndex() != 1 {
			t.Fatalf("default value index = %d, want 1", p.DefaultValueIndex())
		}
		if len(p.Samples) != 2 {
			t.Fatalf("packed=%v: %d samples, want 2", packed, len(p.Samples))
		}
		a := p.Samples[0]
		if a.Labels["phase"] != "host" || a.Labels["kernel"] != "blocked" {
			t.Fatalf("sample A labels = %v", a.Labels)
		}
		if a.Values[1] != 30 {
			t.Fatalf("sample A value = %v", a.Values)
		}
		if got := p.FuncName(1); got != "main.hot" {
			t.Fatalf("FuncName(1) = %q", got)
		}
		if p.Period != 10 || p.DurationNanos != 40 {
			t.Fatalf("period=%d duration=%d", p.Period, p.DurationNanos)
		}
	}
}

func TestAttributeFixture(t *testing.T) {
	p, err := Parse(fixtureProfile(t, false))
	if err != nil {
		t.Fatal(err)
	}
	a := Attribute(p)
	if a.Total != 40 || a.Attributed != 30 || a.Unattributed != 10 {
		t.Fatalf("total=%d attributed=%d unattributed=%d", a.Total, a.Attributed, a.Unattributed)
	}
	if got := a.AttributedFrac(); got != 0.75 {
		t.Fatalf("AttributedFrac = %v, want 0.75", got)
	}
	if len(a.Phases) != 1 || a.Phases[0].Phase != "host" || a.Phases[0].Value != 30 {
		t.Fatalf("phases = %+v", a.Phases)
	}
	if rows := a.ByLabel["kernel"]; len(rows) != 1 || rows[0].Phase != "blocked" {
		t.Fatalf("by kernel = %+v", a.ByLabel["kernel"])
	}
	if len(a.TopUnlabeled) != 1 || a.TopUnlabeled[0].Func != "main.hot" {
		t.Fatalf("top unlabeled = %+v", a.TopUnlabeled)
	}
	if unk := a.UnknownPhases(); len(unk) != 0 {
		t.Fatalf("unknown phases = %v", unk)
	}
	var buf bytes.Buffer
	a.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"host", "attributed to known phases: 75.0%", "main.hot"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestAttributeFallsBackPastEmptyColumn(t *testing.T) {
	// Heap profile shape after a final GC: the default inuse_space
	// column is all zeros, alloc_space still carries weight.
	// strtab: 0:"" 1:"alloc_space" 2:"bytes" 3:"inuse_space"
	//         4:"phase" 5:"host"
	var e enc
	e.msgField(1, func(s *enc) { // sample_type alloc_space/bytes
		s.uintField(1, 1)
		s.uintField(2, 2)
	})
	e.msgField(1, func(s *enc) { // sample_type inuse_space/bytes
		s.uintField(1, 3)
		s.uintField(2, 2)
	})
	e.msgField(2, func(s *enc) { // one sample: 4KiB allocated, 0 live
		s.uintField(2, 4096)
		s.uintField(2, 0)
		s.msgField(3, func(l *enc) { // phase=host
			l.uintField(1, 4)
			l.uintField(2, 5)
		})
	})
	for _, s := range []string{"", "alloc_space", "bytes", "inuse_space", "phase", "host"} {
		e.bytesField(6, []byte(s))
	}
	p, err := Parse(e.b)
	if err != nil {
		t.Fatal(err)
	}
	a := Attribute(p)
	if a.SampleType.Type != "alloc_space" {
		t.Fatalf("sample type = %+v, want alloc_space fallback", a.SampleType)
	}
	if a.Total != 4096 || a.Attributed != 4096 {
		t.Fatalf("total=%d attributed=%d, want 4096/4096", a.Total, a.Attributed)
	}
}

// spin burns CPU so the profiler has something to sample.
func spin(d time.Duration) float64 {
	deadline := time.Now().Add(d)
	x := 1.0001
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	return x
}

func TestLabelRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("needs CPU profiling time")
	}
	// CPU sampling is statistical: retry a few times before deciding
	// the labels really are missing.
	for attempt := 0; attempt < 4; attempt++ {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Skipf("cannot start CPU profile: %v", err)
		}
		SetPhase(PhaseHost, "kernel", "spin")
		spin(250 * time.Millisecond)
		Clear()
		pprof.StopCPUProfile()

		p, err := Parse(buf.Bytes())
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		a := Attribute(p)
		if a.Total == 0 {
			continue // no samples landed; retry
		}
		if len(a.Phases) > 0 && a.Phases[0].Phase == PhaseHost {
			if rows := a.ByLabel["kernel"]; len(rows) == 0 || rows[0].Phase != "spin" {
				t.Fatalf("kernel sub-label missing: %+v", a.ByLabel)
			}
			return // success
		}
	}
	t.Skip("profiler produced no labeled samples after retries (constrained environment)")
}

func TestCaptureWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	c, err := StartCapture(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	SetPhase(PhaseConvert)
	spin(50 * time.Millisecond)
	Clear()
	if err := c.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if err := c.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil || fi.Size() == 0 {
			t.Fatalf("%s: missing or empty (err=%v)", path, err)
		}
		if _, err := ParseFile(path); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
}

func TestCaptureInert(t *testing.T) {
	c, err := StartCapture("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
}
