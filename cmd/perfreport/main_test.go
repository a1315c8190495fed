package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pjds/internal/tuner"
)

// TestScenarioText runs the smallest scenario and checks the report
// shape: a verdict line, a category table, and overlap per mode.
func TestScenarioText(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-ranks", "3", "-scale", "0.02", "-iters", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"critical path:", "-bound", "kernel", "top contributors", "overlap:", "Eq. 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, mode := range []string{"vector", "naive-overlap", "task"} {
		if !strings.Contains(out, "DLR1 "+mode+" P=3") {
			t.Errorf("missing %s report", mode)
		}
	}
}

// TestJSONAndSelfDiff writes a JSON artifact, self-diffs it (zero
// regressions, exit nil), then perturbs a metric and expects the gate
// to fail.
func TestJSONAndSelfDiff(t *testing.T) {
	dir := t.TempDir()
	art := filepath.Join(dir, "a.json")
	var buf bytes.Buffer
	if err := run([]string{"-ranks", "3", "-scale", "0.02", "-iters", "1",
		"-modes", "task", "-json", "-o", art}, &buf); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(art)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Reports []struct {
			Mode   string  `json:"mode"`
			GFlops float64 `json:"gflops"`
		} `json:"reports"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("artifact not JSON: %v", err)
	}
	if len(doc.Reports) != 1 || doc.Reports[0].Mode != "task" || doc.Reports[0].GFlops <= 0 {
		t.Fatalf("artifact reports: %+v", doc.Reports)
	}

	buf.Reset()
	if err := run([]string{"diff", art, art}, &buf); err != nil {
		t.Fatalf("self-diff regressed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "no regressions") {
		t.Errorf("self-diff output: %s", buf.String())
	}

	bad := filepath.Join(dir, "b.json")
	perturbed := strings.Replace(string(raw), `"gflops"`, `"gflops_was"`, 1)
	if perturbed == string(raw) {
		t.Fatal("perturbation did not apply")
	}
	if err := os.WriteFile(bad, []byte(perturbed), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run([]string{"diff", art, bad}, &buf); err == nil {
		t.Fatalf("gate passed a missing metric:\n%s", buf.String())
	}
}

// TestBadFlags covers the error paths users actually hit.
func TestBadFlags(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-format", "coo"},
		{"-modes", "warp"},
		{"stray"},
		{"diff", "only-one.json"},
		{"diff", "-tol-metric", "nonsense", "a.json", "b.json"},
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// --- fixtures for the -profile mode: a hand-encoded pprof profile ---

type penc struct{ b []byte }

func (e *penc) varint(v uint64) {
	for v >= 0x80 {
		e.b = append(e.b, byte(v)|0x80)
		v >>= 7
	}
	e.b = append(e.b, byte(v))
}

func (e *penc) uintField(num int, v uint64) {
	e.varint(uint64(num)<<3 | 0)
	e.varint(v)
}

func (e *penc) bytesField(num int, b []byte) {
	e.varint(uint64(num)<<3 | 2)
	e.varint(uint64(len(b)))
	e.b = append(e.b, b...)
}

func (e *penc) msgField(num int, fill func(*penc)) {
	var sub penc
	fill(&sub)
	e.bytesField(num, sub.b)
}

// profileFixture encodes a two-sample cpu/nanoseconds profile: 30ns
// labeled phase=<phase>, 10ns unlabeled in main.cold.
func profileFixture(t *testing.T, dir, phase string) string {
	t.Helper()
	var e penc
	e.msgField(1, func(s *penc) { // sample_type cpu/nanoseconds
		s.uintField(1, 1)
		s.uintField(2, 2)
	})
	e.msgField(2, func(s *penc) { // labeled sample, 30ns
		s.uintField(1, 1)
		s.uintField(2, 30)
		s.msgField(3, func(l *penc) {
			l.uintField(1, 3) // "phase"
			l.uintField(2, 4) // phase value
		})
	})
	e.msgField(2, func(s *penc) { // unlabeled sample, 10ns
		s.uintField(1, 1)
		s.uintField(2, 10)
	})
	e.msgField(4, func(l *penc) { // location 1 -> function 1
		l.uintField(1, 1)
		l.msgField(4, func(ln *penc) { ln.uintField(1, 1) })
	})
	e.msgField(5, func(f *penc) { // function 1 = main.cold
		f.uintField(1, 1)
		f.uintField(2, 5)
	})
	for _, s := range []string{"", "cpu", "nanoseconds", "phase", phase, "main.cold"} {
		e.bytesField(6, []byte(s))
	}
	path := filepath.Join(dir, "cpu.pprof")
	if err := os.WriteFile(path, e.b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestProfileReport checks the attribution table, the JSON shape, and
// the -check-attributed gate in both directions.
func TestProfileReport(t *testing.T) {
	path := profileFixture(t, t.TempDir(), "host")

	var buf bytes.Buffer
	if err := run([]string{"-profile", path}, &buf); err != nil {
		t.Fatalf("-profile: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"host", "attributed to known phases: 75.0%", "main.cold"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := run([]string{"-profile", path, "-check-attributed", "0.7"}, &buf); err != nil {
		t.Fatalf("gate at 0.7 rejected a 75%%-attributed profile: %v", err)
	}
	buf.Reset()
	err := run([]string{"-profile", path, "-check-attributed", "0.9"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "75.0%") {
		t.Fatalf("gate at 0.9 = %v, want failure citing 75.0%%", err)
	}

	buf.Reset()
	if err := run([]string{"-profile", path, "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema      string   `json:"schema"`
		Phases      []string `json:"phases"`
		Attribution struct {
			Total      int64 `json:"total"`
			Attributed int64 `json:"attributed"`
		} `json:"attribution"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("-json output: %v\n%s", err, buf.String())
	}
	if doc.Schema != "pjds-profile/v1" || doc.Attribution.Total != 40 || doc.Attribution.Attributed != 30 {
		t.Fatalf("profile doc = %+v", doc)
	}
	if len(doc.Phases) != 1 || doc.Phases[0] != "host" {
		t.Fatalf("phases = %v", doc.Phases)
	}
}

// TestProfileUnknownPhase: a phase label outside the span-lane
// vocabulary must fail the cross-check.
func TestProfileUnknownPhase(t *testing.T) {
	path := profileFixture(t, t.TempDir(), "warmup")
	var buf bytes.Buffer
	err := run([]string{"-profile", path}, &buf)
	if err == nil || !strings.Contains(err.Error(), "warmup") {
		t.Fatalf("unknown phase accepted: %v", err)
	}
}

// TestTuneReport: -tune renders every persisted sweep as a
// measured-vs-model grid with rank columns and the winner marked;
// -matrix filters by name; an empty DB is an explicit error.
func TestTuneReport(t *testing.T) {
	db := filepath.Join(t.TempDir(), "tuning.jsonl")
	if err := run([]string{"-tune", "-tuning-db", db}, &bytes.Buffer{}); err == nil {
		t.Fatal("empty tuning DB accepted")
	}
	entry := tuner.Entry{
		Matrix: "sAMG", Fingerprint: "f1", Device: "Tesla C2070",
		Rows: 100, Cols: 100, Nnz: 700, Workers: 1,
		Winner: tuner.Cell{Format: "sell", C: 8, Sigma: 256, ModelBytesPerNnz: 16.4, MeasuredNsPerNnz: 1.1},
		Cells: []tuner.Cell{
			{Format: "crs", ModelBytesPerNnz: 100.3, Pruned: true},
			{Format: "pjds", C: 32, Sigma: 100, ModelBytesPerNnz: 16.5, MeasuredNsPerNnz: 1.3},
			{Format: "sell", C: 8, Sigma: 256, ModelBytesPerNnz: 16.4, MeasuredNsPerNnz: 1.1},
			{Format: "cmrs", Height: 16, ModelBytesPerNnz: 17.3, MeasuredNsPerNnz: 1.6},
		},
	}
	if err := tuner.Append(db, entry); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-tune", "-tuning-db", db}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"sweep sAMG", "SELL-8-256", "winner", "pruned", "model rank", "CMRS-h16"} {
		if !strings.Contains(out, want) {
			t.Errorf("tune report missing %q:\n%s", want, out)
		}
	}

	// The winner (lowest measured) must carry measured rank 1, and the
	// pruned CRS cell must show no measurement.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "SELL-8-256") && !strings.Contains(line, " 1 ") {
			t.Errorf("winner line lost measured rank 1: %q", line)
		}
		if strings.HasPrefix(line, "CRS") && !strings.Contains(line, "-") {
			t.Errorf("pruned line carries a measurement: %q", line)
		}
	}

	// -matrix filters: a name with no sweeps errors.
	if err := run([]string{"-tune", "-tuning-db", db, "-matrix", "UHBR"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-matrix filter matched a missing sweep")
	}
	if err := run([]string{"-tune", "-tuning-db", db, "-matrix", "sAMG", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
}
