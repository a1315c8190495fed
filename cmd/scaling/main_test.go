package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunStrongScaling(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-matrix", "dlr1", "-scale", "0.01", "-nodes", "1,2", "-iters", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Task mode", "Vector mode", "Fig. 5", "GF/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunTimelineAndBreakdown(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-timeline", "-matrix", "dlr1", "-scale", "0.01", "-timelinenodes", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 4") {
		t.Error("timeline output missing")
	}
	// The breakdown lists each mode's phases in Fig. 4 order, so two
	// runs print the same bytes.
	var bd [2]bytes.Buffer
	for i := range bd {
		if err := run([]string{"-breakdown", "-matrix", "dlr1", "-scale", "0.01", "-timelinenodes", "2"}, &bd[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(bd[0].String(), "local spMVM") {
		t.Error("breakdown output missing")
	}
	if !bytes.Equal(bd[0].Bytes(), bd[1].Bytes()) {
		t.Errorf("breakdown differs between runs:\n%s\n---\n%s", bd[0].Bytes(), bd[1].Bytes())
	}
}

func TestRunTraceExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	if err := run([]string{"-trace", path, "-matrix", "dlr1", "-scale", "0.01", "-timelinenodes", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if doc["traceEvents"] == nil {
		t.Error("no traceEvents")
	}
}

func TestRunWeakFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-weak", "-matrix", "dlr1", "-basescale", "0.005", "-nodes", "1,2", "-iters", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Weak scaling") {
		t.Error("weak output missing")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run([]string{"-format", "weird"}, &bytes.Buffer{}); err == nil {
		t.Error("bad format accepted")
	}
	if err := run([]string{"-nodes", "0,2"}, &bytes.Buffer{}); err == nil {
		t.Error("bad node list accepted")
	}
}

// TestRunTraceOutAllLanes is the acceptance check for -trace-out: one
// run must yield a valid Chrome trace containing comm, gpu AND solver
// events for every rank, plus -metrics-out must produce a parseable
// telemetry snapshot.
func TestRunTraceOutAllLanes(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	const nodes = 3
	var buf bytes.Buffer
	if err := run([]string{
		"-trace-out", tracePath, "-metrics-out", metricsPath,
		"-matrix", "dlr1", "-scale", "0.01", "-timelinenodes", "3",
	}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	cats := map[int]map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e["ph"] != "X" {
			continue
		}
		pid := int(e["pid"].(float64))
		if cats[pid] == nil {
			cats[pid] = map[string]bool{}
		}
		cats[pid][e["cat"].(string)] = true
	}
	for r := 0; r < nodes; r++ {
		for _, cat := range []string{"comm", "gpu", "solver"} {
			if !cats[r][cat] {
				t.Errorf("rank %d: no %q events in trace", r, cat)
			}
		}
	}
	mdata, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(mdata, &snap); err != nil {
		t.Fatalf("invalid metrics JSON: %v", err)
	}
	if len(snap) == 0 {
		t.Error("metrics snapshot is empty")
	}
}
