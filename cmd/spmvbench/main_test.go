package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDefaultIsTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scale", "0.01"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table I", "data reduction", "ELLPACK-R", "pJDS", "Westmere"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunFig2AndOutlook(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig2", "-matrix", "sAMG", "-scale", "0.01"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 2") {
		t.Error("fig2 output missing")
	}
	buf.Reset()
	if err := run([]string{"-outlook", "-scale", "0.005"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"outlook", "CSR-scalar", "BELLPACK", "sliced-ELL"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("outlook output missing %q", want)
		}
	}
}

func TestRunUnknownMatrix(t *testing.T) {
	if err := run([]string{"-fig2", "-matrix", "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown matrix accepted")
	}
}

// TestRunJSONBench checks the machine-readable benchmark output:
// pjds-bench/v1 schema, 8 entries per Table I matrix, positive GF/s and
// derived bandwidth, and a telemetry dump alongside.
func TestRunJSONBench(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.json")
	metricsPath := filepath.Join(dir, "metrics.prom")
	var buf bytes.Buffer
	if err := run([]string{"-scale", "0.01", "-json", benchPath, "-metrics-out", metricsPath}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string `json:"schema"`
		Scale   float64
		Device  string
		Entries []benchEntry
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid bench JSON: %v", err)
	}
	if doc.Schema != "pjds-bench/v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	if doc.Device == "" {
		t.Error("no device recorded")
	}
	if len(doc.Entries) == 0 || len(doc.Entries)%8 != 0 {
		t.Fatalf("%d entries, want a positive multiple of 8", len(doc.Entries))
	}
	for _, e := range doc.Entries {
		if e.GFlops <= 0 || e.BandwidthGBs <= 0 || e.CodeBalance <= 0 {
			t.Errorf("degenerate entry %+v", e)
		}
	}
	prom, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "gpu_kernel_gflops") {
		t.Error("metrics dump missing gpu_kernel_gflops")
	}
}

// TestRunFormatAuto: the format-selection bench sweeps on the first
// run (persisting the DB), answers from the cache on the second, the
// digest gate reports MATCH for every matrix, and the pjds-tune/v1
// artifact carries the auto-vs-pJDS measurements.
func TestRunFormatAuto(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "tuning.jsonl")
	art := filepath.Join(dir, "tune.json")
	var buf bytes.Buffer
	args := []string{"-format", "auto", "-scale", "0.003", "-host-iters", "1",
		"-tuning-db", db, "-tune-json", art}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Format selection benchmark") || !strings.Contains(out, "sweep") {
		t.Fatalf("first run did not sweep:\n%s", out)
	}
	if strings.Contains(out, "MISMATCH") || !strings.Contains(out, "MATCH") {
		t.Fatalf("digest gate failed:\n%s", out)
	}
	raw, err := os.ReadFile(art)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string `json:"schema"`
		Entries []struct {
			Matrix       string  `json:"matrix"`
			Winner       string  `json:"winner"`
			CacheHit     bool    `json:"cache_hit"`
			AutoNsPerNnz float64 `json:"auto_ns_per_nnz"`
			PJDSNsPerNnz float64 `json:"pjds_ns_per_nnz"`
			DigestMatch  bool    `json:"digest_match"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "pjds-tune/v1" || len(doc.Entries) == 0 {
		t.Fatalf("artifact schema %q with %d entries", doc.Schema, len(doc.Entries))
	}
	for _, e := range doc.Entries {
		if e.Winner == "" || e.AutoNsPerNnz <= 0 || e.PJDSNsPerNnz <= 0 || !e.DigestMatch || e.CacheHit {
			t.Fatalf("degenerate artifact entry %+v", e)
		}
	}
	// Second run: every matrix answers from the DB.
	buf.Reset()
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hit") || strings.Contains(buf.String(), "sweep\n") {
		t.Fatalf("second run re-swept:\n%s", buf.String())
	}
}

// TestRunFormatFixed: a fixed format name bypasses the tuner but
// still passes the digest gate; an unknown name errors.
func TestRunFormatFixed(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-format", "cmrs", "-scale", "0.003", "-host-iters", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CMRS-h16") || strings.Contains(buf.String(), "MISMATCH") {
		t.Fatalf("fixed-format run wrong:\n%s", buf.String())
	}
	if err := run([]string{"-format", "bogus", "-scale", "0.003"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestRunHistogram(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig3", "-scale", "0.01"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"DLR1", "DLR2", "HMEp", "sAMG", "non-zeros per row"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "Table I") {
		t.Error("-fig3 also ran the default Table I")
	}
}

func TestRunHistogramBadFlag(t *testing.T) {
	if err := run([]string{"-fig3", "-nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRunBalanceOnly: the Eq. (1) table that heads -sec2b's output.
func TestRunBalanceOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := printBalanceSweep(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Eq. (1)") || !strings.Contains(out, "315") {
		t.Errorf("balance sweep missing:\n%s", out)
	}
}

func TestRunMeasured(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-sec2b", "-scale", "0.005"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "Eq. (1)") {
		t.Errorf("-sec2b does not open with the Eq. (1) table:\n%s", out)
	}
	for _, want := range []string{"Eq. (3)", "Eq. (4)", "with PCIe", "HMEp"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunPapercheckTinyScale(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-papercheck", "-scale", "0.02"}, &buf)
	out := buf.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "checks,") {
		t.Errorf("output malformed:\n%s", out)
	}
	if err != nil {
		t.Errorf("reproduction checks failed at tiny scale: %v\n%s", err, out)
	}
}

func TestRunPapercheckBadFlag(t *testing.T) {
	if err := run([]string{"-papercheck", "-bogus"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad flag accepted")
	}
}
