package runledger

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pjds/internal/telemetry"
)

func TestAppendRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "ledger.jsonl")
	for i, gf := range []float64{10, 12} {
		err := Append(path, Entry{
			Tool:    "spmvbench",
			Matrix:  "HMEp",
			Kernel:  "blocked",
			Workers: i + 1,
			Metrics: map[string]float64{"host_gflops": gf},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	entries, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d entries, want 2", len(entries))
	}
	e := entries[0]
	if e.Schema != Schema || e.Tool != "spmvbench" || e.Time == "" || e.GitRev == "" {
		t.Fatalf("entry not filled in: %+v", e)
	}
	if e.Host.OS == "" || e.Host.CPUs == 0 || e.Host.GoVersion == "" {
		t.Fatalf("host not filled in: %+v", e.Host)
	}
	if entries[1].Metrics["host_gflops"] != 12 {
		t.Fatalf("metrics = %v", entries[1].Metrics)
	}
}

func TestReadTolerant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	lines := []string{
		`not json at all`,
		`{"schema":"other/v9","tool":"x"}`,
		`{"schema":"` + Schema + `","tool":"keeper","metrics":{"a":1}}`,
		``,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Tool != "keeper" {
		t.Fatalf("entries = %+v", entries)
	}
	// Missing file: empty ledger, not an error.
	if entries, err := Read(filepath.Join(t.TempDir(), "nope.jsonl")); err != nil || entries != nil {
		t.Fatalf("missing file: entries=%v err=%v", entries, err)
	}
}

// TestReadTruncatedTrailingLine: a crash mid-Append leaves a partial
// JSON object with no newline at the tail. The tolerant reader must
// return every complete entry and nil error — a half-written last
// line must never poison the whole history.
func TestReadTruncatedTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	for _, gf := range []float64{10, 12} {
		if err := Append(path, Entry{Tool: "spmvd", Metrics: map[string]float64{"gflops": gf}}); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the last line mid-object (drop its closing half and the
	// trailing newline), exactly what an interrupted write leaves.
	cut := bytes.TrimRight(whole, "\n")
	cut = cut[:len(cut)-len(cut)/4]
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}

	entries, err := Read(path)
	if err != nil {
		t.Fatalf("Read on truncated ledger: %v", err)
	}
	if len(entries) != 1 || entries[0].Metrics["gflops"] != 10 {
		t.Fatalf("entries = %+v, want just the first complete entry", entries)
	}

	// The trend pipeline over the surviving entries is unaffected.
	rows := Trend([]Source{SourceFromEntry(entries[0])}, TrendOptions{})
	if len(rows) == 0 {
		t.Fatal("trend over surviving entries produced no rows")
	}

	// Corrupt binary garbage on the tail (torn sector, not just a cut
	// JSON prefix) is equally non-fatal.
	garbage := append(append([]byte{}, whole...), []byte("\x00\xff{\"schema\":\x7f garbled")...)
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err = Read(path)
	if err != nil {
		t.Fatalf("Read on garbage tail: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d entries surviving garbage tail, want 2", len(entries))
	}
}

func TestFingerprintStable(t *testing.T) {
	a := Fingerprint("HMEp", 100, 100, 1000)
	b := Fingerprint("HMEp", 100, 100, 1000)
	c := Fingerprint("HMEp", 100, 100, 1001)
	if a != b {
		t.Fatalf("fingerprint unstable: %s vs %s", a, b)
	}
	if a == c {
		t.Fatalf("fingerprint collision across nnz: %s", a)
	}
	if len(a) != 16 {
		t.Fatalf("fingerprint %q not 16 hex chars", a)
	}
}

func TestMetricsFromRegistry(t *testing.T) {
	r := telemetry.NewRegistry()
	r.Counter("reqs_total", telemetry.L("rank", "0")).Add(3)
	r.Counter("reqs_total", telemetry.L("rank", "1")).Add(4)
	r.Gauge("depth").Set(5)
	r.Histogram("lat_seconds", []float64{1, 2}).Observe(1.5)
	m := MetricsFromRegistry(r)
	if m["reqs_total"] != 7 {
		t.Fatalf("reqs_total = %v, want family sum 7", m["reqs_total"])
	}
	if m["depth"] != 5 {
		t.Fatalf("depth = %v", m["depth"])
	}
	if m["lat_seconds_sum"] != 1.5 || m["lat_seconds_count"] != 1 {
		t.Fatalf("histogram rollup = %v", m)
	}
}

func trendOf(t *testing.T, vals []float64, metric string, opt TrendOptions) TrendRow {
	t.Helper()
	var sources []Source
	for i, v := range vals {
		sources = append(sources, Source{
			Name:    "src" + string(rune('A'+i)),
			Metrics: map[string]float64{metric: v},
		})
	}
	rows := Trend(sources, opt)
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	return rows[0]
}

func TestTrendVerdicts(t *testing.T) {
	opt := TrendOptions{Tolerance: 0.05, Sustain: 2}
	cases := []struct {
		name    string
		metric  string
		vals    []float64
		verdict string
	}{
		{"single source", "gflops", []float64{10}, TrendSingle},
		{"steady", "gflops", []float64{10, 10.1, 9.9}, TrendOK},
		{"new best", "gflops", []float64{10, 10.2, 12}, TrendImproved},
		{"one bad run", "gflops", []float64{10, 10, 8}, TrendWatch},
		{"sustained loss", "gflops", []float64{10, 10, 8, 8.1}, TrendRegression},
		{"lower better sustained", "solve_seconds", []float64{1.0, 1.0, 1.3, 1.25}, TrendRegression},
		{"lower better improved", "solve_seconds", []float64{1.0, 0.8}, TrendImproved},
		{"unknown dir drift is watch not gate", "mystery_quantity", []float64{10, 10, 20}, TrendWatch},
		{"unknown dir steady", "mystery_quantity", []float64{10, 10}, TrendOK},
	}
	for _, tc := range cases {
		row := trendOf(t, tc.vals, tc.metric, opt)
		if row.Verdict != tc.verdict {
			t.Errorf("%s: verdict %s, want %s (row %+v)", tc.name, row.Verdict, tc.verdict, row)
		}
		if row.Gates() != (tc.verdict == TrendRegression) {
			t.Errorf("%s: Gates() = %v for verdict %s", tc.name, row.Gates(), row.Verdict)
		}
	}
}

func TestTrendRecoveryIsNotSustained(t *testing.T) {
	// Dipped then recovered: the trailing point is back inside the
	// band, so the row must not gate.
	row := trendOf(t, []float64{10, 8, 10}, "gflops", TrendOptions{})
	if row.Verdict != TrendOK {
		t.Fatalf("verdict %s, want ok after recovery", row.Verdict)
	}
}

func TestWriteTrendReport(t *testing.T) {
	sources := []Source{
		{Name: "a", Metrics: map[string]float64{"gflops": 10, "only_here": 1}},
		{Name: "b", Metrics: map[string]float64{"gflops": 8}},
		{Name: "c", Metrics: map[string]float64{"gflops": 8}},
	}
	rows := Trend(sources, TrendOptions{})
	var buf bytes.Buffer
	WriteTrendReport(&buf, sources, rows, false)
	out := buf.String()
	for _, want := range []string{"trend over 3 sources", "regression", "gflops", "1 single-source"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "only_here") {
		t.Fatalf("single-source row listed without -trend-full:\n%s", out)
	}
	if len(Regressions(rows)) != 1 {
		t.Fatalf("Regressions = %+v", Regressions(rows))
	}
}

func TestTrendHandler(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	for _, v := range []float64{10, 11} {
		if err := Append(path, Entry{Tool: "spmvbench", Metrics: map[string]float64{"host_gflops": v}}); err != nil {
			t.Fatal(err)
		}
	}
	h := TrendHandler(path, TrendOptions{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trends.json", nil))
	if rec.Code != 200 {
		t.Fatalf("HTTP %d", rec.Code)
	}
	var doc struct {
		Ledger  string     `json:"ledger"`
		Sources []string   `json:"sources"`
		Rows    []TrendRow `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if len(doc.Sources) != 2 || len(doc.Rows) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Rows[0].Metric != "host_gflops" || doc.Rows[0].Verdict != TrendImproved {
		t.Fatalf("row = %+v", doc.Rows[0])
	}
}
