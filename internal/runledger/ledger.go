// Package runledger persists one JSONL record per benchmark/scaling/
// chaos run — matrix fingerprint, format, kernel, workers, git rev,
// host info and a metrics snapshot — and analyzes the accumulated
// trajectory for cross-run trends. It is the persistence substrate
// the format-selection advisor's tuning database will sit on: the
// ledger answers "which phase got slower, and when?" where
// perfreport diff can only compare two artifacts of one command.
package runledger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"pjds/internal/telemetry"
)

// Schema identifies the ledger line format. Readers skip lines whose
// schema they do not recognize, so the format can evolve in place.
const Schema = "pjds-ledger/v1"

// DefaultPath is where tools append when -ledger is given without a
// path of its own.
const DefaultPath = ".spmv/ledger.jsonl"

// Host describes the machine a run executed on.
type Host struct {
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	Hostname  string `json:"hostname,omitempty"`
	GoVersion string `json:"go_version"`
}

// Entry is one run record. Metrics holds per-family sums from the
// telemetry registry (plus any tool-reported scalars); keys are
// metric names, optionally suffixed _sum/_count for histograms.
type Entry struct {
	Schema      string             `json:"schema"`
	Time        string             `json:"time"` // RFC3339
	Tool        string             `json:"tool"`
	Matrix      string             `json:"matrix,omitempty"`
	Fingerprint string             `json:"fingerprint,omitempty"`
	Format      string             `json:"format,omitempty"`
	Kernel      string             `json:"kernel,omitempty"`
	Workers     int                `json:"workers,omitempty"`
	Ranks       int                `json:"ranks,omitempty"`
	Scale       float64            `json:"scale,omitempty"`
	GitRev      string             `json:"git_rev"`
	Host        Host               `json:"host"`
	Metrics     map[string]float64 `json:"metrics"`
}

// Append writes e as one JSONL line at path, creating the parent
// directory as needed. Missing bookkeeping fields (Schema, Time,
// GitRev, Host) are filled in. The write is a single O_APPEND write
// of one line, so concurrent appenders interleave whole records.
func Append(path string, e Entry) error {
	if e.Schema == "" {
		e.Schema = Schema
	}
	if e.Time == "" {
		e.Time = time.Now().UTC().Format(time.RFC3339)
	}
	if e.GitRev == "" {
		e.GitRev = GitRev()
	}
	if e.Host == (Host{}) {
		e.Host = HostInfo()
	}
	if e.Metrics == nil {
		e.Metrics = map[string]float64{}
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("runledger: %w", err)
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("runledger: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("runledger: %w", err)
	}
	_, werr := f.Write(append(line, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("runledger: %w", werr)
	}
	return nil
}

// Read loads all recognizable entries from a ledger file. Malformed
// or foreign-schema lines are skipped, not fatal — an append-only log
// shared across tool versions must tolerate what it doesn't know.
// A missing file reads as an empty ledger.
func Read(path string) ([]Entry, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runledger: %w", err)
	}
	defer f.Close()
	var out []Entry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			continue
		}
		if e.Schema != Schema {
			continue
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("runledger: %w", err)
	}
	return out, nil
}

// GitRev returns the abbreviated HEAD revision (with a "-dirty"
// suffix when the tree has modifications), or "unknown" outside a
// git checkout. The two git commands run once per process, at the
// first call: later calls return that first answer, so a long-lived
// process records the checkout it started in, not a later commit or
// edit.
var GitRev = sync.OnceValue(func() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if rev == "" {
		return "unknown"
	}
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(strings.TrimSpace(string(status))) > 0 {
		rev += "-dirty"
	}
	return rev
})

// HostInfo samples the current machine.
func HostInfo() Host {
	h := Host{
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
	if name, err := os.Hostname(); err == nil {
		h.Hostname = name
	}
	return h
}

// Fingerprint derives a stable identity for a matrix instance from
// its name and dimensions, so runs of the same matrix at the same
// scale line up across ledger entries even when generated on the fly.
func Fingerprint(name string, rows, cols, nnz int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d", name, rows, cols, nnz)
	return fmt.Sprintf("%016x", h.Sum64())
}

// MetricsFromRegistry condenses a registry snapshot to per-family
// sums: counter and gauge series sum across label sets under the
// family name; histograms contribute <name>_sum and <name>_count.
// Sums (not per-label series) keep ledger lines small and make the
// trend keyspace stable as label cardinality changes between runs.
func MetricsFromRegistry(r *telemetry.Registry) map[string]float64 {
	return MetricsFromSnapshot(r.Snapshot())
}

// MetricsFromSnapshot is MetricsFromRegistry over an already-taken
// snapshot (e.g. one read back from a -metrics-out artifact).
func MetricsFromSnapshot(snap []telemetry.Series) map[string]float64 {
	out := map[string]float64{}
	for _, s := range snap {
		switch s.Type {
		case "histogram":
			out[s.Name+"_sum"] += s.Sum
			out[s.Name+"_count"] += float64(s.Count)
		default:
			out[s.Name] += s.Value
		}
	}
	return out
}
