// Package tuner selects the fastest storage format and geometry for a
// matrix by sweeping a (C, σ) grid — plus the CRS, pJDS and CMRS
// contenders — with real timed host-kernel replays, pruning hopeless
// grid cells with the Eq. 1 traffic model first. Winners persist in an
// append-only JSONL database keyed by matrix fingerprint and device,
// so a matrix is tuned once and every later upload or benchmark run
// reuses the stored pick.
//
// The package is also the advisor that operationalizes the paper's
// format and offload guidance without measuring: given a matrix's
// structure statistics and a device, Recommend answers the two
// questions §II poses — is the GPU worth using at all (the Eq. 3/4
// PCIe analysis), and which storage format should hold the matrix (the
// §II-A data-reduction and utilization discussion) — and RankFormats
// ranks the contenders with the sweep's own model pass.
package tuner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"pjds/internal/matrix"
)

// Schema identifies the tuning-DB line format. Readers skip lines
// whose schema they do not recognize.
const Schema = "pjds-tuning/v1"

// DefaultPath is where tuning entries live unless a tool overrides it.
const DefaultPath = ".spmv/tuning.jsonl"

// Cell is one grid candidate: a format plus its geometry, the model's
// traffic prediction, and (when not pruned) the measured replay speed.
type Cell struct {
	// Format is "crs", "pjds", "sell" or "cmrs".
	Format string `json:"format"`
	// C and Sigma are the SELL chunk height and sorting window
	// (pjds records its C=32, σ=n equivalent); Height is the CMRS
	// strip height.
	C      int `json:"c,omitempty"`
	Sigma  int `json:"sigma,omitempty"`
	Height int `json:"height,omitempty"`
	// Beta is the predicted zero-padding overhead of the layout.
	Beta float64 `json:"beta"`
	// ModelBytesPerNnz is the Eq. 1-style traffic prediction used for
	// pruning and for the measured-vs-model report.
	ModelBytesPerNnz float64 `json:"model_bytes_per_nnz"`
	// MeasuredNsPerNnz is the best-of-iters replay time; 0 when pruned.
	MeasuredNsPerNnz float64 `json:"measured_ns_per_nnz,omitempty"`
	// Pruned marks cells the model rejected before measurement.
	Pruned bool `json:"pruned,omitempty"`
}

// Label renders the cell for reports: CRS, pJDS, SELL-8-256, CMRS-h16.
func (c Cell) Label() string {
	switch c.Format {
	case "crs":
		return "CRS"
	case "pjds":
		return "pJDS"
	case "cmrs":
		return fmt.Sprintf("CMRS-h%d", c.Height)
	default:
		return fmt.Sprintf("SELL-%d-%d", c.C, c.Sigma)
	}
}

// key identifies a cell inside one sweep (grid dedup).
func (c Cell) key() string {
	return fmt.Sprintf("%s/%d/%d/%d", c.Format, c.C, c.Sigma, c.Height)
}

// Entry is one persisted sweep: the matrix/device key, the full grid
// with model and measurement per cell, and the winner.
type Entry struct {
	Schema      string `json:"schema"`
	Time        string `json:"time"` // RFC3339
	GitRev      string `json:"git_rev"`
	Host        Host   `json:"host"`
	Matrix      string `json:"matrix,omitempty"`
	Fingerprint string `json:"fingerprint"`
	Device      string `json:"device"`
	Rows        int    `json:"rows"`
	Cols        int    `json:"cols"`
	Nnz         int    `json:"nnz"`
	Workers     int    `json:"workers"`
	Winner      Cell   `json:"winner"`
	Cells       []Cell `json:"cells"`
}

// Host describes the machine a sweep ran on.
type Host struct {
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	Hostname  string `json:"hostname,omitempty"`
	GoVersion string `json:"go_version"`
}

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

// Fingerprint hashes the matrix structure — dimensions plus the full
// row-length profile — so two matrices with the same shape but
// different sparsity patterns tune independently. Values are not
// hashed: tuning depends on structure only.
func Fingerprint[T matrix.Float](m *matrix.CSR[T]) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(m.NRows)
	put(m.NCols)
	put(m.Nnz())
	for i := 0; i < m.NRows; i++ {
		put(m.RowLen(i))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Append writes e as one JSONL line at path (creating the parent
// directory), filling missing bookkeeping fields. One O_APPEND write,
// so concurrent appenders interleave whole records.
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
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("tuner: %w", err)
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("tuner: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("tuner: %w", err)
	}
	_, werr := f.Write(append(line, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("tuner: %w", werr)
	}
	return nil
}

// Read loads all recognizable entries. Malformed or foreign-schema
// lines are skipped, not fatal; a missing file reads as empty.
func Read(path string) ([]Entry, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("tuner: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Entry
	for sc.Scan() {
		if e, ok := decodeEntry(sc.Bytes()); ok {
			out = append(out, e)
		}
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("tuner: %w", err)
	}
	return out, nil
}

// decodeEntry parses one DB line, reporting false for a malformed or
// foreign-schema line.
func decodeEntry(line []byte) (Entry, bool) {
	var e Entry
	return e, json.Unmarshal(line, &e) == nil && e.Schema == Schema
}

// Lookup returns the newest entry matching the fingerprint and device
// (file order is append order, so the last match wins). An empty
// device matches any device — matinfo -recommend uses it to surface
// whatever sweep exists for a structure.
func Lookup(entries []Entry, fingerprint, device string) (Entry, bool) {
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].Fingerprint == fingerprint && (device == "" || entries[i].Device == device) {
			return entries[i], true
		}
	}
	return Entry{}, false
}

// dbIndex is the in-process view of one tuning DB file: the newest
// entry per (fingerprint, device) among the file's complete lines up to
// byte off. A lookup extends it with the lines any writer appended
// since, so a miss costs only the new tail, not a decode of the whole
// DB.
type dbIndex struct {
	mu     sync.Mutex
	file   os.FileInfo // the file off refers to; nil when none was read
	off    int64       // bytes indexed: 0, or just past a '\n'
	newest map[dbKey]Entry
}

// dbKey keys the index. Every entry is stored under its own device and
// under the empty device, which Lookup treats as "any device".
type dbKey struct{ fingerprint, device string }

// dbIndexes holds one index per DB path for the life of the process,
// so the service's uploads share what earlier uploads indexed.
var dbIndexes = struct {
	sync.Mutex
	byPath map[string]*dbIndex
}{byPath: map[string]*dbIndex{}}

// indexFor returns the process's index of the DB at path.
func indexFor(path string) *dbIndex {
	dbIndexes.Lock()
	defer dbIndexes.Unlock()
	ix := dbIndexes.byPath[path]
	if ix == nil {
		ix = &dbIndex{}
		dbIndexes.byPath[path] = ix
	}
	return ix
}

// lookup answers as Lookup over Read of the file's complete lines
// would, after indexing the lines appended since the last lookup.
func (ix *dbIndex) lookup(path, fingerprint, device string) (Entry, bool, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.refresh(path); err != nil {
		return Entry{}, false, err
	}
	e, ok := ix.newest[dbKey{fingerprint, device}]
	return e, ok, nil
}

// refresh brings the index up to the file's last complete line. It
// starts over from byte 0 when the file shrank, was replaced by another
// file, or no longer has the newline that ended the indexed lines at
// off−1 (rewritten in place), and empties the index when the file is
// missing. A torn last line — a write still in progress — stays
// unindexed until its newline lands.
func (ix *dbIndex) refresh(path string) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		ix.reset(nil)
		return nil
	}
	if err != nil {
		return fmt.Errorf("tuner: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("tuner: %w", err)
	}
	if ix.file == nil || !os.SameFile(ix.file, fi) || fi.Size() < ix.off {
		ix.reset(fi)
	}
	if fi.Size() == ix.off {
		return nil
	}
	from := max(ix.off-1, 0)
	buf := make([]byte, fi.Size()-from)
	n, err := f.ReadAt(buf, from)
	if err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("tuner: %w", err)
	}
	buf = buf[:n]
	if ix.off > 0 {
		if len(buf) == 0 || buf[0] != '\n' {
			ix.reset(fi)
			return ix.refresh(path)
		}
		buf = buf[1:]
	}
	ix.off += int64(ix.index(buf))
	return nil
}

// reset empties the index and points it at file fi.
func (ix *dbIndex) reset(fi os.FileInfo) {
	ix.file, ix.off, ix.newest = fi, 0, map[dbKey]Entry{}
}

// index adds buf's complete lines and returns the number of bytes they
// span.
func (ix *dbIndex) index(buf []byte) int {
	end := bytes.LastIndexByte(buf, '\n') + 1
	for rest := buf[:end]; len(rest) > 0; {
		i := bytes.IndexByte(rest, '\n')
		if e, ok := decodeEntry(rest[:i]); ok {
			ix.newest[dbKey{e.Fingerprint, e.Device}] = e
			ix.newest[dbKey{e.Fingerprint, ""}] = e
		}
		rest = rest[i+1:]
	}
	return end
}
