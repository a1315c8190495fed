package tuner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pjds/internal/gpu"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/telemetry"
)

// TestTuneOrLookupSeesOtherWriters: the per-path index TuneOrLookup
// answers from follows the file, whoever writes it.
func TestTuneOrLookupSeesOtherWriters(t *testing.T) {
	dev := gpu.TeslaC2070().Name
	m := matgen.Banded(200, 3, 9, 20, 1)
	o := matgen.Random(150, 2, 8, 2)
	// stored is an entry another writer could have appended for a.
	stored := func(a *matrix.CSR[float64], winner Cell) Entry {
		return Entry{Fingerprint: Fingerprint(a), Device: dev, Winner: winner}
	}
	sellWinner := Cell{Format: "sell", C: 4, Sigma: 1}
	cmrsWinner := Cell{Format: "cmrs", Height: 8}
	// lookup asks TuneOrLookup's index without sweeping on a miss.
	lookup := func(t *testing.T, path string, a *matrix.CSR[float64]) (Cell, bool) {
		t.Helper()
		e, ok, err := indexFor(path).lookup(path, Fingerprint(a), dev)
		if err != nil {
			t.Fatal(err)
		}
		return e.Winner, ok
	}
	appendEntry := func(t *testing.T, path string, e Entry) {
		t.Helper()
		if err := Append(path, e); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("append after lookup", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "tuning.jsonl")
		cfg := Config{Workers: 1, Metrics: telemetry.NewRegistry()}
		if _, hit, err := TuneOrLookup(m, "banded", path, cfg); err != nil || hit {
			t.Fatalf("first upload: hit=%v err=%v", hit, err)
		}
		appendEntry(t, path, stored(o, sellWinner))
		e, hit, err := TuneOrLookup(o, "random", path, cfg)
		if err != nil || !hit || e.Winner != sellWinner {
			t.Fatalf("entry appended by another writer: hit=%v winner=%+v err=%v", hit, e.Winner, err)
		}
	})

	t.Run("truncate and replace", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "tuning.jsonl")
		appendEntry(t, path, stored(m, sellWinner))
		appendEntry(t, path, stored(o, sellWinner))
		if _, ok := lookup(t, path, o); !ok {
			t.Fatal("stored entry missed")
		}
		if err := os.Truncate(path, 0); err != nil {
			t.Fatal(err)
		}
		if _, ok := lookup(t, path, o); ok {
			t.Fatal("truncated DB still answers")
		}
		appendEntry(t, path, stored(m, cmrsWinner))
		if w, ok := lookup(t, path, m); !ok || w != cmrsWinner {
			t.Fatalf("after truncation: %+v %v, want the new entry", w, ok)
		}
		// A longer file renamed over the DB is another file.
		other := filepath.Join(dir, "other.jsonl")
		for range 3 {
			appendEntry(t, other, stored(o, cmrsWinner))
		}
		if err := os.Rename(other, path); err != nil {
			t.Fatal(err)
		}
		if w, ok := lookup(t, path, o); !ok || w != cmrsWinner {
			t.Fatalf("after replacement: %+v %v, want the replacing file's entry", w, ok)
		}
		if _, ok := lookup(t, path, m); ok {
			t.Fatal("replaced DB still answers from the old file")
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if _, ok := lookup(t, path, o); ok {
			t.Fatal("removed DB still answers")
		}
	})

	t.Run("torn last line", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "tuning.jsonl")
		appendEntry(t, path, stored(m, sellWinner))
		e := stored(o, cmrsWinner)
		e.Schema = Schema
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		line = append(line, '\n')
		half := len(line) / 2
		writeRaw(t, path, line[:half])
		if _, ok := lookup(t, path, o); ok {
			t.Fatal("half-written entry answered")
		}
		if w, ok := lookup(t, path, m); !ok || w != sellWinner {
			t.Fatalf("complete entry before a torn line: %+v %v", w, ok)
		}
		writeRaw(t, path, line[half:])
		if w, ok := lookup(t, path, o); !ok || w != cmrsWinner {
			t.Fatalf("completed entry: %+v %v", w, ok)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "tuning.jsonl")
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fp := fmt.Sprint("f", g)
				for range 20 {
					if _, _, err := indexFor(path).lookup(path, fp, dev); err != nil {
						t.Error(err)
						return
					}
				}
				if err := Append(path, Entry{Fingerprint: fp, Device: dev, Winner: sellWinner}); err != nil {
					t.Error(err)
					return
				}
				if e, ok, err := indexFor(path).lookup(path, fp, dev); err != nil || !ok || e.Winner != sellWinner {
					t.Errorf("%s after its own append: %+v %v %v", fp, e.Winner, ok, err)
				}
			}()
		}
		wg.Wait()
	})

	t.Run("restart", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "tuning.jsonl")
		appendEntry(t, path, stored(m, cmrsWinner))
		// A new process starts without an index.
		dbIndexes.Lock()
		clear(dbIndexes.byPath)
		dbIndexes.Unlock()
		reg := telemetry.NewRegistry()
		e, hit, err := TuneOrLookup(m, "banded", path, Config{Workers: 1, Metrics: reg})
		if err != nil || !hit || e.Winner != cmrsWinner {
			t.Fatalf("existing DB after restart: hit=%v winner=%+v err=%v", hit, e.Winner, err)
		}
		for _, s := range reg.Snapshot() {
			if s.Name == "tuner_sweeps_total" && s.Value != 0 {
				t.Fatalf("a cache hit swept %g times", s.Value)
			}
		}
	})
}

// writeRaw appends b to path as one write.
func writeRaw(t testing.TB, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Write(b)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestAppendLineShape pins the keys of the line Append writes to the
// checked-in FuzzTuningDB/one-entry line: encoding/json ignores an
// unknown key on read, so a renamed tag would silently drop a field
// from every DB written before the rename. Append fills the
// bookkeeping fields from GitRev and HostInfo.
func TestAppendLineShape(t *testing.T) {
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzTuningDB", "one-entry"))
	if err != nil {
		t.Fatal(err)
	}
	quoted := strings.TrimSuffix(strings.TrimPrefix(strings.Split(string(seed), "\n")[1], "[]byte("), ")")
	line, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatal(err)
	}
	wantTop, wantHost := lineKeys(t, []byte(line))
	if HostInfo().Hostname != "" {
		wantHost = append(wantHost, "hostname")
	}

	path := filepath.Join(t.TempDir(), "tuning.jsonl")
	for _, matrixName := range []string{"", "m"} {
		if err := Append(path, Entry{Matrix: matrixName, Fingerprint: "f1", Device: "devA"}); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	for i, want := range [][]string{wantTop, append(slices.Clone(wantTop), "matrix")} {
		top, host := lineKeys(t, lines[i])
		if !sameKeys(top, want) {
			t.Errorf("line %d keys %v, want %v", i, top, want)
		}
		if !sameKeys(host, wantHost) {
			t.Errorf("line %d host keys %v, want %v", i, host, wantHost)
		}
	}

	entries, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := Lookup(entries, "f1", "devA")
	if !ok {
		t.Fatal("appended entry not read back")
	}
	if e.GitRev == "" || e.GitRev != GitRev() {
		t.Errorf("git_rev %q, want GitRev() = %q", e.GitRev, GitRev())
	}
	if e.Host != HostInfo() || e.Host.OS != runtime.GOOS || e.Host.Arch != runtime.GOARCH ||
		e.Host.CPUs != runtime.NumCPU() || e.Host.GoVersion != runtime.Version() {
		t.Errorf("host %+v, want HostInfo() = %+v", e.Host, HostInfo())
	}
	if _, err := time.Parse(time.RFC3339, e.Time); err != nil {
		t.Errorf("time %q: %v", e.Time, err)
	}
}

// lineKeys returns the top-level keys of a DB line and the keys of its
// host object.
func lineKeys(t *testing.T, line []byte) (top, host []string) {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(line, &doc); err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	var h map[string]json.RawMessage
	if err := json.Unmarshal(doc["host"], &h); err != nil {
		t.Fatalf("host of %s: %v", line, err)
	}
	for k := range doc {
		top = append(top, k)
	}
	for k := range h {
		host = append(host, k)
	}
	return top, host
}

// sameKeys reports whether a and b hold the same keys in any order.
func sameKeys(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// TestReadTolerant: Read keeps only this schema's well-formed lines —
// blank, foreign-schema and non-JSON lines are skipped, and a last line
// without its newline still counts when it is complete.
func TestReadTolerant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tuning.jsonl")
	lines := []string{
		`not json at all`,
		``,
		`{"schema":"other/v9","fingerprint":"f9"}`,
		`{"schema":"` + Schema + `","fingerprint":"keep","device":"devA"}`,
		`{"schema":"` + Schema + `","fingerprint":"last","device":"devA"}`,
	}
	writeRaw(t, path, []byte(strings.Join(lines, "\n")))
	entries, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	var fps []string
	for _, e := range entries {
		fps = append(fps, e.Fingerprint)
	}
	if !slices.Equal(fps, []string{"keep", "last"}) {
		t.Fatalf("read fingerprints %v, want [keep last]", fps)
	}
}

// TestReadTruncatedTrailingLine: a crash mid-Append leaves a partial
// JSON object with no newline at the tail. Read returns every complete
// entry and no error, so a half-written last line never hides the
// sweeps before it; a garbage tail is equally harmless.
func TestReadTruncatedTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tuning.jsonl")
	for _, fp := range []string{"f1", "f2"} {
		if err := Append(path, Entry{Fingerprint: fp, Device: "devA"}); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.TrimRight(whole, "\n")
	cut = cut[:len(cut)-len(cut)/4]
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := Read(path)
	if err != nil {
		t.Fatalf("Read on a truncated DB: %v", err)
	}
	if len(entries) != 1 || entries[0].Fingerprint != "f1" {
		t.Fatalf("entries %+v, want just the first complete entry", entries)
	}

	garbage := append(slices.Clone(whole), "\x00\xff{\"schema\":\x7f garbled"...)
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err = Read(path)
	if err != nil {
		t.Fatalf("Read on a garbage tail: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d entries survive a garbage tail, want 2", len(entries))
	}
}

// TestFingerprintStable: the fingerprint is a 16-hex-digit hash of the
// dimensions and the row-length profile, so values and the columns
// inside a row do not change it, and any change of profile does.
func TestFingerprintStable(t *testing.T) {
	csr := func(rows, cols int, rowPtr []int, colIdx []int32) *matrix.CSR[float64] {
		t.Helper()
		m, err := matrix.NewCSR(rows, cols, rowPtr, colIdx, make([]float64, len(colIdx)))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	base := matgen.Banded(200, 3, 9, 20, 1)
	fp := Fingerprint(base)
	if len(fp) != 16 || strings.Trim(fp, "0123456789abcdef") != "" {
		t.Fatalf("fingerprint %q is not 16 hex digits", fp)
	}
	rescaled := base.Clone()
	for i := range rescaled.Val {
		rescaled.Val[i] *= -3
	}
	// Rows 2,1,0 and 1,1,1 hold three entries each in a 3×3 matrix.
	skewed := csr(3, 3, []int{0, 2, 3, 3}, []int32{0, 1, 1})
	even := csr(3, 3, []int{0, 1, 2, 3}, []int32{0, 1, 2})
	moved := csr(3, 3, []int{0, 1, 2, 3}, []int32{2, 0, 1})
	wider := csr(3, 4, []int{0, 1, 2, 3}, []int32{0, 1, 2})
	for _, c := range []struct {
		name string
		a, b *matrix.CSR[float64]
		same bool
	}{
		{"same matrix twice", base, base, true},
		{"values rescaled", base, rescaled, true},
		{"columns moved within rows", even, moved, true},
		{"row lengths differ at equal nnz", even, skewed, false},
		{"column count differs", even, wider, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := Fingerprint(c.a) == Fingerprint(c.b); got != c.same {
				t.Errorf("fingerprints equal = %v, want %v", got, c.same)
			}
		})
	}
}

// TestGitRevOncePerProcess: GitRev answers with the checkout the
// process first asked about, even after the working directory moves
// out of it.
func TestGitRevOncePerProcess(t *testing.T) {
	want := GitRev()
	if want != "unknown" && strings.Trim(strings.TrimSuffix(want, "-dirty"), "0123456789abcdef") != "" {
		t.Fatalf("GitRev() = %q, want an abbreviated hex revision or \"unknown\"", want)
	}
	t.Chdir(t.TempDir())
	if got := GitRev(); got != want {
		t.Fatalf("GitRev() after chdir = %q, want the first answer %q", got, want)
	}
}

// FuzzTuningDB: reading a DB's tail in two steps, split at an arbitrary
// byte, answers every lookup as one Read of its complete lines does,
// and a completed last line is then picked up. The seed corpus is in
// testdata/fuzz/FuzzTuningDB.
func FuzzTuningDB(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, split uint) {
		cut := int(split % uint(len(data)+1))
		dir := t.TempDir()
		path := filepath.Join(dir, "tuning.jsonl")
		ix := &dbIndex{}
		writeRaw(t, path, data[:cut])
		if _, _, err := ix.lookup(path, "", ""); err != nil {
			t.Fatal(err)
		}
		writeRaw(t, path, data[cut:])
		complete := data[:bytes.LastIndexByte(data, '\n')+1]
		sameAsRead(t, ix, path, complete)
		if len(complete) < len(data) {
			writeRaw(t, path, []byte{'\n'})
			sameAsRead(t, ix, path, append(data[:len(data):len(data)], '\n'))
		}
	})
}

// sameAsRead checks that ix answers every lookup on the DB at path as
// Lookup over Read of a file holding want does.
func sameAsRead(t *testing.T, ix *dbIndex, path string, want []byte) {
	t.Helper()
	ref := filepath.Join(filepath.Dir(path), "ref.jsonl")
	if err := os.WriteFile(ref, want, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := Read(ref)
	if err != nil {
		t.Fatal(err)
	}
	keys := []dbKey{{"f1", "devA"}, {"f1", ""}, {"absent", ""}}
	for _, e := range entries {
		keys = append(keys, dbKey{e.Fingerprint, e.Device}, dbKey{e.Fingerprint, ""}, dbKey{e.Fingerprint, e.Device + "x"})
	}
	for _, k := range keys {
		got, gotOK, err := ix.lookup(path, k.fingerprint, k.device)
		if err != nil {
			t.Fatal(err)
		}
		e, ok := Lookup(entries, k.fingerprint, k.device)
		if gotOK != ok || !reflect.DeepEqual(got, e) {
			t.Fatalf("lookup %+v: tail index %v %+v, Read %v %+v", k, gotOK, got, ok, e)
		}
	}
}
