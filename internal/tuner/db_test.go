package tuner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

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
