package service

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"pjds/internal/telemetry"
)

// fuzzMaxDim bounds the dimensions a fuzzed size line may declare. The
// reader accepts up to 2^28 rows from a few header bytes, and declared
// rows cost O(rows) memory, so a mutated header digit would otherwise
// make one input allocate gigabytes.
const fuzzMaxDim = 1 << 16

// declaresAbove reports whether body's MatrixMarket size line (the
// first non-blank, non-comment line after the banner, as the reader
// finds it) declares a dimension or entry count above limit.
func declaresAbove(body []byte, limit int) bool {
	lines := strings.Split(string(body), "\n")
	for _, line := range lines[1:] {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "%") {
			continue
		}
		f := strings.Fields(t)
		for _, w := range f[:min(3, len(f))] {
			if v, err := strconv.Atoi(w); err == nil && v > limit {
				return true
			}
		}
		return false
	}
	return false
}

// FuzzAddMatrix: no upload body panics AddMatrix, and a body it
// accepts uploads a second time as Shared under the same ID. Each input
// gets a fresh server; inputs whose size line declares more than
// fuzzMaxDim rows, columns or entries are skipped. The seed corpus is
// in testdata/fuzz/FuzzAddMatrix.
func FuzzAddMatrix(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		if declaresAbove(body, fuzzMaxDim) {
			return
		}
		s := New(Config{Registry: telemetry.NewRegistry(), Devices: 1})
		defer s.Close()
		info, err := s.AddMatrix("first", bytes.NewReader(body))
		if err != nil {
			return
		}
		again, err := s.AddMatrix("second", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%q: accepted once, then %v", body, err)
		}
		if !again.Shared || again.ID != info.ID {
			t.Fatalf("%q: second upload %+v, want Shared with ID %s", body, again, info.ID)
		}
	})
}
