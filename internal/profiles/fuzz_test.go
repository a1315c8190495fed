package profiles

import (
	"bytes"
	"compress/gzip"
	"io"
	"reflect"
	"testing"
)

// FuzzParse: Parse never panics or hangs, a profile it accepts
// attributes and renders, and gzip-compressing an accepted raw profile
// decodes to the same profile. The seed corpus in
// testdata/fuzz/FuzzParse holds an empty input, the hand-built fixture
// raw and gzipped, a truncated varint, a packed location/value run and
// a string index past the string table.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		a := Attribute(p)
		if a.Attributed+a.Unattributed != a.Total {
			t.Fatalf("attributed %d + unattributed %d != total %d", a.Attributed, a.Unattributed, a.Total)
		}
		a.WriteTable(io.Discard)
		if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
			return
		}
		var z bytes.Buffer
		zw := gzip.NewWriter(&z)
		zw.Write(data)
		zw.Close()
		q, err := Parse(z.Bytes())
		if err != nil {
			t.Fatalf("gzipped copy rejected: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("gzipped copy decodes differently:\n%+v\n%+v", p, q)
		}
	})
}
