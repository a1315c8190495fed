package telemetry_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"pjds/internal/telemetry"
)

// FuzzReadTrace: ReadTrace never panics on a hostile Chrome trace, and
// the spans it accepts write back with WriteTrace and re-read to the
// same spans: procs, lanes, categories, names and args exactly, times
// to the precision of the microsecond round trip. The seed corpus is in
// testdata/fuzz/FuzzReadTrace.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		spans, err := telemetry.ReadTrace(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := telemetry.WriteTrace(&buf, spans, telemetry.TraceMeta{}); err != nil {
			t.Fatalf("%q: the %d spans it read do not write back: %v", doc, len(spans), err)
		}
		again, err := telemetry.ReadTrace(&buf)
		if err != nil {
			t.Fatalf("%q: its rewrite %q does not re-read: %v", doc, buf.Bytes(), err)
		}
		if len(again) != len(spans) {
			t.Fatalf("%q: %d spans re-read as %d", doc, len(spans), len(again))
		}
		for i, s := range spans {
			a := again[i]
			if a.Proc != s.Proc || a.Lane != s.Lane || a.Cat != s.Cat || a.Name != s.Name ||
				!reflect.DeepEqual(a.Args, s.Args) || !closeTime(a.Start, s.Start) || !closeTime(a.End, s.End) {
				t.Fatalf("%q: span %d %+v re-read as %+v", doc, i, s, a)
			}
		}
	})
}

// closeTime reports whether two span times agree to the precision of
// the trace's microsecond scaling: a few ulps of the larger magnitude.
func closeTime(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))+1e-300
}
