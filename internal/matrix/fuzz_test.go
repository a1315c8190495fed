package matrix

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadMatrixMarket hardens the text parser: arbitrary input must
// either fail cleanly or produce a matrix that round-trips through the
// writer byte-stably, and every line the one-pass fast path reads must
// give the entry the general per-line parser gives it.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n2 2 -3\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 3\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n% comment\n\n2 2 0\n")
	f.Add("garbage")
	f.Add("%%MatrixMarket matrix coordinate real general\n1000000000 1000000000 1\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\r\n3 3 4\r\n1\t1\t-0.5e-3\r\n 2 2 +1\n3 1 4.9e-324 x\n3 3 12345678901234567891\n")
	f.Fuzz(func(t *testing.T, in string) {
		checkFastLines(t, in)
		m, err := ReadMatrixMarket[float64](strings.NewReader(in))
		if err != nil {
			// The parallel parse must fail whenever the default parse
			// fails (same acceptance, not just same matrices).
			if _, _, perr := ReadMatrixMarketOpt[float64](strings.NewReader(in),
				ConvertOptions{Workers: 3, ForceParallel: true}); perr == nil {
				t.Fatalf("parallel parse accepted input the default parse rejects: %q", in)
			}
			return
		}
		// Parsed successfully: the result must be a structurally valid
		// CSR and survive a write/read cycle unchanged.
		if m.RowPtr[m.NRows] != m.Nnz() {
			t.Fatalf("inconsistent CSR from %q", in)
		}
		// The explicitly-parallel parse must agree bit for bit.
		pm, _, err := ReadMatrixMarketOpt[float64](strings.NewReader(in),
			ConvertOptions{Workers: 3, ForceParallel: true})
		if err != nil {
			t.Fatalf("parallel parse rejected accepted input %q: %v", in, err)
		}
		if !m.Equal(pm, 0) {
			t.Fatalf("parallel parse differs for %q", in)
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, m); err != nil {
			t.Fatalf("write failed for parsed input: %v", err)
		}
		back, err := ReadMatrixMarket[float64](&buf)
		if err != nil {
			t.Fatalf("reparse failed: %v", err)
		}
		if !m.Equal(back, 0) {
			t.Fatalf("round trip unstable for %q", in)
		}
	})
}

// checkFastLines fails when mmFastLine reads a line of in other than
// to the end of that line, or to an entry parseMMLine does not give
// the line, for either kind of field.
func checkFastLines(t *testing.T, in string) {
	t.Helper()
	for _, field := range []string{"real", "pattern"} {
		// Dimensions above any index the fast path reads, so only its
		// own i, j ≥ 1 condition decides whether the reader keeps the
		// entry.
		hdr := mmHeader{field: field, symmetry: "general", rows: 1 << 40, cols: 1 << 40}
		for data := []byte(in); len(data) > 0; {
			line, rest := data, []byte(nil)
			if k := bytes.IndexByte(data, '\n'); k >= 0 {
				line, rest = data[:k], data[k+1:]
			}
			i, j, v, n, ok := mmFastLine(data, field == "pattern")
			if ok && i >= 1 && j >= 1 {
				if n != len(data)-len(rest) {
					t.Fatalf("%s line %q: fast path read %d bytes of %d", field, line, n, len(data)-len(rest))
				}
				si, sj, sv, skip, err := parseMMLine(line, hdr)
				if err != nil || skip || si != i || sj != j || math.Float64bits(sv) != math.Float64bits(v) {
					t.Fatalf("%s line %q: fast path (%d, %d, %#x), general parser (%d, %d, %#x) skip=%v err=%v",
						field, line, i, j, math.Float64bits(v), si, sj, math.Float64bits(sv), skip, err)
				}
			}
			data = rest
		}
	}
}

// FuzzReadBinary hardens the binary container parser against arbitrary
// bytes (it must never panic or allocate absurdly).
func FuzzReadBinary(f *testing.F) {
	m := randomCSR(5, 5, 0.4, 73)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("PJDSCSR1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, m); err != nil {
			t.Fatalf("write failed: %v", err)
		}
		back, err := ReadBinary(&out)
		if err != nil || !m.Equal(back, 0) {
			t.Fatal("binary round trip unstable")
		}
	})
}
