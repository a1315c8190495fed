package matrix

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// withChunkBytes shrinks the parser block size so small fixtures
// exercise the multi-chunk path.
func withChunkBytes(t *testing.T, n int) {
	t.Helper()
	old := mmChunkBytes
	mmChunkBytes = n
	t.Cleanup(func() { mmChunkBytes = old })
}

// TestReadMatrixMarketOptWorkerDeterminism round-trips a random matrix
// through the writer and the chunked reader at worker counts 1..8 and
// tiny chunk sizes: every combination must reproduce the matrix
// bit-identically.
func TestReadMatrixMarketOptWorkerDeterminism(t *testing.T) {
	m := randomCSR(80, 60, 0.05, 21)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{16, 64, 1 << 20} {
		withChunkBytes(t, chunk)
		for w := 1; w <= 8; w++ {
			got, st, err := ReadMatrixMarketOpt[float64](bytes.NewReader(buf.Bytes()),
				ConvertOptions{Workers: w, ForceParallel: true})
			if err != nil {
				t.Fatalf("chunk=%d workers=%d: %v", chunk, w, err)
			}
			csrBitIdentical(t, "round trip", m, got)
			if st.HeaderNnz != m.Nnz() || int(st.Entries) != m.Nnz() {
				t.Fatalf("stats: header %d entries %d, want %d", st.HeaderNnz, st.Entries, m.Nnz())
			}
			if chunk == 16 && st.Chunks < 2 {
				t.Fatalf("chunk=16 parsed in %d chunk(s); multi-chunk path not exercised", st.Chunks)
			}
		}
	}
}

func TestReadMatrixMarketSymmetricPattern(t *testing.T) {
	withChunkBytes(t, 24)
	in := "%%MatrixMarket matrix coordinate pattern symmetric\n" +
		"3 3 3\n2 1\n3 3\n3 1\n"
	m, st, err := ReadMatrixMarketOpt[float64](strings.NewReader(in), ConvertOptions{Workers: 3, ForceParallel: true})
	if err != nil {
		t.Fatal(err)
	}
	// 3 entries, two off-diagonal → 5 stored after expansion.
	if m.Nnz() != 5 || st.Entries != 5 {
		t.Fatalf("nnz = %d stats %d, want 5", m.Nnz(), st.Entries)
	}
	for _, at := range [][2]int{{1, 0}, {0, 1}, {2, 2}, {2, 0}, {0, 2}} {
		if m.At(at[0], at[1]) != 1 {
			t.Fatalf("At(%d,%d) = %g, want 1", at[0], at[1], m.At(at[0], at[1]))
		}
	}
}

// TestReadMatrixMarketTrailingJunk: the sequential reader stopped
// after the size-line entry count and never looked at trailing bytes;
// the chunked reader must preserve that behaviour even when the junk
// lands in a chunk that parsed entries too.
func TestReadMatrixMarketTrailingJunk(t *testing.T) {
	withChunkBytes(t, 16)
	in := "%%MatrixMarket matrix coordinate real general\n" +
		"2 2 2\n1 1 1.5\n2 2 -3\nthis is not an entry\n"
	m, _, err := ReadMatrixMarketOpt[float64](strings.NewReader(in), ConvertOptions{Workers: 4, ForceParallel: true})
	if err != nil {
		t.Fatalf("trailing junk after nnz entries must be ignored: %v", err)
	}
	if m.Nnz() != 2 || m.At(0, 0) != 1.5 || m.At(1, 1) != -3 {
		t.Fatalf("bad matrix: nnz=%d", m.Nnz())
	}
	// Extra *valid* entries beyond nnz are ignored too (old behaviour).
	in2 := "%%MatrixMarket matrix coordinate real general\n" +
		"2 2 1\n1 1 1.5\n2 2 -3\n"
	m2, _, err := ReadMatrixMarketOpt[float64](strings.NewReader(in2), ConvertOptions{})
	if err != nil || m2.Nnz() != 1 {
		t.Fatalf("entries beyond header count must be ignored: nnz=%d err=%v", m2.Nnz(), err)
	}
}

// TestReadMatrixMarketErrors keeps the sequential reader's error table
// green through the chunked rewrite.
func TestReadMatrixMarketErrorsChunked(t *testing.T) {
	withChunkBytes(t, 16)
	cases := map[string]string{
		"empty":          "",
		"bad header":     "%%MatrixMarket tensor coordinate real general\n1 1 1\n1 1 1\n",
		"bad field":      "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1\n",
		"bad symmetry":   "%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n1 1 1\n",
		"bad size":       "%%MatrixMarket matrix coordinate real general\nx y z\n",
		"negative size":  "%%MatrixMarket matrix coordinate real general\n-1 2 1\n1 1 1\n",
		"truncated":      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",
		"entry range":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
		"short entry":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
		"bad value":      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n",
		"bad row index":  "%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1\n",
		"bad col index":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1\n",
		"rect symmetric": "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1\n",
		"huge dims":      "%%MatrixMarket matrix coordinate real general\n1000000000 1000000000 1\n1 1 1\n",
	}
	for name, in := range cases {
		for _, w := range []int{1, 4} {
			if _, _, err := ReadMatrixMarketOpt[float64](strings.NewReader(in), ConvertOptions{Workers: w, ForceParallel: true}); err == nil {
				t.Errorf("%s (workers=%d): no error", name, w)
			}
		}
	}
}

func TestReadMatrixMarketCRLFAndComments(t *testing.T) {
	withChunkBytes(t, 16)
	in := "%%MatrixMarket matrix coordinate real general\r\n" +
		"% a comment\r\n\r\n2 2 2\r\n1 1 1.5\r\n% mid-stream comment\r\n2 2 -3\r\n"
	m, _, err := ReadMatrixMarketOpt[float64](strings.NewReader(in), ConvertOptions{Workers: 2, ForceParallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Nnz() != 2 || m.At(0, 0) != 1.5 {
		t.Fatalf("CRLF parse: nnz=%d", m.Nnz())
	}
}

func TestReadMatrixMarketIntegerNoFinalNewline(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 2 7\n2 1 -4"
	m, _, err := ReadMatrixMarketOpt[float64](strings.NewReader(in), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 7 || m.At(1, 0) != -4 {
		t.Fatal("integer parse")
	}
}

func TestReadMatrixMarketZeroNnz(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n3 3 0\n"
	m, _, err := ReadMatrixMarketOpt[float64](strings.NewReader(in), ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NRows != 3 || m.Nnz() != 0 {
		t.Fatalf("zero-nnz: %dx%d nnz=%d", m.NRows, m.NCols, m.Nnz())
	}
}

// parityWant is a reader result: the error text, or the CSR with its
// values as float64 bits.
type parityWant struct {
	err        string
	rows, cols int
	rowPtr     []int
	colIdx     []int32
	val        []uint64
}

// TestReadMatrixMarketAcceptanceParity pins the reader's result on
// inputs that straddle the one-pass fast path and the general per-line
// parser: signs, extra tokens, CRLF, tabs, leading blanks, non-decimal
// and out-of-range values, long mantissas, other fields, a symmetric
// file, and streams that are unsorted, hold duplicates or end in
// garbage. The expected values were produced by the reader before it
// had a fast path (strconv.ParseFloat on every value, counting-pass
// assembly for every stream); every worker count and block size must
// reproduce them.
func TestReadMatrixMarketAcceptanceParity(t *testing.T) {
	cases := []struct {
		name, in string
		want     parityWant
	}{
		{"plus signs", "%%MatrixMarket matrix coordinate real general\n2 2 2\n+1 +2 3\n2 1 +4.5\n", parityWant{rows: 2, cols: 2, rowPtr: []int{0, 1, 2}, colIdx: []int32{1, 0}, val: []uint64{0x4008000000000000, 0x4012000000000000}}},
		{"trailing token", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5 extra\n2 2 -3\n", parityWant{rows: 2, cols: 2, rowPtr: []int{0, 1, 2}, colIdx: []int32{0, 1}, val: []uint64{0x3ff8000000000000, 0xc008000000000000}}},
		{"crlf", "%%MatrixMarket matrix coordinate real general\r\n2 2 2\r\n1 1 1.5\r\n2 2 -3\r\n", parityWant{rows: 2, cols: 2, rowPtr: []int{0, 1, 2}, colIdx: []int32{0, 1}, val: []uint64{0x3ff8000000000000, 0xc008000000000000}}},
		{"tabs", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1\t1\t1.5\n2\t\t2 \t-3\t\n", parityWant{rows: 2, cols: 2, rowPtr: []int{0, 1, 2}, colIdx: []int32{0, 1}, val: []uint64{0x3ff8000000000000, 0xc008000000000000}}},
		{"leading spaces", "%%MatrixMarket matrix coordinate real general\n2 2 2\n  1 1 1.5\n\t2 2 -3\n", parityWant{rows: 2, cols: 2, rowPtr: []int{0, 1, 2}, colIdx: []int32{0, 1}, val: []uint64{0x3ff8000000000000, 0xc008000000000000}}},
		{"inf", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 inf\n2 2 -Inf\n", parityWant{rows: 2, cols: 2, rowPtr: []int{0, 1, 2}, colIdx: []int32{0, 1}, val: []uint64{0x7ff0000000000000, 0xfff0000000000000}}},
		{"nan", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 NaN\n", parityWant{rows: 1, cols: 1, rowPtr: []int{0, 1}, colIdx: []int32{0}, val: []uint64{0x7ff8000000000001}}},
		{"hex", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 0x1p-2\n", parityWant{rows: 1, cols: 1, rowPtr: []int{0, 1}, colIdx: []int32{0}, val: []uint64{0x3fd0000000000000}}},
		{"underscore", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1_0\n", parityWant{rows: 1, cols: 1, rowPtr: []int{0, 1}, colIdx: []int32{0}, val: []uint64{0x4024000000000000}}},
		{"20 digits", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 12345678901234567891\n2 2 0.10000000000000000555\n", parityWant{rows: 2, cols: 2, rowPtr: []int{0, 1, 2}, colIdx: []int32{0, 1}, val: []uint64{0x43e56a95319d63e1, 0x3fb999999999999a}}},
		{"1e-400", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e-400\n", parityWant{rows: 1, cols: 1, rowPtr: []int{0, 1}, colIdx: []int32{0}, val: []uint64{0x0}}},
		{"1e400", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e400\n", parityWant{err: "matrix: bad value \"1e400\": strconv.ParseFloat: parsing \"1e400\": value out of range"}},
		{"subnormal", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4.9e-324\n2 2 2.2250738585072011e-308\n", parityWant{rows: 2, cols: 2, rowPtr: []int{0, 1, 2}, colIdx: []int32{0, 1}, val: []uint64{0x1, 0xfffffffffffff}}},
		{"negative zero", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 -0\n2 2 -0.0e5\n", parityWant{rows: 2, cols: 2, rowPtr: []int{0, 1, 2}, colIdx: []int32{0, 1}, val: []uint64{0x8000000000000000, 0x8000000000000000}}},
		{"integer", "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 2 7\n2 1 -4\n", parityWant{rows: 2, cols: 2, rowPtr: []int{0, 1, 2}, colIdx: []int32{1, 0}, val: []uint64{0x401c000000000000, 0xc010000000000000}}},
		{"pattern", "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n", parityWant{rows: 2, cols: 2, rowPtr: []int{0, 1, 2}, colIdx: []int32{1, 0}, val: []uint64{0x3ff0000000000000, 0x3ff0000000000000}}},
		{"symmetric", "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2\n2 1 -1.5\n3 2 0.25\n", parityWant{rows: 3, cols: 3, rowPtr: []int{0, 2, 4, 5}, colIdx: []int32{0, 1, 0, 2, 1}, val: []uint64{0x4000000000000000, 0xbff8000000000000, 0xbff8000000000000, 0x3fd0000000000000, 0x3fd0000000000000}}},
		{"unsorted", "%%MatrixMarket matrix coordinate real general\n3 3 3\n2 1 1\n1 2 2\n1 1 3\n", parityWant{rows: 3, cols: 3, rowPtr: []int{0, 2, 3, 3}, colIdx: []int32{0, 1, 0}, val: []uint64{0x4008000000000000, 0x4000000000000000, 0x3ff0000000000000}}},
		{"duplicates", "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n1 1 2.5\n2 2 1\n", parityWant{rows: 2, cols: 2, rowPtr: []int{0, 1, 2}, colIdx: []int32{0, 1}, val: []uint64{0x400c000000000000, 0x3ff0000000000000}}},
		{"trailing garbage", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n2 2 -3\nthis is not an entry\n", parityWant{rows: 2, cols: 2, rowPtr: []int{0, 1, 2}, colIdx: []int32{0, 1}, val: []uint64{0x3ff8000000000000, 0xc008000000000000}}},
		{"row zero", "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n", parityWant{err: "matrix: entry (0,1) outside 2x2"}},
		{"row out of range", "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n", parityWant{err: "matrix: entry (3,1) outside 2x2"}},
		{"long index", "%%MatrixMarket matrix coordinate real general\n2 2 1\n00000000001 1 1\n", parityWant{rows: 2, cols: 2, rowPtr: []int{0, 1, 1}, colIdx: []int32{0}, val: []uint64{0x3ff0000000000000}}},
		{"empty rows", "%%MatrixMarket matrix coordinate real general\n5 4 3\n2 1 1e-5\n2 4 .5\n4 3 5.\n", parityWant{rows: 5, cols: 4, rowPtr: []int{0, 0, 2, 2, 3, 3}, colIdx: []int32{0, 3, 2}, val: []uint64{0x3ee4f8b588e368f1, 0x3fe0000000000000, 0x4014000000000000}}},
	}
	for _, chunk := range []int{16, 1 << 20} {
		withChunkBytes(t, chunk)
		for _, c := range cases {
			for w := 1; w <= 3; w++ {
				m, _, err := ReadMatrixMarketOpt[float64](strings.NewReader(c.in), ConvertOptions{Workers: w, ForceParallel: true})
				var got parityWant
				if err != nil {
					got.err = err.Error()
				} else {
					got = parityWant{rows: m.NRows, cols: m.NCols, rowPtr: m.RowPtr, colIdx: m.ColIdx}
					for _, v := range m.Val {
						got.val = append(got.val, math.Float64bits(v))
					}
				}
				if !reflect.DeepEqual(got, c.want) {
					t.Errorf("%s (chunk=%d workers=%d):\n got %+v\nwant %+v", c.name, chunk, w, got, c.want)
				}
			}
		}
	}
}

// phaseLog records the names of the conversion phases a read runs.
type phaseLog []string

func (p *phaseLog) Phase(name string) func() {
	*p = append(*p, name)
	return func() {}
}

func (p phaseLog) has(name string) bool {
	for _, n := range p {
		if n == name {
			return true
		}
	}
	return false
}

// TestReadMatrixMarketSortedStreamCopies: a general stream whose
// entries strictly increase in (row, col), as WriteMatrixMarket writes
// them, is assembled by copying; the same lines shuffled, or with a
// duplicate, go through the counting-pass assembly. Each must
// reproduce the matrix at every worker count and block size. Valid but
// out-of-order entries beyond the size-line count are ignored and do
// not leave the copy path.
func TestReadMatrixMarketSortedStreamCopies(t *testing.T) {
	m := randomCSR(300, 200, 0.01, 5)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	sorted := buf.String()
	lines := strings.SplitAfter(sorted, "\n")
	head, body := lines[:2], lines[2:len(lines)-1]
	rng := rand.New(rand.NewSource(9))
	shuffled := append([]string(nil), body...)
	rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	// A zero entry ahead of the first one duplicates it; the sum is the
	// original value.
	f := strings.Fields(body[0])
	dup := append([]string{f[0] + " " + f[1] + " 0\n"}, body...)
	header := func(nnz int) string {
		return head[0] + strconv.Itoa(m.NRows) + " " + strconv.Itoa(m.NCols) + " " + strconv.Itoa(nnz) + "\n"
	}
	docs := []struct {
		name, doc string
		copied    bool
	}{
		{"sorted", sorted, true},
		{"sorted+tail", sorted + body[len(body)-1] + body[0], true},
		{"shuffled", head[0] + head[1] + strings.Join(shuffled, ""), false},
		{"duplicate", header(len(dup)) + strings.Join(dup, ""), false},
	}
	// 16-byte blocks hold about one line each, so only the checks
	// between blocks can see the shuffle.
	for _, chunk := range []int{16, 64, 1 << 20} {
		withChunkBytes(t, chunk)
		for _, d := range docs {
			for w := 1; w <= 3; w++ {
				var log phaseLog
				got, _, err := ReadMatrixMarketOpt[float64](strings.NewReader(d.doc),
					ConvertOptions{Workers: w, ForceParallel: true, Timer: &log})
				if err != nil {
					t.Fatalf("%s chunk=%d workers=%d: %v", d.name, chunk, w, err)
				}
				csrBitIdentical(t, d.name, m, got)
				if log.has("csr-copy") != d.copied || log.has("csr-scatter") == d.copied {
					t.Fatalf("%s chunk=%d workers=%d: phases %v, copy path expected %v", d.name, chunk, w, log, d.copied)
				}
			}
		}
	}
}
