package matrix

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pjds/internal/profiles"
)

// This file implements the chunked, parallel MatrixMarket reader: the
// stream is cut into blocks of whole lines, a worker pool parses each
// block into flat (row, col, val) triples, and the ordered per-chunk
// triples become the CSR. Ingest is dominated by number parsing, which
// this parallelizes while keeping the result bit-identical to a
// sequential parse: chunks are merged strictly in stream order.
//
// A line of the plain shape writers emit ("i j value" in ASCII digits)
// is parsed in one pass, its value by the decimal fast path of
// mmvalue.go; any other line, and any value the fast path declines,
// goes through the general per-line parser, which alone decides what
// is accepted and every error. A general stream whose first nnz
// entries strictly increase in (row, col) — what WriteMatrixMarket
// writes — is already in CSR order and is copied into place; every
// other stream goes through the counting-pass assembly of convert.go.

// mmChunkBytes is the target parser block size: small enough that a
// 2 MB upload gives both workers of a 2-CPU host several blocks, large
// enough that handing a block to a worker costs nothing next to
// parsing it. A variable so the tests can force multi-chunk parsing of
// small fixtures.
var mmChunkBytes = 256 << 10

// ReadStats reports what the chunked reader saw; cmd/matinfo streams
// these instead of materializing a COO copy of the file.
type ReadStats struct {
	// Rows, Cols, HeaderNnz echo the size line.
	Rows, Cols, HeaderNnz int
	// Entries is the number of stored entries after symmetric
	// expansion (what the CSR holds before duplicate summing).
	Entries int64
	// Chunks is the number of parser blocks and Workers the resolved
	// worker count.
	Chunks, Workers int
}

// mmHeader carries the parsed header and size line.
type mmHeader struct {
	field, symmetry string
	rows, cols, nnz int
}

// mmTriples is one parsed chunk: flat triple arrays in stream order.
// err reports the first malformed line; row/col/val hold the entries
// parsed before it.
type mmTriples[T Float] struct {
	row, col []int32
	val      []T
	err      error
	// sorted is the length of the prefix whose entries strictly
	// increase in (row, col).
	sorted int
}

// ReadMatrixMarketOpt parses a MatrixMarket coordinate stream into
// CSR with explicit conversion options. Supported qualifiers and
// semantics match ReadMatrixMarket: real/integer/pattern ×
// general/symmetric, pattern entries get value 1, symmetric files are
// expanded to full storage, entries beyond the size-line count are
// ignored. The result is bit-identical for every worker count.
func ReadMatrixMarketOpt[T Float](r io.Reader, opt ConvertOptions) (*CSR[T], ReadStats, error) {
	// Label the coordinating goroutine for the ingest stage; the
	// parser worker goroutines spawned below inherit the label.
	profiles.SetPhase(profiles.PhaseConvert)
	br := bufio.NewReaderSize(r, 1<<16)
	var st ReadStats
	hdr, err := readMMHeader(br)
	if err != nil {
		return nil, st, err
	}
	st.Rows, st.Cols, st.HeaderNnz = hdr.rows, hdr.cols, hdr.nnz
	st.Workers = opt.EffectiveWorkers()

	done := opt.Phase("mm-parse")
	chunks, err := parseMMChunks[T](br, hdr, opt)
	done()
	if err != nil {
		return nil, st, err
	}
	st.Chunks = len(chunks)

	// Enforce the size-line entry count in stream order: a chunk error
	// only matters if it occurs within the first nnz entries (the
	// sequential reader stopped reading after nnz entries and never saw
	// trailing garbage).
	seen := 0
	for _, c := range chunks {
		seen += len(c.row)
		if c.err != nil && seen < hdr.nnz {
			return nil, st, c.err
		}
		if c.err != nil {
			break
		}
	}
	if seen < hdr.nnz {
		return nil, st, fmt.Errorf("matrix: MatrixMarket stream truncated: %d of %d entries", seen, hdr.nnz)
	}

	if hdr.symmetry == "general" && mmRowSorted(chunks, hdr.nnz) {
		m := copyCSR(hdr.rows, hdr.cols, hdr.nnz, chunks, opt)
		st.Entries = int64(m.Nnz())
		return m, st, nil
	}
	sym := hdr.symmetry == "symmetric"
	limit := hdr.nnz
	src := func(yield func(int, int32, T)) {
		left := limit
		for _, c := range chunks {
			n := len(c.row)
			if n > left {
				n = left
			}
			for k := 0; k < n; k++ {
				i, j := c.row[k], c.col[k]
				yield(int(i), j, c.val[k])
				if sym && i != j {
					yield(int(j), i, c.val[k])
				}
			}
			left -= n
			if left == 0 {
				break
			}
		}
	}
	m := assembleCSR(hdr.rows, hdr.cols, hdr.nnz, src, opt)
	st.Entries = int64(m.Nnz())
	return m, st, nil
}

// mmKey orders entries by (row, col).
func mmKey(row, col int32) int64 { return int64(row)<<32 | int64(col) }

// mmRowSorted reports whether the stream's first nnz entries strictly
// increase in (row, col): they are then already in CSR order, with no
// duplicates to sum.
func mmRowSorted[T Float](chunks []*mmTriples[T], nnz int) bool {
	left, last := nnz, int64(-1)
	for _, c := range chunks {
		n := min(len(c.row), left)
		if n == 0 {
			continue
		}
		if c.sorted < n || mmKey(c.row[0], c.col[0]) <= last {
			return false
		}
		last = mmKey(c.row[n-1], c.col[n-1])
		left -= n
	}
	return true
}

// copyCSR assembles the CSR of a row-sorted stream (mmRowSorted): its
// first nnz entries are ColIdx and Val in order, so workers copy them
// out of the chunks, and each entry that starts a row sets RowPtr for
// that row and any empty rows before it. The result is what
// assembleCSR builds from the same stream, without its scatter and
// per-row sorts.
func copyCSR[T Float](rows, cols, nnz int, chunks []*mmTriples[T], opt ConvertOptions) *CSR[T] {
	done := opt.Phase("csr-copy")
	defer done()
	// ends[c] is the stream position after chunk c.
	ends := make([]int, len(chunks))
	pos := 0
	for c, ch := range chunks {
		pos += len(ch.row)
		ends[c] = pos
	}
	rowPtr := make([]int, rows+1)
	colIdx := make([]int32, nnz)
	val := make([]T, nnz)
	// locate returns the chunk holding stream position p and p's index
	// in it.
	locate := func(p int) (int, int) {
		c := sort.SearchInts(ends, p+1)
		return c, p - (ends[c] - len(chunks[c].row))
	}
	opt.Run(nnz, func(_, lo, hi int) {
		// Rows up to the previous entry's belong to earlier positions.
		prev := int32(-1)
		if lo > 0 {
			c, k := locate(lo - 1)
			prev = chunks[c].row[k]
		}
		for c, k := locate(lo); lo < hi; c, k = c+1, 0 {
			ch := chunks[c]
			n := min(len(ch.row)-k, hi-lo)
			copy(colIdx[lo:lo+n], ch.col[k:k+n])
			copy(val[lo:lo+n], ch.val[k:k+n])
			for e, r := range ch.row[k : k+n] {
				for q := prev + 1; q <= r; q++ {
					rowPtr[q] = lo + e
				}
				prev = r
			}
			lo += n
		}
	})
	last := -1
	if nnz > 0 {
		c, k := locate(nnz - 1)
		last = int(chunks[c].row[k])
	}
	for q := last + 1; q <= rows; q++ {
		rowPtr[q] = nnz
	}
	return &CSR[T]{NRows: rows, NCols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// readMMHeader parses the banner, comments, and size line.
func readMMHeader(br *bufio.Reader) (mmHeader, error) {
	var h mmHeader
	line, err := readMMLine(br)
	if err != nil {
		return h, fmt.Errorf("matrix: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(line))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return h, fmt.Errorf("matrix: unsupported MatrixMarket header %q", line)
	}
	h.field = header[3]
	h.symmetry = "general"
	if len(header) >= 5 {
		h.symmetry = header[4]
	}
	switch h.field {
	case "real", "integer", "pattern":
	default:
		return h, fmt.Errorf("matrix: unsupported MatrixMarket field %q", h.field)
	}
	switch h.symmetry {
	case "general", "symmetric":
	default:
		return h, fmt.Errorf("matrix: unsupported MatrixMarket symmetry %q", h.symmetry)
	}

	// Skip comments and blank lines, read the size line.
	for {
		line, err = readMMLine(br)
		if err != nil {
			return h, fmt.Errorf("matrix: MatrixMarket stream missing size line")
		}
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "%") {
			continue
		}
		f := strings.Fields(t)
		if len(f) < 3 {
			return h, fmt.Errorf("matrix: bad MatrixMarket size line %q", t)
		}
		var errs [3]error
		h.rows, errs[0] = strconv.Atoi(f[0])
		h.cols, errs[1] = strconv.Atoi(f[1])
		h.nnz, errs[2] = strconv.Atoi(f[2])
		for _, e := range errs {
			if e != nil {
				return h, fmt.Errorf("matrix: bad MatrixMarket size line %q: %v", t, e)
			}
		}
		break
	}
	if h.rows <= 0 || h.cols <= 0 || h.nnz < 0 {
		return h, fmt.Errorf("matrix: bad MatrixMarket dimensions %dx%d nnz=%d", h.rows, h.cols, h.nnz)
	}
	if h.symmetry == "symmetric" && h.rows != h.cols {
		return h, fmt.Errorf("matrix: symmetric MatrixMarket file must be square, got %dx%d", h.rows, h.cols)
	}
	// Refuse sizes whose index arrays alone would exceed ~2 GiB: no
	// published sparse matrix comes close, and unguarded headers would
	// let a malformed file drive allocation to OOM.
	const maxDim = 1 << 28
	if h.rows > maxDim || h.cols > maxDim || h.nnz > maxDim {
		return h, fmt.Errorf("matrix: MatrixMarket dimensions %dx%d nnz=%d exceed the %d limit", h.rows, h.cols, h.nnz, maxDim)
	}
	return h, nil
}

// readMMLine reads one line (without the trailing newline); io.EOF
// with partial content still returns the content.
func readMMLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil && line == "" {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// parseMMChunks cuts the remaining stream into whole-line blocks and
// parses them on a worker pool, returning the chunks in stream order.
func parseMMChunks[T Float](br *bufio.Reader, hdr mmHeader, opt ConvertOptions) ([]*mmTriples[T], error) {
	workers := opt.EffectiveWorkers()
	blocks := mmBlockReader{r: br}
	if workers <= 1 {
		var chunks []*mmTriples[T]
		var buf []byte
		for {
			block, err := blocks.next(buf)
			if err != nil && err != io.EOF {
				return nil, err
			}
			if len(block) > 0 {
				chunks = append(chunks, parseMMChunk[T](block, hdr))
			}
			if err == io.EOF {
				return chunks, nil
			}
			buf = block
		}
	}

	type job struct {
		idx  int
		data []byte
	}
	var (
		chunks []*mmTriples[T]
		mu     sync.Mutex
		wg     sync.WaitGroup
	)
	// Block buffers circulate between the reader and the workers: at
	// most one being parsed per worker, one queued per worker, and one
	// being filled, so a long stream reuses 2·workers+1 buffers.
	jobs := make(chan job, workers)
	free := make(chan []byte, 2*workers+1)
	for i := 0; i < cap(free); i++ {
		free <- nil
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				t := parseMMChunk[T](j.data, hdr)
				free <- j.data
				mu.Lock()
				for len(chunks) <= j.idx {
					chunks = append(chunks, nil)
				}
				chunks[j.idx] = t
				mu.Unlock()
			}
		}()
	}

	var err error
	for idx := 0; ; {
		var block []byte
		block, err = blocks.next(<-free)
		if err != nil && err != io.EOF {
			break
		}
		if len(block) > 0 {
			jobs <- job{idx, block}
			idx++
		}
		if err == io.EOF {
			err = nil
			break
		}
	}
	close(jobs)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return chunks, nil
}

// mmBlockReader cuts a stream into blocks of whole lines.
type mmBlockReader struct {
	r     io.Reader
	carry []byte // the partial line after the previous block's last newline
}

// next fills buf's storage with the carried partial line plus about
// mmChunkBytes more bytes and returns the block up to its last
// newline, carrying the rest to the next call. A line longer than the
// block grows it. The last block, returned with io.EOF, ends where the
// stream does, with or without a newline.
func (b *mmBlockReader) next(buf []byte) ([]byte, error) {
	buf = append(buf[:0], b.carry...)
	for {
		buf = slices.Grow(buf, mmChunkBytes)
		n, err := io.ReadFull(b.r, buf[len(buf):len(buf)+mmChunkBytes])
		buf = buf[:len(buf)+n]
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			b.carry = b.carry[:0]
			return buf, io.EOF
		default:
			return buf, err
		}
		if k := bytes.LastIndexByte(buf, '\n'); k >= 0 {
			b.carry = append(b.carry[:0], buf[k+1:]...)
			return buf[:k+1], nil
		}
	}
}

// parseMMChunk parses one block of whole lines into flat triples. It
// validates index ranges against the header dimensions and stops at
// the first malformed line, recording it in err.
func parseMMChunk[T Float](data []byte, hdr mmHeader) *mmTriples[T] {
	// Exact preallocation: one potential entry per line.
	lines := bytes.Count(data, []byte{'\n'}) + 1
	t := &mmTriples[T]{
		row: make([]int32, 0, lines),
		col: make([]int32, 0, lines),
		val: make([]T, 0, lines),
	}
	t.err = t.parse(data, hdr)
	t.sorted = len(t.row)
	for k := 1; k < len(t.row); k++ {
		if mmKey(t.row[k], t.col[k]) <= mmKey(t.row[k-1], t.col[k-1]) {
			t.sorted = k
			break
		}
	}
	return t
}

// parse appends the entries of data's lines to t. A line of the plain
// shape mmFastLine reads is parsed in one pass; every other line goes
// through parseMMLine, which defines what is accepted and every error.
func (t *mmTriples[T]) parse(data []byte, hdr mmHeader) error {
	pattern := hdr.field == "pattern"
	for len(data) > 0 {
		if i, j, v, n, ok := mmFastLine(data, pattern); ok && i >= 1 && i <= hdr.rows && j >= 1 && j <= hdr.cols {
			t.row = append(t.row, int32(i-1))
			t.col = append(t.col, int32(j-1))
			t.val = append(t.val, T(v))
			data = data[n:]
			continue
		}
		var line []byte
		if k := bytes.IndexByte(data, '\n'); k >= 0 {
			line, data = data[:k], data[k+1:]
		} else {
			line, data = data, nil
		}
		i, j, v, skip, err := parseMMLine(line, hdr)
		if err != nil {
			return err
		}
		if skip {
			continue
		}
		t.row = append(t.row, int32(i-1))
		t.col = append(t.col, int32(j-1))
		t.val = append(t.val, T(v))
	}
	return nil
}

// mmFastLine parses the entry line at the start of data when it has
// the plain shape writers emit: row and column as unsigned decimal
// integers of at most 10 digits and, unless pattern, a value
// parseMMValue converts, separated by spaces or tabs and followed by
// nothing but spaces, tabs or '\r' up to the newline or the end of
// data. It returns the indices as written, the value and the length of
// the line with its newline; ok is false for any other line. Every
// line it accepts, parseMMLine parses to the same entry.
func mmFastLine(data []byte, pattern bool) (i, j int, v float64, n int, ok bool) {
	i, p := mmIndex(data, 0)
	if p == 0 {
		return
	}
	q := mmBlanks(data, p)
	if q == p {
		return
	}
	if j, p = mmIndex(data, q); p == q {
		return
	}
	v = 1
	if !pattern {
		if q = mmBlanks(data, p); q == p {
			return
		}
		var m int
		if v, m, ok = parseMMValue(data[q:]); !ok {
			return
		}
		p = q + m
	}
	for p < len(data) && (data[p] == ' ' || data[p] == '\t' || data[p] == '\r') {
		p++
	}
	switch {
	case p == len(data):
		return i, j, v, p, true
	case data[p] == '\n':
		return i, j, v, p + 1, true
	}
	return 0, 0, 0, 0, false
}

// mmIndex reads the decimal digits at data[p:] and returns their value
// and the position after them. It reads none (returning p) when there
// are none or more than 10, which keeps the value below mmAtoi's limit.
func mmIndex(data []byte, p int) (int, int) {
	x, k := 0, p
	for k < len(data) && data[k]-'0' <= 9 {
		x = x*10 + int(data[k]-'0')
		k++
	}
	if k-p > 10 {
		return 0, p
	}
	return x, k
}

// mmBlanks returns the position after the spaces and tabs at data[p:].
func mmBlanks(data []byte, p int) int {
	for p < len(data) && (data[p] == ' ' || data[p] == '\t') {
		p++
	}
	return p
}

// parseMMLine is the general per-line parser: it trims the line, skips
// blank and comment lines (skip), and otherwise reads the row, the
// column and, unless the field is pattern, the value with
// strconv.ParseFloat, ignoring any further tokens. It returns the first
// problem as err, including indices outside the header dimensions.
func parseMMLine(line []byte, hdr mmHeader) (i, j int, v float64, skip bool, err error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 || line[0] == '%' {
		return 0, 0, 0, true, nil
	}
	f0, rest := mmToken(line)
	f1, rest := mmToken(rest)
	i, ok0 := mmAtoi(f0)
	j, ok1 := mmAtoi(f1)
	if !ok0 {
		return 0, 0, 0, false, fmt.Errorf("matrix: bad row index %q", string(f0))
	}
	if !ok1 {
		if len(f1) == 0 {
			return 0, 0, 0, false, fmt.Errorf("matrix: short MatrixMarket entry %q", string(line))
		}
		return 0, 0, 0, false, fmt.Errorf("matrix: bad column index %q", string(f1))
	}
	v = 1.0
	if hdr.field != "pattern" {
		f2, _ := mmToken(rest)
		if len(f2) == 0 {
			return 0, 0, 0, false, fmt.Errorf("matrix: short MatrixMarket entry %q", string(line))
		}
		v, err = strconv.ParseFloat(string(f2), 64)
		if err != nil {
			return 0, 0, 0, false, fmt.Errorf("matrix: bad value %q: %v", string(f2), err)
		}
	}
	if i < 1 || i > hdr.rows || j < 1 || j > hdr.cols {
		return 0, 0, 0, false, fmt.Errorf("matrix: entry (%d,%d) outside %dx%d", i, j, hdr.rows, hdr.cols)
	}
	return i, j, v, false, nil
}

// mmToken splits the next whitespace-delimited token off line.
func mmToken(line []byte) (tok, rest []byte) {
	i := 0
	for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
		i++
	}
	j := i
	for j < len(line) && line[j] != ' ' && line[j] != '\t' && line[j] != '\r' {
		j++
	}
	return line[i:j], line[j:]
}

// mmAtoi parses a (possibly signed) decimal integer.
func mmAtoi(tok []byte) (int, bool) {
	if len(tok) == 0 {
		return 0, false
	}
	i, neg := 0, false
	if tok[0] == '+' || tok[0] == '-' {
		neg = tok[0] == '-'
		i++
	}
	if i == len(tok) {
		return 0, false
	}
	n := 0
	for ; i < len(tok); i++ {
		c := tok[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
		if n > 1<<40 {
			return 0, false
		}
	}
	if neg {
		n = -n
	}
	return n, true
}
