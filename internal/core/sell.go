package core

import (
	"fmt"
	"slices"

	"pjds/internal/matrix"
)

// WarpSize is the SIMD width of the Fermi GPUs the paper targets; the
// ELLPACK row dimension is padded to a multiple of it (§II-A,
// footnote 2).
const WarpSize = 32

// Preset tags which of the paper's storage formats a SELL layout
// reproduces. All presets share the chunk-major storage of SELL; a
// preset fixes only what differs between the formats on the device:
// kernel name, footprint, metadata segments per warp, whether lanes run
// to MaxRowLen, and the modelled address of element (i, j).
//
//	preset     C       σ   meta segs  device address
//	ELLPACK    N_pad   1   0          chunk-major, lanes run to MaxRowLen
//	ELLPACK-R  N_pad   1   1          chunk-major
//	sliced ELL C       σ   2          chunk-major
//	pJDS       br      N   1          col_start[j]+i (jagged diagonals)
//	JDS        1       N   1          col_start[j]+i
type Preset uint8

const (
	// PresetSELL is SELL-C-σ, the sliced-ELLPACK family of Monakov et
	// al. and Dziekonski et al. named in the paper's outlook.
	PresetSELL Preset = iota
	// PresetELLPACK is plain ELLPACK (Fig. 2a): one chunk of N_pad rows
	// whose device lanes all run to MaxRowLen, computing on padding.
	PresetELLPACK
	// PresetELLPACKR is ELLPACK-R (Listing 1, Fig. 2b): ELLPACK storage
	// plus the rowmax[] array that stops each lane at its row length.
	PresetELLPACKR
	// PresetPJDS is the paper's pJDS (Listing 2, Fig. 2c): globally
	// sorted rows in chunks of br, addressed on the device as jagged
	// diagonals. br = 1 is the classic JDS.
	PresetPJDS
)

// phases names the conversion phases a preset records (row-length scan
// and windowed sort, chunk layout, fill), so the conversion report keeps
// one row per paper format. Consecutive equal names are one phase.
func (p Preset) phases() (scan, layout, fill string) {
	switch p {
	case PresetELLPACK, PresetELLPACKR:
		return "ellpack-fill", "ellpack-fill", "ellpack-fill"
	case PresetPJDS:
		return "pjds-pad", "pjds-pad", "pjds-fill"
	}
	return "sliced-sort", "sliced-fill", "sliced-fill"
}

// SELL is the SELL-C-σ sparse-matrix layout (Kreutzer et al.,
// arXiv:1307.6209) behind every padded format of the paper: rows are
// sorted by descending length inside windows of σ rows, cut into chunks
// of C consecutive rows, and each chunk is padded to its longest row and
// stored column-major. All slices are exported so device kernels
// (internal/gpu) can address them directly, as CUDA kernels would.
type SELL[T matrix.Float] struct {
	N     int // rows of the original matrix
	NCols int
	NPad  int // N rounded up to a multiple of C
	// Nnz is the number of genuine non-zeros (excluding padding).
	Nnz int
	// C is the chunk height (the pJDS block height br).
	C int
	// SortWindow is σ; 1 means no sorting.
	SortWindow int
	// MaxRowLen is the paper's N^max_nzr.
	MaxRowLen int
	// Preset names the paper format this layout reproduces.
	Preset Preset

	// Val and ColIdx hold each chunk's padded rectangle column-major:
	// chunk s occupies Val[SliceStart[s]:SliceStart[s+1]], and element
	// (lane, j) of the chunk is at SliceStart[s] + j*C + lane. Padding
	// entries have value 0 and the row's first column index (0 for
	// empty rows), so gathering them is always legal.
	Val    []T
	ColIdx []int32
	// SliceStart has NPad/C+1 entries.
	SliceStart []int64
	// SliceLen[s] is the padded row length of chunk s.
	SliceLen []int32
	// RowLen[i] is the true length of stored row i (the paper's
	// rowmax[]); NPad entries, zero for the padding rows.
	RowLen []int32
	// Perm maps stored row order to original rows (Perm[new]=old;
	// identity when SortWindow ≤ 1).
	Perm matrix.Perm
}

// NewSELL builds the SELL-C-σ layout of m with chunk height c and
// sorting window sigma (1 for unsorted, m.NRows for a global sort).
// c must be ≥ 1; sigma is clamped by ClampSigma. The windowed sort runs
// one stable counting sort per window, windows parallelized across
// workers; the chunk fill is parallel over rows. Every worker count
// builds the identical matrix.
func NewSELL[T matrix.Float](m *matrix.CSR[T], c, sigma int, opt matrix.ConvertOptions) (*SELL[T], error) {
	return newSELL(m, c, sigma, PresetSELL, opt)
}

// NewELLPACK builds plain ELLPACK: SELL-N_pad-1, one unsorted chunk of
// N rounded up to the warp size.
func NewELLPACK[T matrix.Float](m *matrix.CSR[T], opt matrix.ConvertOptions) *SELL[T] {
	s, _ := newSELL(m, ellpackHeight(m.NRows), 1, PresetELLPACK, opt)
	return s
}

// NewELLPACKR builds ELLPACK-R: the ELLPACK layout with its rowmax[]
// array used by the kernel.
func NewELLPACKR[T matrix.Float](m *matrix.CSR[T], opt matrix.ConvertOptions) *SELL[T] {
	s, _ := newSELL(m, ellpackHeight(m.NRows), 1, PresetELLPACKR, opt)
	return s
}

// ellpackHeight is N rounded up to the warp size (at least one warp, so
// the chunk height of an empty matrix stays valid).
func ellpackHeight(n int) int {
	return max(WarpSize, (n+WarpSize-1)/WarpSize*WarpSize)
}

// ClampSigma returns the sorting window NewSELL actually uses for chunk
// height c on n rows: at least 1, at most n, and rounded up to a
// multiple of c in between so chunks never straddle windows.
func ClampSigma(c, sigma, n int) int {
	if sigma < 1 {
		sigma = 1
	}
	if sigma > 1 && sigma < n && sigma%c != 0 {
		sigma = (sigma + c - 1) / c * c
	}
	return min(sigma, n)
}

func newSELL[T matrix.Float](m *matrix.CSR[T], c, sigma int, preset Preset, opt matrix.ConvertOptions) (*SELL[T], error) {
	s := new(SELL[T])
	if err := s.reset(m, c, sigma, preset, opt); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rebuilds s in place as the layout NewSELL(m, c, sigma, opt)
// returns, reusing the capacity of its slices: a layout sized once for
// the largest of several builds serves all of them without allocating
// its arrays again (the tuner's (C, σ) sweep). Kernels over s, and
// slices taken from it, must not be used across a Reset. On error s is
// unchanged.
func (s *SELL[T]) Reset(m *matrix.CSR[T], c, sigma int, opt matrix.ConvertOptions) error {
	return s.reset(m, c, sigma, PresetSELL, opt)
}

// reset is the one construction path of every preset. Reused slices
// are not zeroed, so every element the layout exposes is written here,
// padding included.
func (s *SELL[T]) reset(m *matrix.CSR[T], c, sigma int, preset Preset, opt matrix.ConvertOptions) error {
	if c < 1 {
		return fmt.Errorf("core: chunk height %d < 1", c)
	}
	n := m.NRows
	sigma = ClampSigma(c, sigma, n)

	scanPhase, layoutPhase, fillPhase := preset.phases()
	var perm matrix.Perm
	if preset == PresetPJDS {
		// The global sort of pJDS, parallel over rows; it records its
		// own "jds-sort" phase.
		perm = matrix.SortRowsByLengthDescOpt(m, opt)
	} else {
		perm = matrix.Resize(s.Perm, n)
		for i := range perm {
			perm[i] = i
		}
	}

	done := opt.Phase(scanPhase)
	workers := opt.EffectiveWorkers()
	// Row lengths and the global maximum, shared by the windowed sort
	// and the chunk layout below.
	lens := opt.Arena.Int(n)
	maxW := opt.Arena.Int(workers)
	opt.Run(n, func(w, lo, hi int) {
		local := 0
		for i := lo; i < hi; i++ {
			lens[i] = m.RowLen(i)
			local = max(local, lens[i])
		}
		maxW[w] = max(maxW[w], local)
	})
	maxLen := 0
	for _, v := range maxW {
		maxLen = max(maxLen, v)
	}

	if preset != PresetPJDS && sigma > 1 {
		// Windows are independent, so they distribute over workers
		// with one counting-sort scratch buffer each.
		counts := make([][]int, workers)
		for w := range counts {
			counts[w] = opt.Arena.Int(maxLen + 2)
		}
		opt.Run((n+sigma-1)/sigma, func(w, lo, hi int) {
			for win := lo; win < hi; win++ {
				matrix.SortRangeByLengthDesc(lens, win*sigma, min(win*sigma+sigma, n), perm, counts[w])
			}
		})
	}

	if layoutPhase != scanPhase {
		done()
		done = opt.Phase(layoutPhase)
	}
	npad := (n + c - 1) / c * c
	*s = SELL[T]{
		N:          n,
		NCols:      m.NCols,
		NPad:       npad,
		Nnz:        m.Nnz(),
		C:          c,
		SortWindow: sigma,
		MaxRowLen:  maxLen,
		Preset:     preset,
		Val:        s.Val,
		ColIdx:     s.ColIdx,
		SliceStart: s.SliceStart,
		SliceLen:   s.SliceLen,
		RowLen:     matrix.Resize(s.RowLen, npad),
		Perm:       perm,
	}
	opt.Run(n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			s.RowLen[i] = int32(lens[perm[i]])
		}
	})
	clear(s.RowLen[n:])

	nSlices := npad / c
	s.SliceStart = matrix.Resize(s.SliceStart, nSlices+1)
	s.SliceLen = matrix.Resize(s.SliceLen, nSlices)
	var total int64
	for sl := range s.SliceLen {
		s.SliceLen[sl] = slices.Max(s.RowLen[sl*c : sl*c+c])
		s.SliceStart[sl] = total
		total += int64(s.SliceLen[sl]) * int64(c)
	}
	s.SliceStart[nSlices] = total

	if fillPhase != layoutPhase {
		done()
		done = opt.Phase(fillPhase)
	}
	defer done()
	// Row i writes only slots base + j*c of its own lane, so rows are
	// independent and the parallel fill is byte-identical.
	s.Val = matrix.Resize(s.Val, int(total))
	s.ColIdx = matrix.Resize(s.ColIdx, int(total))
	opt.Run(n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			cols, vals := m.Row(perm[i])
			s.fillLane(i, cols, vals)
		}
	})
	// The padding rows of the last chunk hold value 0 at column 0.
	for i := n; i < npad; i++ {
		s.fillLane(i, nil, nil)
	}
	return nil
}

// fillLane stores stored row i's columns and values in its chunk lane
// and pads the lane to the chunk length with value 0 at the row's first
// column (column 0 for an empty row).
func (s *SELL[T]) fillLane(i int, cols []int32, vals []T) {
	c := s.C
	sl := i / c
	at := int(s.SliceStart[sl]) + i - sl*c
	safe := int32(0)
	if len(cols) > 0 {
		safe = cols[0]
	}
	cols = cols[:len(vals)]
	for j, v := range vals {
		s.Val[at], s.ColIdx[at] = v, cols[j]
		at += c
	}
	for j := len(vals); j < int(s.SliceLen[sl]); j++ {
		s.Val[at], s.ColIdx[at] = 0, safe
		at += c
	}
}

// Name identifies the format in reports and labels kernels and
// telemetry.
func (s *SELL[T]) Name() string {
	switch s.Preset {
	case PresetELLPACK:
		return "ELLPACK"
	case PresetELLPACKR:
		return "ELLPACK-R"
	case PresetPJDS:
		if s.C == 1 {
			return "JDS"
		}
		return "pJDS"
	}
	if s.SortWindow > 1 {
		return "sliced-ELL-sorted"
	}
	return "sliced-ELL"
}

// SELLName returns the canonical SELL-C-σ name of this layout
// ("SELL-32-∞", "SELL-8-256").
func (s *SELL[T]) SELLName() string { return SELLName(s.C, s.SortWindow, s.N) }

// SELLName renders the canonical SELL-C-σ name for chunk height c and
// sorting scope sigma on an n-row matrix: "SELL-32-∞" when the window
// covers the whole matrix (the pJDS/global-sort case), "SELL-8-256"
// otherwise.
func SELLName(c, sigma, n int) string {
	if sigma >= n && n > 0 {
		return fmt.Sprintf("SELL-%d-∞", c)
	}
	return fmt.Sprintf("SELL-%d-%d", c, max(sigma, 1))
}

// Rows returns the row count of the original matrix.
func (s *SELL[T]) Rows() int { return s.N }

// Cols returns the column count of the original matrix.
func (s *SELL[T]) Cols() int { return s.NCols }

// NonZeros returns the number of genuine non-zeros.
func (s *SELL[T]) NonZeros() int { return s.Nnz }

// StoredElems returns the number of stored value slots including
// padding — the quantity Table I's data-reduction row compares.
func (s *SELL[T]) StoredElems() int64 { return int64(len(s.Val)) }

// PaddingOverhead returns (stored − Nnz)/Nnz, the fraction of wasted
// slots (SELL-C-σ's β). The paper reports < 0.01% for its matrices at
// br = 32.
func (s *SELL[T]) PaddingOverhead() float64 {
	if s.Nnz == 0 {
		return 0
	}
	return float64(s.StoredElems()-int64(s.Nnz)) / float64(s.Nnz)
}

// FootprintBytes returns the device-memory footprint of the preset's
// arrays: values and column indices, plus
//   - ELLPACK: nothing else;
//   - ELLPACK-R: the rowmax[] array;
//   - pJDS/JDS: col_start[], rowmax[] and the permutation (needed on
//     the device to leave the permuted basis);
//   - sliced ELL: the chunk offset and length arrays, row lengths, and
//     the permutation when a sort was applied.
func (s *SELL[T]) FootprintBytes() int64 {
	b := s.StoredElems() * int64(SizeofElem[T]()+4)
	rowLen := int64(len(s.RowLen)) * 4
	switch s.Preset {
	case PresetELLPACK:
		return b
	case PresetELLPACKR:
		return b + rowLen
	case PresetPJDS:
		return b + int64(s.MaxRowLen+1)*4 + rowLen + int64(len(s.Perm))*4
	}
	b += int64(len(s.SliceStart))*8 + int64(len(s.SliceLen))*4 + rowLen
	if s.SortWindow > 1 {
		b += int64(len(s.Perm)) * 4
	}
	return b
}

// MetaSegments is the number of coalesced metadata segments every
// device warp loads: none for plain ELLPACK, the rowmax[] segment for
// ELLPACK-R and pJDS (whose col_start[] is assumed cached, §II-B), and
// row lengths plus chunk offset/length for sliced ELL.
func (s *SELL[T]) MetaSegments() int64 {
	switch s.Preset {
	case PresetELLPACK:
		return 0
	case PresetSELL:
		return 2
	}
	return 1
}

// PadsLanes reports whether device lanes run to MaxRowLen instead of
// their row length: plain ELLPACK has no row-length array, so every
// lane computes on padding.
func (s *SELL[T]) PadsLanes() bool { return s.Preset == PresetELLPACK }

// Jagged reports whether the device addresses element (i, j) as the
// jagged diagonal val[col_start[j]+i] of Listing 2 (pJDS and JDS).
func (s *SELL[T]) Jagged() bool { return s.Preset == PresetPJDS }

// ColStart derives the paper's col_start[] from the chunk lengths: the
// offset of padded jagged diagonal j when the chunks are laid out
// column by column, with one extra entry so diagonal heights are
// recoverable. Chunks are sorted by padded length only when the sort is
// global, so it describes a device layout for pJDS and JDS.
func (s *SELL[T]) ColStart() []int32 {
	// ends[l] counts the chunks whose padded length is exactly l: they
	// leave the diagonal height from diagonal l onwards.
	ends := make([]int32, s.MaxRowLen+1)
	for _, l := range s.SliceLen {
		ends[l]++
	}
	cs := make([]int32, s.MaxRowLen+1)
	height := int32(len(s.SliceLen) * s.C)
	for j := 0; j < s.MaxRowLen; j++ {
		height -= ends[j] * int32(s.C)
		cs[j+1] = cs[j] + height
	}
	return cs
}

// RowPerm returns the sorting permutation (new → old).
func (s *SELL[T]) RowPerm() matrix.Perm { return s.Perm }

// MulVecPermuted computes yp = Ap·xp with stored-row output: xp is the
// column-space vector and yp receives the results of the sorted rows.
func (s *SELL[T]) MulVecPermuted(yp, xp []T) error {
	if len(xp) != s.NCols || len(yp) < s.N {
		return fmt.Errorf("core: %s MulVecPermuted |x|=%d |y|=%d on %dx%d: %w", s.Name(), len(xp), len(yp), s.N, s.NCols, matrix.ErrShape)
	}
	s.MulRows(yp, xp, 0, s.N, nil, false)
	return nil
}

// MulVec computes y = A·x in the original row order: each stored row i
// writes y[Perm[i]] directly when rows were sorted. Iterative solvers
// should instead permute once and use MulVecPermuted inside the loop
// (§II-A).
func (s *SELL[T]) MulVec(y, x []T) error {
	if len(x) != s.NCols || len(y) != s.N {
		return fmt.Errorf("core: %s MulVec |x|=%d |y|=%d on %dx%d: %w", s.Name(), len(x), len(y), s.N, s.NCols, matrix.ErrShape)
	}
	var perm matrix.Perm
	if s.SortWindow > 1 {
		perm = s.Perm
	}
	s.MulRows(y, x, 0, s.N, perm, false)
	return nil
}

// GroupKernel reports whether MulRows runs its eight-lane groups
// through the AVX-512 assembly kernel. The CPU and OS fix it at
// start-up; it is false off amd64.
func GroupKernel() bool { return useGroupKernel }

// MulRows is the one numeric SELL-C-σ kernel behind MulVec, the device
// replay and the host kernels: it computes stored rows [lo, hi),
// 0 ≤ lo ≤ hi ≤ N, writing stored row i's sum to y[perm[i]] (y[i] when
// perm is nil), or adding it there when add is set. Shapes are the
// caller's to check.
//
// When C is a multiple of 8 (else of 4) the rows run in groups of 8
// (4) lanes of one chunk — the lockstep SELL-C-σ is laid out for. On
// an amd64 CPU with AVX-512 the eight-lane groups run as one assembly
// kernel (sell_amd64.s): a masked gather per step, with the mask
// "row length > j" so no lane adds padding. Elsewhere the groups run
// as Go loops whose accumulators stay in registers over the group's
// common prefix, each lane then finishing its ragged tail alone. Other
// chunk heights, and the unaligned rows at either end of the range,
// run lane by lane. Every lane sums its row from zero in stored column
// order, with separate multiplies and adds, and never reads padding,
// so the result is bit-identical to CRS (a padding 0·x would flip a
// -0 sum to +0, and 0·Inf is NaN).
func (s *SELL[T]) MulRows(y, x []T, lo, hi int, perm matrix.Perm, add bool) {
	g := 1
	switch {
	case s.C%8 == 0:
		g = 8
	case s.C%4 == 0:
		g = 4
	}
	a := min((lo+g-1)/g*g, hi)
	b := max(hi/g*g, a)
	s.lanes1(y, x, lo, a, perm, add)
	switch g {
	case 8:
		s.lanes8(y, x, groups8(s, y, x, a, b, perm, add), b, perm, add)
	case 4:
		s.lanes4(y, x, a, b, perm, add)
	default:
		s.lanes1(y, x, a, b, perm, add)
	}
	s.lanes1(y, x, b, hi, perm, add)
}

// lanes8 computes rows [lo, hi), both multiples of 8, eight lanes at a
// time; C is a multiple of 8, so a group never straddles two chunks.
// The chunk (sl, first row r0) advances with the rows, without a
// division per group.
func (s *SELL[T]) lanes8(y, x []T, lo, hi int, perm matrix.Perm, add bool) {
	c, val, col := s.C, s.Val, s.ColIdx
	sl := lo / c
	r0 := sl * c
	for i := lo; i < hi; i += 8 {
		if i-r0 == c {
			sl, r0 = sl+1, r0+c
		}
		base := int(s.SliceStart[sl]) + i - r0
		l := (*[8]int32)(s.RowLen[i:])
		n := int(min(l[0], l[1], l[2], l[3], l[4], l[5], l[6], l[7]))
		var s0, s1, s2, s3, s4, s5, s6, s7 T
		for j, at := 0, base; j < n; j, at = j+1, at+c {
			s0 += val[at] * x[col[at]]
			s1 += val[at+1] * x[col[at+1]]
			s2 += val[at+2] * x[col[at+2]]
			s3 += val[at+3] * x[col[at+3]]
			s4 += val[at+4] * x[col[at+4]]
			s5 += val[at+5] * x[col[at+5]]
			s6 += val[at+6] * x[col[at+6]]
			s7 += val[at+7] * x[col[at+7]]
		}
		for k, sum := range [8]T{s0, s1, s2, s3, s4, s5, s6, s7} {
			store(y, perm, i+k, laneTail(sum, val, col, x, n, int(l[k]), base+k, c), add)
		}
	}
}

// lanes4 is the four-lane lanes8, for C a multiple of 4.
func (s *SELL[T]) lanes4(y, x []T, lo, hi int, perm matrix.Perm, add bool) {
	c, val, col := s.C, s.Val, s.ColIdx
	sl := lo / c
	r0 := sl * c
	for i := lo; i < hi; i += 4 {
		if i-r0 == c {
			sl, r0 = sl+1, r0+c
		}
		base := int(s.SliceStart[sl]) + i - r0
		l := (*[4]int32)(s.RowLen[i:])
		n := int(min(l[0], l[1], l[2], l[3]))
		var s0, s1, s2, s3 T
		for j, at := 0, base; j < n; j, at = j+1, at+c {
			s0 += val[at] * x[col[at]]
			s1 += val[at+1] * x[col[at+1]]
			s2 += val[at+2] * x[col[at+2]]
			s3 += val[at+3] * x[col[at+3]]
		}
		for k, sum := range [4]T{s0, s1, s2, s3} {
			store(y, perm, i+k, laneTail(sum, val, col, x, n, int(l[k]), base+k, c), add)
		}
	}
}

// lanes1 computes rows [lo, hi) one lane at a time.
func (s *SELL[T]) lanes1(y, x []T, lo, hi int, perm matrix.Perm, add bool) {
	c := s.C
	sl := lo / c
	r0 := sl * c
	for i := lo; i < hi; i++ {
		if i-r0 == c {
			sl, r0 = sl+1, r0+c
		}
		at := int(s.SliceStart[sl]) + i - r0
		store(y, perm, i, laneTail(0, s.Val, s.ColIdx, x, 0, int(s.RowLen[i]), at, c), add)
	}
}

// laneTail continues one lane's sum over its elements [from, to); the
// lane's element 0 is at base, element j at base + j·c.
func laneTail[T matrix.Float](sum T, val []T, col []int32, x []T, from, to, base, c int) T {
	for at := base + from*c; from < to; from, at = from+1, at+c {
		sum += val[at] * x[col[at]]
	}
	return sum
}

// store commits stored row i's sum.
func store[T matrix.Float](y []T, perm matrix.Perm, i int, sum T, add bool) {
	if perm != nil {
		i = perm[i]
	}
	if add {
		y[i] += sum
	} else {
		y[i] = sum
	}
}

// SizeofElem reports the byte width of the element type: 4 for
// float32 (SP), 8 for float64 (DP).
func SizeofElem[T matrix.Float]() int {
	var v T
	switch any(v).(type) {
	case float32:
		return 4
	default:
		return 8
	}
}
