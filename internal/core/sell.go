package core

import (
	"fmt"

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
	if c < 1 {
		return nil, fmt.Errorf("core: chunk height %d < 1", c)
	}
	n := m.NRows
	sigma = ClampSigma(c, sigma, n)

	scanPhase, layoutPhase, fillPhase := preset.phases()
	var perm matrix.Perm
	if preset == PresetPJDS {
		// The global sort of pJDS, parallel over rows; it records its
		// own "jds-sort" phase.
		perm = matrix.SortRowsByLengthDescOpt(m, opt)
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

	switch {
	case preset == PresetPJDS:
		// Sorted globally above.
	case sigma > 1:
		// Windows are independent, so they distribute over workers
		// with one counting-sort scratch buffer each.
		perm = matrix.Identity(n)
		counts := make([][]int, workers)
		for w := range counts {
			counts[w] = opt.Arena.Int(maxLen + 2)
		}
		opt.Run((n+sigma-1)/sigma, func(w, lo, hi int) {
			for win := lo; win < hi; win++ {
				matrix.SortRangeByLengthDesc(lens, win*sigma, min(win*sigma+sigma, n), perm, counts[w])
			}
		})
	default:
		perm = matrix.Identity(n)
	}

	if layoutPhase != scanPhase {
		done()
		done = opt.Phase(layoutPhase)
	}
	npad := (n + c - 1) / c * c
	s := &SELL[T]{
		N:          n,
		NCols:      m.NCols,
		NPad:       npad,
		Nnz:        m.Nnz(),
		C:          c,
		SortWindow: sigma,
		MaxRowLen:  maxLen,
		Preset:     preset,
		RowLen:     make([]int32, npad),
		Perm:       perm,
	}
	opt.Run(n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			s.RowLen[i] = int32(lens[perm[i]])
		}
	})

	nSlices := npad / c
	s.SliceStart = make([]int64, nSlices+1)
	s.SliceLen = make([]int32, nSlices)
	var total int64
	for sl := range s.SliceLen {
		for _, l := range s.RowLen[sl*c : sl*c+c] {
			s.SliceLen[sl] = max(s.SliceLen[sl], l)
		}
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
	s.Val = make([]T, total)
	s.ColIdx = make([]int32, total)
	opt.Run(n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			cols, vals := m.Row(perm[i])
			safe := int32(0)
			if len(cols) > 0 {
				safe = cols[0]
			}
			at := s.SliceStart[i/c] + int64(i%c)
			for j := 0; j < int(s.SliceLen[i/c]); j++ {
				if j < len(cols) {
					s.Val[at] = vals[j]
					s.ColIdx[at] = cols[j]
				} else {
					s.ColIdx[at] = safe
				}
				at += int64(c)
			}
		}
	})
	return s, nil
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
// Every row walks its true length in stored column order, so padding is
// never touched and the result is bit-identical to CRS.
func (s *SELL[T]) MulVecPermuted(yp, xp []T) error {
	if len(xp) != s.NCols || len(yp) < s.N {
		return fmt.Errorf("core: %s MulVecPermuted |x|=%d |y|=%d on %dx%d: %w", s.Name(), len(xp), len(yp), s.N, s.NCols, matrix.ErrShape)
	}
	stride := int64(s.C)
	for i := 0; i < s.N; i++ {
		at := s.SliceStart[i/s.C] + int64(i%s.C)
		var sum T
		for j := int32(0); j < s.RowLen[i]; j++ {
			sum += s.Val[at] * xp[s.ColIdx[at]]
			at += stride
		}
		yp[i] = sum
	}
	return nil
}

// MulVec computes y = A·x in the original row order, scattering the
// permuted result back when rows were sorted. Iterative solvers should
// instead permute once and use MulVecPermuted inside the loop (§II-A).
func (s *SELL[T]) MulVec(y, x []T) error {
	if len(x) != s.NCols || len(y) != s.N {
		return fmt.Errorf("core: %s MulVec |x|=%d |y|=%d on %dx%d: %w", s.Name(), len(x), len(y), s.N, s.NCols, matrix.ErrShape)
	}
	if s.SortWindow <= 1 {
		return s.MulVecPermuted(y, x)
	}
	yp := make([]T, s.N)
	if err := s.MulVecPermuted(yp, x); err != nil {
		return err
	}
	matrix.Scatter(y, yp, s.Perm)
	return nil
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
