package formats

import (
	"fmt"

	"pjds/internal/core"
	"pjds/internal/matrix"
)

// BELLPACK is a blocked ELLPACK in the spirit of Choi, Singh and
// Vuduc's BELLPACK (the paper's reference [2], named in §II-A as a
// format that — unlike pJDS — exploits a priori knowledge of the
// matrix structure). The matrix is tiled into dense br×bc blocks; each
// block row stores its blocks ELLPACK-style, padded to the longest
// block row, with one column index per block instead of one per
// element. On matrices made of dense subblocks (DLR2's 5×5) this
// divides the index traffic by br·bc and is the structure-aware
// counterpoint in the format comparison; on unstructured matrices the
// zero fill-in inside partial blocks wastes space instead.
type BELLPACK[T matrix.Float] struct {
	N, NCols int
	NnzV     int
	// BR and BC are the block dimensions.
	BR, BC int
	// BlockRows = ceil(N/BR); BlockRowsPad rounds them up so that the
	// scalar rows of the padded block rows are a multiple of the warp
	// size.
	BlockRows    int
	BlockRowsPad int
	// MaxBlocks is the maximum number of blocks in a block row.
	MaxBlocks int
	// Val interleaves block elements across block rows, ELLPACK-style:
	// element (r, c) of block slot j in block row b lives at
	//
	//	((j·BC + c)·BlockRowsPad + b)·BR + r
	//
	// so for a fixed (j, c) the scalar rows of a whole warp touch
	// consecutive addresses — the coalescing that makes the blocked
	// kernel work.
	Val []T
	// BlockCol holds one column-block index per slot (same layout,
	// one entry per block).
	BlockCol []int32
	// BlockLen[b] is the true number of blocks in block row b.
	BlockLen []int32
	// FillIn is the number of explicit zeros stored inside partial
	// blocks (structure mismatch cost).
	FillIn int64
}

// NewBELLPACK tiles m into br×bc blocks and builds the blocked
// ELLPACK structure.
func NewBELLPACK[T matrix.Float](m *matrix.CSR[T], br, bc int) (*BELLPACK[T], error) {
	return NewBELLPACKWith(m, br, bc, matrix.ConvertOptions{})
}

// NewBELLPACKWith is NewBELLPACK with explicit conversion options.
// Both the block-structure discovery and the fill are parallel over
// block rows: block row b only writes blockCols[b] respectively its
// own Val/BlockCol slots, so worker blocks are disjoint and the result
// is bit-identical for every worker count.
func NewBELLPACKWith[T matrix.Float](m *matrix.CSR[T], br, bc int, opt matrix.ConvertOptions) (*BELLPACK[T], error) {
	if br < 1 || bc < 1 {
		return nil, fmt.Errorf("formats: BELLPACK block %dx%d", br, bc)
	}
	n := m.NRows
	blockRows := (n + br - 1) / br
	// Pad block rows so scalar rows are a multiple of the warp size.
	scalarPad := ((blockRows*br + core.WarpSize - 1) / core.WarpSize) * core.WarpSize
	blockRowsPad := scalarPad / br
	if scalarPad%br != 0 {
		blockRowsPad++
	}

	done := opt.Phase("bellpack-discover")
	workers := opt.EffectiveWorkers()
	// Discover the block structure per block row.
	blockCols := make([][]int32, blockRows)
	maxBlocksW := opt.Arena.Int(workers)
	opt.Run(blockRows, func(w, lo, hi int) {
		for b := lo; b < hi; b++ {
			seen := map[int32]bool{}
			for i := b * br; i < (b+1)*br && i < n; i++ {
				cols, _ := m.Row(i)
				for _, c := range cols {
					seen[c/int32(bc)] = true
				}
			}
			list := make([]int32, 0, len(seen))
			for c := range seen {
				list = append(list, c)
			}
			sortInt32s(list)
			blockCols[b] = list
			if len(list) > maxBlocksW[w] {
				maxBlocksW[w] = len(list)
			}
		}
	})
	maxBlocks := 0
	for _, v := range maxBlocksW {
		if v > maxBlocks {
			maxBlocks = v
		}
	}
	done()

	done = opt.Phase("bellpack-fill")
	e := &BELLPACK[T]{
		N: n, NCols: m.NCols, NnzV: m.Nnz(),
		BR: br, BC: bc,
		BlockRows: blockRows, BlockRowsPad: blockRowsPad,
		MaxBlocks: maxBlocks,
		Val:       make([]T, blockRowsPad*maxBlocks*br*bc),
		BlockCol:  make([]int32, blockRowsPad*maxBlocks),
		BlockLen:  make([]int32, blockRowsPad),
	}
	filledW := make([]int64, workers)
	opt.Run(blockRows, func(w, lo, hi int) {
		for b := lo; b < hi; b++ {
			e.BlockLen[b] = int32(len(blockCols[b]))
			slotOf := make(map[int32]int, len(blockCols[b]))
			for j, c := range blockCols[b] {
				slotOf[c] = j
				e.BlockCol[j*blockRowsPad+b] = c
			}
			for i := b * br; i < (b+1)*br && i < n; i++ {
				cols, vals := m.Row(i)
				for k, c := range cols {
					j := slotOf[c/int32(bc)]
					at := ((j*bc+int(c)%bc)*blockRowsPad+b)*br + (i - b*br)
					e.Val[at] = vals[k]
					filledW[w]++
				}
			}
		}
	})
	var filled int64
	for _, v := range filledW {
		filled += v
	}
	e.FillIn = blockStorage(e) - filled
	done()
	return e, nil
}

// blockStorage returns the value slots inside genuine (non-padding)
// blocks.
func blockStorage[T matrix.Float](e *BELLPACK[T]) int64 {
	var s int64
	for _, l := range e.BlockLen {
		s += int64(l) * int64(e.BR*e.BC)
	}
	return s
}

func sortInt32s(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// Name implements Format.
func (e *BELLPACK[T]) Name() string { return fmt.Sprintf("BELLPACK(%dx%d)", e.BR, e.BC) }

// Rows implements Format.
func (e *BELLPACK[T]) Rows() int { return e.N }

// Cols implements Format.
func (e *BELLPACK[T]) Cols() int { return e.NCols }

// NonZeros implements Format.
func (e *BELLPACK[T]) NonZeros() int { return e.NnzV }

// StoredElems implements Format: every value slot of the padded block
// grid.
func (e *BELLPACK[T]) StoredElems() int64 { return int64(len(e.Val)) }

// FootprintBytes implements Format: values plus one index per block
// plus the block-length array.
func (e *BELLPACK[T]) FootprintBytes() int64 {
	return e.StoredElems()*int64(SizeofElem[T]()) + int64(len(e.BlockCol))*4 + int64(len(e.BlockLen))*4
}

// MulVec implements Format: each scalar row walks its block row's
// blocks (ELLPACK-R style, stopping at the true block count).
func (e *BELLPACK[T]) MulVec(y, x []T) error {
	if len(x) != e.NCols || len(y) != e.N {
		return fmt.Errorf("formats: BELLPACK MulVec |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), e.N, e.NCols, matrix.ErrShape)
	}
	for i := 0; i < e.N; i++ {
		b := i / e.BR
		r := i % e.BR
		var sum T
		for j := 0; j < int(e.BlockLen[b]); j++ {
			cb := int(e.BlockCol[j*e.BlockRowsPad+b]) * e.BC
			for c := 0; c < e.BC; c++ {
				xc := cb + c
				if xc >= e.NCols {
					break
				}
				sum += e.Val[((j*e.BC+c)*e.BlockRowsPad+b)*e.BR+r] * x[xc]
			}
		}
		y[i] = sum
	}
	return nil
}
