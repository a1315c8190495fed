// Package core implements the paper's primary contribution, the
// "padded Jagged Diagonals Storage" (pJDS) sparse-matrix format of
// Kreutzer et al. (IPDPS 2012), §II-A, as one preset of the SELL-C-σ
// layout that also carries every format it is compared against.
//
// pJDS is derived from a matrix in three steps (Fig. 1):
//
//  1. compress — shift the non-zeros of every row to the left, as in
//     ELLPACK;
//  2. sort — reorder rows by descending number of non-zeros (the
//     jagged-diagonals idea), remembering the permutation;
//  3. pad — group blocks of br consecutive sorted rows (br should be
//     the warp size) and pad every row in a block to the longest row
//     of that block.
//
// That is SELL-br-N: chunks of C = br rows after a global sort. The
// paper stores the padded columns consecutively and addresses element
// (i, j) as val[col_start[j]+i] (Listing 2); the device model keeps that
// address (SELL.ColStart derives col_start[] from the chunk lengths),
// while the host and the numeric replay walk the chunk-major arrays.
// ELLPACK, ELLPACK-R and sliced ELLPACK are the other presets of SELL
// (see Preset).
//
// The spMVM operates in the permuted basis. MulVecPermuted is the raw
// kernel; MulVec wraps it with the gather/scatter so callers that do
// not manage the permutation themselves still get correct results, at
// the cost the paper describes (permutation only pays off when done
// once around an entire iterative solve).
package core

import "pjds/internal/matrix"

// DefaultBlockHeight is the paper's choice of br: the warp size of the
// Fermi GPUs used in the evaluation.
const DefaultBlockHeight = WarpSize

// Options configure pJDS construction.
type Options struct {
	// BlockHeight is the paper's br, the number of consecutive sorted
	// rows padded to a common length. It should equal the device warp
	// size; 0 selects DefaultBlockHeight. BlockHeight 1 degenerates to
	// the classic (unpadded) JDS format.
	BlockHeight int
	// Convert carries the parallel-construction knobs (worker count,
	// scratch arena, phase timer). The zero value is sequential-default
	// and uninstrumented; every worker count builds a bit-identical
	// PJDS.
	Convert matrix.ConvertOptions
}

// PJDS is a padded-jagged-diagonals-storage matrix: the SELL-br-N
// layout tagged PresetPJDS. BlockHeight br is the embedded C.
type PJDS[T matrix.Float] struct {
	SELL[T]
}

// NewPJDS builds the pJDS representation of m. The matrix may be
// rectangular; rows are sorted globally by descending length as in the
// paper.
func NewPJDS[T matrix.Float](m *matrix.CSR[T], opt Options) (*PJDS[T], error) {
	br := opt.BlockHeight
	if br == 0 {
		br = DefaultBlockHeight
	}
	s, err := newSELL(m, br, m.NRows, PresetPJDS, opt.Convert)
	if err != nil {
		return nil, err
	}
	return &PJDS[T]{SELL: *s}, nil
}
