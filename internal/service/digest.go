package service

import (
	"fmt"
	"math/bits"
	"unsafe"

	"pjds/internal/matrix"
)

// DigestVector hashes the float64 bit patterns of y: XXH64 (seed 0) of
// their little-endian 64-bit words, as 16 hex digits. Two vectors
// digest equal exactly when they are bit-identical, so +0 and −0
// differ, and so do two NaN payloads. XXH64's four independent lanes
// make it about 1 ns per element (DESIGN, "Request vectors and
// digests").
func DigestVector(y []float64) string {
	h := newXXH64()
	writeWords(&h, floatWords(y))
	return fmt.Sprintf("%016x", h.sum())
}

// contentFingerprint derives the dedup identity of a matrix from its
// full content (dimensions, structure, values), not its name: two
// tenants uploading the same matrix under different names share one
// entry. It is XXH64 of the little-endian words NRows, NCols, RowPtr,
// ColIdx and the Val bit patterns, in that order.
func contentFingerprint(m *matrix.CSR[float64]) string {
	h := newXXH64()
	writeWords(&h, []int{m.NRows, m.NCols})
	writeWords(&h, m.RowPtr)
	writeWords(&h, m.ColIdx)
	writeWords(&h, floatWords(m.Val))
	return fmt.Sprintf("%016x", h.sum())
}

// floatWords views the bit patterns of s (math.Float64bits of every
// element) without a copy: float64 and uint64 share size and alignment.
func floatWords(s []float64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// XXH64 constants.
const (
	prime1 uint64 = 0x9E3779B185EBCA87
	prime2 uint64 = 0xC2B2AE3D27D4EB4F
	prime3 uint64 = 0x165667B19E3779F9
	prime4 uint64 = 0x85EBCA77C2B2AE63
	prime5 uint64 = 0x27D4EB2F165667C5
)

// xxh64 is XXH64 with seed 0 over a stream of 64-bit words, equal to
// XXH64 of the words' little-endian bytes. Its four lanes each take
// every fourth word, so they run as independent multiply chains
// rather than one chain through every byte. Since the stream is whole
// words, XXH64's byte and 4-byte tail steps never run.
type xxh64 struct {
	v    [4]uint64
	tail [4]uint64 // words not yet filling a 32-byte stripe
	nt   int
	n    uint64 // words written
}

func newXXH64() xxh64 {
	p1, p2 := prime1, prime2 // variables, so the sums wrap
	return xxh64{v: [4]uint64{p1 + p2, p2, 0, -p1}}
}

func xxhRound(acc, w uint64) uint64 {
	return bits.RotateLeft64(acc+w*prime2, 31) * prime1
}

// writeWords feeds the words uint64(ws[i]) to h.
func writeWords[T int | int32 | uint64](h *xxh64, ws []T) {
	h.n += uint64(len(ws))
	if h.nt > 0 {
		for ; h.nt < 4 && len(ws) > 0; ws = ws[1:] {
			h.tail[h.nt] = uint64(ws[0])
			h.nt++
		}
		if h.nt < 4 {
			return
		}
		for i, w := range h.tail {
			h.v[i] = xxhRound(h.v[i], w)
		}
		h.nt = 0
	}
	v0, v1, v2, v3 := h.v[0], h.v[1], h.v[2], h.v[3]
	for ; len(ws) >= 4; ws = ws[4:] {
		v0 = xxhRound(v0, uint64(ws[0]))
		v1 = xxhRound(v1, uint64(ws[1]))
		v2 = xxhRound(v2, uint64(ws[2]))
		v3 = xxhRound(v3, uint64(ws[3]))
	}
	h.v = [4]uint64{v0, v1, v2, v3}
	for _, w := range ws {
		h.tail[h.nt] = uint64(w)
		h.nt++
	}
}

func (h *xxh64) sum() uint64 {
	acc := prime5
	if h.n >= 4 {
		v := h.v
		acc = bits.RotateLeft64(v[0], 1) + bits.RotateLeft64(v[1], 7) +
			bits.RotateLeft64(v[2], 12) + bits.RotateLeft64(v[3], 18)
		for _, l := range v {
			acc = (acc^xxhRound(0, l))*prime1 + prime4
		}
	}
	acc += h.n * 8
	for _, w := range h.tail[:h.nt] {
		acc = bits.RotateLeft64(acc^xxhRound(0, w), 27)*prime1 + prime4
	}
	acc ^= acc >> 33
	acc *= prime2
	acc ^= acc >> 29
	acc *= prime3
	acc ^= acc >> 32
	return acc
}
