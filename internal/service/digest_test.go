package service

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"pjds/internal/matgen"
)

// refXXH64 is XXH64 with seed 0 written from the specification one
// byte at a time, tails included: the reference the word-wise hasher
// must reproduce.
func refXXH64(b []byte) uint64 {
	const (
		p1 uint64 = 0x9E3779B185EBCA87
		p2 uint64 = 0xC2B2AE3D27D4EB4F
		p3 uint64 = 0x165667B19E3779F9
		p4 uint64 = 0x85EBCA77C2B2AE63
		p5 uint64 = 0x27D4EB2F165667C5
	)
	le := func(b []byte, n int) uint64 {
		var v uint64
		for i := n - 1; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
		return v
	}
	round := func(acc, in uint64) uint64 {
		acc += in * p2
		acc = bits.RotateLeft64(acc, 31)
		return acc * p1
	}
	merge := func(acc, v uint64) uint64 {
		acc ^= round(0, v)
		return acc*p1 + p4
	}
	n := uint64(len(b))
	var h uint64
	if len(b) >= 32 {
		v1, v2, v3, v4 := p1, p2, uint64(0), uint64(0)
		v1 += p2
		v4 -= p1
		for ; len(b) >= 32; b = b[32:] {
			v1 = round(v1, le(b[0:], 8))
			v2 = round(v2, le(b[8:], 8))
			v3 = round(v3, le(b[16:], 8))
			v4 = round(v4, le(b[24:], 8))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = merge(h, v1)
		h = merge(h, v2)
		h = merge(h, v3)
		h = merge(h, v4)
	} else {
		h = p5
	}
	h += n
	for ; len(b) >= 8; b = b[8:] {
		h ^= round(0, le(b, 8))
		h = bits.RotateLeft64(h, 27)*p1 + p4
	}
	if len(b) >= 4 {
		h ^= le(b, 4) * p1
		h = bits.RotateLeft64(h, 23)*p2 + p3
		b = b[4:]
	}
	for _, c := range b {
		h ^= uint64(c) * p5
		h = bits.RotateLeft64(h, 11) * p1
	}
	h ^= h >> 33
	h *= p2
	h ^= h >> 29
	h *= p3
	h ^= h >> 32
	return h
}

// TestRefXXH64KnownValues pins the reference to published XXH64
// (seed 0) values, byte tails included.
func TestRefXXH64KnownValues(t *testing.T) {
	for _, c := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"as", 0x1c330fb2d66be179},
		{"asd", 0x631c37ce72a97393},
		{"asdf", 0x415872f599cea71e},
		{"Call me Ishmael. Some years ago--never mind how long precisely-", 0x02a2e85470d6fd96},
	} {
		if got := refXXH64([]byte(c.in)); got != c.want {
			t.Errorf("refXXH64(%q) = %016x, want %016x", c.in, got, c.want)
		}
	}
}

func TestDigestVectorEmpty(t *testing.T) {
	if got := DigestVector(nil); got != "ef46db3751d8e999" {
		t.Fatalf("DigestVector(nil) = %s, want the XXH64 empty-input value ef46db3751d8e999", got)
	}
}

// TestDigestVectorMatchesByteXXH64: the word-wise digest equals XXH64
// of the vector's little-endian bytes on both sides of every stripe
// and stack-buffer boundary.
func TestDigestVectorMatchesByteXXH64(t *testing.T) {
	lens := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 255, 256, 257, 1000}
	for _, n := range lens {
		y := make([]float64, n)
		b := make([]byte, 0, 8*n)
		for i := range y {
			y[i] = math.Sin(float64(i)+0.5) * math.Pow(10, float64(i%40-20))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(y[i]))
		}
		if got, want := DigestVector(y), fmt.Sprintf("%016x", refXXH64(b)); got != want {
			t.Errorf("n=%d: DigestVector %s, byte-wise XXH64 %s", n, got, want)
		}
	}
}

// TestDigestVectorSensitivity: the digest tells apart vectors that
// differ in any bit, in order, in length or only in a zero's sign or a
// NaN's payload.
func TestDigestVectorSensitivity(t *testing.T) {
	y := make([]float64, 37)
	for i := range y {
		y[i] = 1 + float64(i)/7
	}
	base := DigestVector(y)
	for i := range y {
		for bit := 0; bit < 64; bit++ {
			z := append([]float64(nil), y...)
			z[i] = math.Float64frombits(math.Float64bits(z[i]) ^ 1<<bit)
			if DigestVector(z) == base {
				t.Fatalf("flipping bit %d of element %d left the digest unchanged", bit, i)
			}
		}
	}
	z := append([]float64(nil), y...)
	z[3], z[30] = z[30], z[3]
	if DigestVector(z) == base {
		t.Error("swapping two unequal elements left the digest unchanged")
	}
	if DigestVector(append(append([]float64(nil), y...), 0)) == base {
		t.Error("appending +0 left the digest unchanged")
	}
	if DigestVector([]float64{0}) == DigestVector([]float64{math.Copysign(0, -1)}) {
		t.Error("+0 and -0 digest equal")
	}
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	if DigestVector([]float64{nan1}) == DigestVector([]float64{nan2}) {
		t.Error("two NaN payloads digest equal")
	}
}

// TestContentFingerprintSensitivity: the dedup identity is byte-wise
// XXH64 of the matrix's words, whose arrays meet mid-stripe, and it
// changes with one value, one column index or one row pointer.
func TestContentFingerprintSensitivity(t *testing.T) {
	m := matgen.Stencil2D(6, 6)
	b := binary.LittleEndian.AppendUint64(nil, uint64(m.NRows))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.NCols))
	for _, p := range m.RowPtr {
		b = binary.LittleEndian.AppendUint64(b, uint64(p))
	}
	for _, c := range m.ColIdx {
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	for _, v := range m.Val {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	base := contentFingerprint(m)
	if want := fmt.Sprintf("%016x", refXXH64(b)); base != want {
		t.Fatalf("fingerprint %s, byte-wise XXH64 of the words %s", base, want)
	}
	v := *m
	v.Val = append(v.Val[:0:0], m.Val...)
	v.Val[10] = math.Nextafter(v.Val[10], 0)
	c := *m
	c.ColIdx = append(c.ColIdx[:0:0], m.ColIdx...)
	c.ColIdx[10]++
	r := *m
	r.RowPtr = append(r.RowPtr[:0:0], m.RowPtr...)
	r.RowPtr[5]++
	for _, tc := range []struct {
		what string
		fp   string
	}{
		{"one value", contentFingerprint(&v)},
		{"one column index", contentFingerprint(&c)},
		{"one row pointer", contentFingerprint(&r)},
	} {
		if tc.fp == base {
			t.Errorf("changing %s left the fingerprint unchanged", tc.what)
		}
	}
}

// BenchmarkDigestVector digests one result vector of sAMG's size at
// the serve workload's scale (68,100 rows).
func BenchmarkDigestVector(b *testing.B) {
	y := SeedVector(68100, 1)
	b.SetBytes(8 * int64(len(y)))
	for i := 0; i < b.N; i++ {
		digestSink = DigestVector(y)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(y)), "ns/elem")
}

var digestSink string
