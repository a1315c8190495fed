package matrix

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// This file holds the MatrixMarket reader's decimal fast path: a
// value token of at most 19 significant digits is read eight digits at
// a time and converted the way strconv.ParseFloat converts such inputs:
// by one exact float64 multiply or divide when the mantissa and the
// power of ten are both exact float64s, else with the Eisel–Lemire
// algorithm (Lemire, "Number Parsing at a Gigabyte per Second", 2021).
// Each returns the correctly rounded float64, so every value the fast
// path converts has the bits strconv would give it. Anything the fast
// path is not sure of — more digits, a subnormal or overflowing
// result, a product too close to a halfway point for 128 bits to
// settle, or any other syntax — it declines, and the caller parses the
// line with strconv as before.

// mmMaxMantDigits is the most significant digits a uint64 holds
// exactly for every digit string (10¹⁹ − 1 < 2⁶⁴).
const mmMaxMantDigits = 19

// The powers of ten the Eisel–Lemire table covers: below 10⁻³⁴⁸ or
// above 10³⁴⁷ every mantissa of ≤ 19 digits gives a subnormal, zero or
// infinite float64, which the algorithm declines anyway.
const (
	pow10MinExp = -348
	pow10MaxExp = 347
)

// pow10Table holds 10^q for q in [pow10MinExp, pow10MaxExp] as a
// 128-bit mantissa {low, high} normalised so the high word's top bit is
// set, rounded down. It is built once, exactly, with math/big.
var pow10Table = sync.OnceValue(func() *[pow10MaxExp - pow10MinExp + 1][2]uint64 {
	var t [pow10MaxExp - pow10MinExp + 1][2]uint64
	ten := big.NewInt(10)
	var m, p big.Int
	var buf [16]byte
	for q := pow10MinExp; q <= pow10MaxExp; q++ {
		if q >= 0 {
			m.Exp(ten, big.NewInt(int64(q)), nil)
			if n := m.BitLen(); n > 128 {
				m.Rsh(&m, uint(n-128))
			} else {
				m.Lsh(&m, uint(128-n))
			}
		} else {
			// ⌊2^(127+n) / 10^-q⌋ with n the bit length of 10^-q lies in
			// [2¹²⁷, 2¹²⁸), since 10^-q is not a power of two.
			p.Exp(ten, big.NewInt(int64(-q)), nil)
			m.Lsh(big.NewInt(1), uint(127+p.BitLen()))
			m.Quo(&m, &p)
		}
		m.FillBytes(buf[:])
		t[q-pow10MinExp] = [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
	}
	return &t
})

// parseMMValue parses the decimal number at the start of s: an
// optional '-', digits with an optional '.', and an optional exponent
// ('e' or 'E', an optional sign, digits). It returns the value and the
// number of bytes it read; ok is false when s does not start with such
// a number or the number is one the fast path declines. A leading '+',
// "inf", "nan", hex and underscores are declined. Bytes after the
// number are left to the caller.
func parseMMValue(s []byte) (v float64, n int, ok bool) {
	p := 0
	neg := false
	if len(s) > 0 && s[0] == '-' {
		neg = true
		p++
	}
	start := p
	var man uint64
	man, p = mmDigits(s, p, man)
	nd := p - start
	frac := 0
	if p < len(s) && s[p] == '.' {
		p++
		q := p
		man, p = mmDigits(s, p, man)
		frac = p - q
		nd += frac
	}
	if nd == 0 {
		return 0, 0, false
	}
	exp := -frac
	if p < len(s) && s[p]|0x20 == 'e' {
		p++
		eneg := false
		if p < len(s) && (s[p] == '+' || s[p] == '-') {
			eneg = s[p] == '-'
			p++
		}
		if p == len(s) || s[p]-'0' > 9 {
			return 0, 0, false
		}
		// Saturate like strconv: any exponent ≥ 10000 is out of range.
		e := 0
		for ; p < len(s) && s[p]-'0' <= 9; p++ {
			if e < 10000 {
				e = e*10 + int(s[p]-'0')
			}
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if nd > mmMaxMantDigits {
		// Leading zeros are not significant; man stayed 0 over them, so
		// it is exact whenever the rest fits in 19 digits.
		for k := start; k < p && (s[k] == '0' || s[k] == '.'); k++ {
			if s[k] == '0' {
				nd--
			}
		}
		if nd > mmMaxMantDigits {
			return 0, 0, false
		}
	}
	if man>>53 == 0 && exp >= -22 && exp <= 22 {
		// man and 10^|exp| are exact float64s, so one multiply or divide
		// rounds the product correctly. Eisel–Lemire declines many of
		// these short values, whose products it cannot tell from a
		// halfway case.
		v = float64(man)
		if neg {
			v = -v
		}
		if exp >= 0 {
			return v * mmExactPow10[exp], p, true
		}
		return v / mmExactPow10[-exp], p, true
	}
	v, ok = eiselLemire64(man, exp, neg)
	return v, p, ok
}

// mmExactPow10 holds the powers of ten a float64 represents exactly.
var mmExactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// mmDigits accumulates the decimal digits of s from p into man,
// eight at a time while eight remain, and returns the new mantissa and
// the position after the last digit. man wraps beyond 19 significant
// digits, which parseMMValue then declines.
func mmDigits(s []byte, p int, man uint64) (uint64, int) {
	for p+8 <= len(s) {
		w := binary.LittleEndian.Uint64(s[p:])
		if !eightDigits(w) {
			break
		}
		man = man*100000000 + eightDigitsValue(w)
		p += 8
	}
	for p < len(s) && s[p]-'0' <= 9 {
		man = man*10 + uint64(s[p]-'0')
		p++
	}
	return man, p
}

// eightDigits reports whether all eight bytes of the little-endian
// word w are ASCII digits: each byte's high nibble must be 3 both
// before and after adding 6 (which carries out of '0'–'9' exactly for
// bytes above '9').
func eightDigits(w uint64) bool {
	return (w&0xF0F0F0F0F0F0F0F0)|((w+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4 == 0x3333333333333333
}

// eightDigitsValue converts eight ASCII digits, loaded little-endian
// so the first digit is the low byte, to their value: adjacent digits
// combine into two-digit pairs in one multiply, then the four pairs
// into the eight-digit number in two.
func eightDigitsValue(w uint64) uint64 {
	w -= 0x3030303030303030
	w = w*10 + w>>8
	return ((w&0x000000FF000000FF)*(100+1000000<<32) + (w>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
}

// eiselLemire64 returns the float64 nearest man × 10^exp10 (negated
// when neg), rounding half to even, or ok = false when the 128-bit
// product cannot decide the rounding or the result would be subnormal,
// infinite or outside the table. man == 0 gives a signed zero.
func eiselLemire64(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < pow10MinExp || exp10 > pow10MaxExp {
		return 0, false
	}
	pow := &pow10Table()[exp10-pow10MinExp]

	// Normalise man so its top bit is set; the binary exponent of the
	// result starts from ⌊log2(10^exp10)⌋ (217706/2¹⁶ ≈ log2 10).
	lz := bits.LeadingZeros64(man)
	man <<= uint(lz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(lz)

	// The high 64 bits of man × 10^exp10 from the high table word; when
	// the bits below the 54 kept ones are all ones, the low word decides
	// whether a carry reaches them.
	hi, lo := bits.Mul64(man, pow[1])
	if hi&0x1FF == 0x1FF && lo+man < man {
		hi2, lo2 := bits.Mul64(man, pow[0])
		mhi, mlo := hi, lo+hi2
		if mlo < lo {
			mhi++
		}
		if mhi&0x1FF == 0x1FF && mlo+1 == 0 && lo2+man < man {
			return 0, false
		}
		hi, lo = mhi, mlo
	}

	// Keep 54 bits: the 53-bit mantissa and one rounding bit.
	top := hi >> 63
	mant := hi >> (top + 9)
	exp2 -= 1 ^ top

	// An exact halfway case the truncated product cannot tell from a
	// value just above it.
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}

	// Round to 53 bits, half to even; a carry out adds one to the
	// exponent.
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	// exp2 of 0 (or wrapped below it) is subnormal, 0x7FF or above is
	// infinite: both are left to strconv.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | mant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
