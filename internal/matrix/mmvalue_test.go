package matrix

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestPow10TableMatchesStrconv compares every entry of the table built
// with math/big against the literal table strconv's Eisel–Lemire code
// ships in the Go source tree, when that source is present.
func TestPow10TableMatchesStrconv(t *testing.T) {
	tab := pow10Table()
	// Two entries that need no source tree: 10⁰ is exact, 10⁻³⁴⁸
	// rounded down.
	if got := tab[0-pow10MinExp]; got != [2]uint64{0, 1 << 63} {
		t.Fatalf("1e0 = %#x", got)
	}
	if got := tab[0]; got != [2]uint64{0x1732C869CD60E453, 0xFA8FD5A0081C0288} {
		t.Fatalf("1e-348 = %#x", got)
	}

	out, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		t.Skipf("go env GOROOT: %v", err)
	}
	src, err := os.ReadFile(filepath.Join(strings.TrimSpace(string(out)), "src", "strconv", "eisel_lemire.go"))
	if err != nil {
		t.Skipf("strconv source not available: %v", err)
	}
	rows := regexp.MustCompile(`\{0x([0-9A-Fa-f]{16}), 0x([0-9A-Fa-f]{16})\}, // 1e(-?\d+)`).FindAllStringSubmatch(string(src), -1)
	if len(rows) != len(tab) {
		t.Fatalf("strconv table has %d rows, ours %d", len(rows), len(tab))
	}
	for _, r := range rows {
		lo, _ := strconv.ParseUint(r[1], 16, 64)
		hi, _ := strconv.ParseUint(r[2], 16, 64)
		q, _ := strconv.Atoi(r[3])
		if q < pow10MinExp || q > pow10MaxExp {
			t.Fatalf("strconv row 1e%d outside [%d, %d]", q, pow10MinExp, pow10MaxExp)
		}
		if got := tab[q-pow10MinExp]; got != [2]uint64{lo, hi} {
			t.Errorf("1e%d: got {%#x, %#x}, strconv {%#x, %#x}", q, got[0], got[1], lo, hi)
		}
	}
}

func TestEightDigits(t *testing.T) {
	for _, s := range []string{"00000000", "12345678", "99999999", "90000001", "01234567"} {
		w := uint64(0)
		for k := 7; k >= 0; k-- {
			w = w<<8 | uint64(s[k])
		}
		want, _ := strconv.ParseUint(s, 10, 64)
		if !eightDigits(w) || eightDigitsValue(w) != want {
			t.Errorf("%s: eightDigits %v value %d", s, eightDigits(w), eightDigitsValue(w))
		}
	}
	for _, s := range []string{"1234567.", "/2345678", "1234567:", "12 45678", "\xff2345678", "1234567\xf9"} {
		w := uint64(0)
		for k := 7; k >= 0; k-- {
			w = w<<8 | uint64(s[k])
		}
		if eightDigits(w) {
			t.Errorf("%q taken for eight digits", s)
		}
	}
}

// checkMMValue fails when parseMMValue accepts all of tok with bits
// other than strconv.ParseFloat's, or accepts a token strconv rejects.
// It reports whether the fast path accepted tok.
func checkMMValue(t *testing.T, tok string) bool {
	t.Helper()
	v, n, ok := parseMMValue([]byte(tok))
	if !ok || n != len(tok) {
		return false
	}
	want, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		t.Fatalf("fast path accepted %q (%v), strconv rejects it: %v", tok, v, err)
	}
	if math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("%q: fast path %#x, strconv %#x", tok, math.Float64bits(v), math.Float64bits(want))
	}
	return true
}

// TestParseMMValueMatchesParseFloat spells random float64s several
// ways and checks every value the fast path converts against strconv.
// The %.17g spelling WriteMatrixMarket uses must take the fast path
// for nearly every normal value: Eisel–Lemire leaves only values
// within a rounding error of a halfway point (exactly representable
// decimals of 17 digits among them) to strconv.
func TestParseMMValueMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	normal, fast := 0, 0
	for i := 0; i < n; i++ {
		var f float64
		switch i % 3 {
		case 0: // any finite bit pattern
			f = math.Float64frombits(rng.Uint64())
		case 1: // the magnitudes matrices hold
			f = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		default: // short decimals, exact halfway cases among them
			f = float64(rng.Intn(2000000)-1000000) / math.Pow(10, float64(rng.Intn(8)))
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		if g := strconv.FormatFloat(f, 'g', 17, 64); checkMMValue(t, g) {
			fast++
		}
		if math.Abs(f) >= 0x1p-1022 {
			normal++
		}
		for _, verb := range []byte{'e', 'f', 'g', 'E'} {
			for _, prec := range []int{-1, 3, 15, 16, 18} {
				s := strconv.FormatFloat(f, verb, prec, 64)
				if len(s) < 400 {
					checkMMValue(t, s)
				}
			}
		}
	}
	if fast < normal*99/100 {
		t.Fatalf("%%.17g spellings: %d of %d normal values took the fast path", fast, normal)
	}
}

// TestParseMMValueDeclines lists tokens the fast path must leave to
// strconv: what strconv accepts differently or rejects, and values
// whose conversion needs more than 19 digits or the subnormal range.
func TestParseMMValueDeclines(t *testing.T) {
	for _, tok := range []string{
		"", "-", ".", "-.", "+1", "inf", "-Inf", "NaN", "0x1p-2", "1_0",
		"1e", "1e+", "e5", "12345678901234567891", "1e-400", "1e400",
		"4.9e-324", "2.2250738585072011e-308", "1.7976931348623159e308",
	} {
		if v, n, ok := parseMMValue([]byte(tok)); ok && n == len(tok) {
			t.Errorf("fast path accepted %q as %v", tok, v)
		}
	}
	for tok, want := range map[string]float64{
		"-0": math.Copysign(0, -1), "0.000000000000000000000000000125": 1.25e-28,
		"1234567890123456789": 1234567890123456789, ".5": 0.5, "5.": 5, "1E+2": 100,
		"0e99999": 0, "-1.5e-3": -1.5e-3,
	} {
		v, n, ok := parseMMValue([]byte(tok))
		if !ok || n != len(tok) || math.Float64bits(v) != math.Float64bits(want) {
			t.Errorf("%q: got %v n=%d ok=%v, want %v", tok, v, n, ok, want)
		}
	}
}

// FuzzParseMMValue: whenever the fast path converts a whole token, its
// bits are strconv.ParseFloat's, and it never converts a token strconv
// rejects.
func FuzzParseMMValue(f *testing.F) {
	for _, s := range []string{
		"1.5", "-3", "2.0083183314803206", "1e-5", "-0", "0.1", "9007199254740993",
		"12345678901234567891", "4.9e-324", "1e400", "+1", "inf", "0x1p-2", "1_0",
		"7.2057594037927933e16", "2.2250738585072014e-308", "1.7976931348623157e308",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		checkMMValue(t, tok)
	})
}
