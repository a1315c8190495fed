package formats

import (
	"reflect"
	"testing"

	"pjds/internal/core"
	"pjds/internal/matrix"
)

// TestFormatsWorkerDeterminism builds every format on the same matrix
// sequentially and with the forced-parallel path at several worker
// counts; the structures must be reflect.DeepEqual (bit-identical
// arrays) in every case.
func TestFormatsWorkerDeterminism(t *testing.T) {
	m := randomCSR(400, 250, 0.04, 13)
	seq := matrix.ConvertOptions{Workers: 1}
	for w := 2; w <= 8; w += 2 {
		par := matrix.ConvertOptions{Workers: w, ForceParallel: true}

		if base := core.NewELLPACK(m, seq); !reflect.DeepEqual(base, core.NewELLPACK(m, par)) {
			t.Fatalf("workers=%d: ELLPACK differs", w)
		}
		if base := core.NewELLPACKR(m, seq); !reflect.DeepEqual(base, core.NewELLPACKR(m, par)) {
			t.Fatalf("workers=%d: ELLPACK-R differs", w)
		}

		bb, err := NewBELLPACKWith(m, 4, 4, seq)
		if err != nil {
			t.Fatal(err)
		}
		bp, err := NewBELLPACKWith(m, 4, 4, par)
		if err != nil || !reflect.DeepEqual(bb, bp) {
			t.Fatalf("workers=%d: BELLPACK differs (err=%v)", w, err)
		}

		sb, err := core.NewSELL(m, 32, 128, seq)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := core.NewSELL(m, 32, 128, par)
		if err != nil || !reflect.DeepEqual(sb, sp) {
			t.Fatalf("workers=%d: SELL differs (err=%v)", w, err)
		}

		eb, err := NewELLRTWith(m, 2, seq)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := NewELLRTWith(m, 2, par)
		if err != nil || !reflect.DeepEqual(eb, ep) {
			t.Fatalf("workers=%d: ELLR-T differs (err=%v)", w, err)
		}

		jb, err := core.NewPJDS(m, core.Options{Convert: seq})
		if err != nil {
			t.Fatal(err)
		}
		jp, err := core.NewPJDS(m, core.Options{Convert: par})
		if err != nil || !reflect.DeepEqual(jb, jp) {
			t.Fatalf("workers=%d: pJDS differs (err=%v)", w, err)
		}
	}
}

// TestSlicedELLWithMatchesLegacy pins the windowed parallel sort to the
// sequential build across σ values, including σ that does not divide
// n.
func TestSlicedELLWithMatchesLegacy(t *testing.T) {
	m := randomCSR(317, 80, 0.06, 29)
	for _, sigma := range []int{1, 32, 100, 317, 1 << 30} {
		want, err := newSliced(m, 16, sigma)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.NewSELL(m, 16, sigma, matrix.ConvertOptions{Workers: 4, ForceParallel: true, Arena: matrix.NewArena()})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("sigma=%d: parallel SELL differs from sequential build", sigma)
		}
	}
}
