package tuner

import (
	"testing"

	"pjds/internal/matgen"
	"pjds/internal/matrix"
)

func rankFor(t *testing.T, m *matrix.CSR[float64]) []FormatScore {
	t.Helper()
	lens := make([]int, m.NRows)
	for i := range lens {
		lens[i] = m.RowLen(i)
	}
	return RankFormats(matrix.ComputeStats(m), lens, nil)
}

// TestRankFormatsAcrossZoo: structural invariants of the ranking on
// the generator zoo — all four contenders scored, ascending order,
// positive traffic, and the padding-sensitive orderings the Eq. 1
// model implies.
func TestRankFormatsAcrossZoo(t *testing.T) {
	zoo := map[string]*matrix.CSR[float64]{
		"banded":   matgen.Banded(600, 4, 20, 50, 7),
		"powerlaw": matgen.PowerLaw(500, 2, 80, 0.7, 11),
		"random":   matgen.Random(400, 3, 10, 13),
		"fem":      matgen.Stencil3D(8, 8, 8),
	}
	for name, m := range zoo {
		scores := rankFor(t, m)
		if len(scores) != 4 {
			t.Fatalf("%s: %d contenders, want 4", name, len(scores))
		}
		byName := map[string]FormatScore{}
		for i, s := range scores {
			byName[s.Format] = s
			if s.BytesPerNnz <= 0 || s.Reason == "" {
				t.Fatalf("%s: degenerate score %+v", name, s)
			}
			if i > 0 && scores[i-1].BytesPerNnz > s.BytesPerNnz {
				t.Fatalf("%s: ranking not ascending at %d", name, i)
			}
		}
		for _, want := range []string{"CRS", "pJDS", "SELL-C-σ", "CMRS"} {
			if _, ok := byName[want]; !ok {
				t.Fatalf("%s: missing contender %s", name, want)
			}
		}
		// The global sort can only shed padding relative to a σ = 256
		// window, and the scalar-CSR gather factor keeps CRS off the
		// top on every zoo matrix.
		if byName["pJDS"].BytesPerNnz > byName["SELL-C-σ"].BytesPerNnz+1e-9 {
			t.Errorf("%s: pJDS (β=%.3f) modeled above SELL-C-σ (β=%.3f)",
				name, byName["pJDS"].Beta, byName["SELL-C-σ"].Beta)
		}
		if scores[0].Format == "CRS" {
			t.Errorf("%s: uncoalesced CRS won the ranking", name)
		}
	}
}

// TestRankFormatsPrefersCMRSOnIrreducibleSkew: when even the global
// sort cannot remove padding (one dominant row inside a single
// chunk), the padding-free CMRS must outrank pJDS.
func TestRankFormatsPrefersCMRSOnIrreducibleSkew(t *testing.T) {
	coo := matrix.NewCOO[float64](33, 1200)
	for j := 0; j < 1000; j++ {
		coo.Add(0, j, 1)
	}
	for i := 1; i < 33; i++ {
		coo.Add(i, i, 1)
	}
	scores := rankFor(t, coo.ToCSR())
	pos := map[string]int{}
	for i, s := range scores {
		pos[s.Format] = i
	}
	if pos["CMRS"] > pos["pJDS"] {
		t.Fatalf("CMRS ranked below pJDS despite irreducible padding: %+v", scores)
	}
}

// TestRankFormatsPrefersPJDSOnRegularRows: near-constant row lengths
// leave β ≈ 0, so pJDS's 12 bytes/nnz beats CMRS's 13.
func TestRankFormatsPrefersPJDSOnRegularRows(t *testing.T) {
	scores := rankFor(t, matgen.Stencil3D(10, 10, 10))
	if scores[0].Format != "pJDS" && scores[0].Format != "SELL-C-σ" {
		t.Fatalf("winner on a regular stencil is %s, want a padded-sliced format: %+v", scores[0].Format, scores)
	}
	for _, s := range scores {
		if s.Format == "CMRS" && s.BytesPerNnz <= scores[0].BytesPerNnz {
			t.Fatalf("CMRS should pay its metadata byte on regular rows: %+v", scores)
		}
	}
}
