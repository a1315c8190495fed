package gpu

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pjds/internal/core"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
)

// goldenScale and goldenSeed fix the Table I matrices the golden
// KernelStats are recorded on.
const (
	goldenScale = 0.02
	goldenSeed  = 2012
)

// goldenRuns simulates every SELL-family layout the paper compares on m
// in one precision and returns the stats keyed by a stable case name.
// It also runs ELLPACK-R straight from the CSR and fails unless that
// run equals the layout's.
func goldenRuns[T matrix.Float](t *testing.T, m *matrix.CSR[T], prec string) map[string]KernelStats {
	t.Helper()
	d := TeslaC2070()
	x := make([]T, m.NCols)
	for i := range x {
		x[i] = T(1 + i%7)
	}
	y := make([]T, m.NRows+256)
	opt := RunOptions{Workers: 1, Plans: NewPlanCache(0)}
	out := map[string]KernelStats{}
	add := func(name string, st *KernelStats, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s/%s: %v", name, prec, err)
		}
		out[name+"/"+prec] = *st
	}
	st, err := RunSELL(d, newELL(m), y[:m.NRows], x, opt)
	add("ELLPACK", st, err)
	st, err = RunSELL(d, newELLR(m), y[:m.NRows], x, opt)
	add("ELLPACK-R", st, err)
	yc := make([]T, m.NRows)
	stc, err := RunELLPACKR(d, m, yc, x, opt)
	if err != nil {
		t.Fatalf("ELLPACK-R from CSR/%s: %v", prec, err)
	}
	if *stc != *st {
		t.Errorf("ELLPACK-R/%s from CSR:\n got  %+v\n want %+v", prec, *stc, *st)
	}
	if i := firstBitDiff(yc, y[:m.NRows]); i >= 0 {
		t.Errorf("ELLPACK-R/%s from CSR: y[%d] = %v, layout gives %v", prec, i, yc[i], y[i])
	}
	for _, br := range []int{1, 4, 16, 32, 64, 256} {
		p, err := core.NewPJDS(m, core.Options{BlockHeight: br})
		if err != nil {
			t.Fatal(err)
		}
		st, err := RunPJDS(d, p, y, x, opt)
		add(fmt.Sprintf("pJDS-br%d", br), st, err)
	}
	for _, sigma := range []int{1, 128, 1024, m.NRows} {
		name := fmt.Sprintf("SELL-32-%d", sigma)
		if sigma == m.NRows {
			name = "SELL-32-N"
		}
		s, err := newSliced(m, 32, sigma)
		if err != nil {
			t.Fatal(err)
		}
		st, err := RunSELL(d, s, y, x, opt)
		add(name, st, err)
	}
	return out
}

// TestGoldenKernelStats pins every KernelStats counter and the derived
// GF/s of the ELLPACK, ELLPACK-R, pJDS/JDS and SELL-C-σ kernels on the
// Table I test matrices, in both precisions, to the recorded
// testdata. Any change to a layout's address model, padding or
// metadata accounting shows up here as a byte difference.
func TestGoldenKernelStats(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the Table I matrices")
	}
	for _, name := range []string{"DLR1", "HMEp", "sAMG"} {
		t.Run(name, func(t *testing.T) {
			tm, err := matgen.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			m := tm.Generate(goldenScale, goldenSeed)
			got := goldenRuns(t, m, "DP")
			for k, v := range goldenRuns(t, matrix.Convert[float32](m), "SP") {
				got[k] = v
			}
			buf, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			buf = append(buf, '\n')
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want) {
				var wantStats map[string]KernelStats
				if err := json.Unmarshal(want, &wantStats); err != nil {
					t.Fatal(err)
				}
				for k, g := range got {
					if w, ok := wantStats[k]; !ok || g != w {
						t.Errorf("%s:\n got  %+v\n want %+v", k, g, w)
					}
				}
				if len(got) != len(wantStats) {
					t.Errorf("%d cases, golden has %d", len(got), len(wantStats))
				}
			}
		})
	}
}
