package gpu

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pjds/internal/core"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
)

// baselineRecord is one pinned kernel run: every KernelStats counter
// and an FNV-64a digest of the result vector's bit patterns.
type baselineRecord struct {
	Stats KernelStats
	Y     string
}

// yDigest hashes the IEEE bit patterns of y.
func yDigest[T matrix.Float](y []T) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range y {
		u := math.Float64bits(float64(v))
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// baselineRuns simulates the comparison kernels outside the SELL
// family on m in one precision: CSR-scalar, CSR-vector, ELLR-T at
// every T that divides the warp, BELLPACK at three block sizes and
// CMRS at three strip heights, on the C2070.
func baselineRuns[T matrix.Float](t *testing.T, m *matrix.CSR[T], prec string) map[string]baselineRecord {
	t.Helper()
	d := TeslaC2070()
	x := make([]T, m.NCols)
	for i := range x {
		x[i] = T(1 + i%7)
	}
	opt := RunOptions{Workers: 1, Plans: NewPlanCache(0)}
	out := map[string]baselineRecord{}
	add := func(name string, run func(y []T) (*KernelStats, error)) {
		t.Helper()
		y := make([]T, m.NRows)
		st, err := run(y)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, prec, err)
		}
		out[name+"/"+prec] = baselineRecord{Stats: *st, Y: yDigest(y)}
	}
	add("CSR-scalar", func(y []T) (*KernelStats, error) { return RunCSRScalar(d, m, y, x, opt) })
	add("CSR-vector", func(y []T) (*KernelStats, error) { return RunCSRVector(d, m, y, x, opt) })
	for _, threads := range []int{1, 2, 4, 8, 16, 32} {
		e, err := core.NewELLRT(m, threads)
		if err != nil {
			t.Fatal(err)
		}
		add(e.Name(), func(y []T) (*KernelStats, error) { return RunELLRT(d, e, y, x, opt) })
	}
	for _, blk := range []int{2, 5, 6} {
		e, err := core.NewBELLPACK(m, blk, blk)
		if err != nil {
			t.Fatal(err)
		}
		add(e.Name(), func(y []T) (*KernelStats, error) { return RunBELLPACK(d, e, y, x, opt) })
	}
	for _, h := range []int{1, 16, 32} {
		c, err := core.NewCMRS(m, h)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("CMRS-%d", h), func(y []T) (*KernelStats, error) { return RunCMRS(d, c, y, x, opt) })
	}
	return out
}

// TestBaselineKernelStats pins the counters, derived GF/s and result
// digests of CSR-scalar, CSR-vector, ELLR-T, BELLPACK and CMRS on the
// Table I test matrices, in both precisions, to testdata. A change to
// any of these kernels' lane-to-element mapping, coalescing, L2,
// metadata or result-vector accounting — or to the numeric order of a
// row's sum — shows up here as a byte difference.
func TestBaselineKernelStats(t *testing.T) {
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
			got := baselineRuns(t, m, "DP")
			for k, v := range baselineRuns(t, matrix.Convert[float32](m), "SP") {
				got[k] = v
			}
			buf, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			buf = append(buf, '\n')
			want, err := os.ReadFile(filepath.Join("testdata", name+".baseline.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want) {
				var wantRecs map[string]baselineRecord
				if err := json.Unmarshal(want, &wantRecs); err != nil {
					t.Fatal(err)
				}
				for k, g := range got {
					if w, ok := wantRecs[k]; !ok || g != w {
						t.Errorf("%s:\n got  %+v\n want %+v", k, g, w)
					}
				}
				if len(got) != len(wantRecs) {
					t.Errorf("%d cases, baseline has %d", len(got), len(wantRecs))
				}
			}
		})
	}
}
