package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"pjds/internal/hostkernel"
	"pjds/internal/model"
	"pjds/internal/profiles"
	"pjds/internal/telemetry"
	"pjds/internal/textplot"
)

// HostBenchRow is one matrix's measurement of the host-kernel
// benchmark: wall-clock performance of the selected hostkernel on the
// machine running the experiment, next to the Eq. 1 effective
// bandwidth it implies and the Westmere model baseline for context.
type HostBenchRow struct {
	Matrix  string
	N       int
	Nnz     int64
	Kernel  string
	Workers int
	Iters   int

	// Seconds is the total kernel time of all iterations; NsPerNnz,
	// GFlops and GBs are derived per application. GBs charges the
	// minimal DP data traffic of Eq. 1 (12 B/nnz + 24 B/row + 8 B/col),
	// so it is the effective memory bandwidth at ideal α.
	Seconds  float64
	NsPerNnz float64
	GFlops   float64
	GBs      float64

	// ModelGFlops is the Westmere EP CRS model on the same matrix — the
	// paper's Table I CPU baseline, printed for calibration.
	ModelGFlops float64

	// Digest is the SHA-256 of the result vector's float64 bits. Two
	// kernels are byte-identical iff their digests match, which is what
	// scripts/check.sh diffs between -host-kernel=blocked and =naive.
	Digest string
}

// HostBenchResult is the complete host-kernel benchmark.
type HostBenchResult struct {
	Scale  float64
	Kernel string
	Rows   []HostBenchRow
}

// RunHostBench measures the selected host kernel on the named paper
// matrices (nil = Table I set) at the given scale. Each matrix is
// applied iters times (minimum 1) after one warm-up application; the
// per-application numbers are averages. Results go to w (may be nil).
func RunHostBench(kind hostkernel.Kind, names []string, scale float64, iters, workers int, w io.Writer) (*HostBenchResult, error) {
	if w == nil {
		w = io.Discard
	}
	if len(names) == 0 {
		names = Table1Matrices()
	}
	if iters < 1 {
		iters = 1
	}
	res := &HostBenchResult{Scale: scale, Kernel: string(kind)}
	for _, name := range names {
		// Stage labels on the coordinating goroutine: generation and
		// format conversion are phase=convert, the measured
		// applications phase=host. Pool workers carry their own
		// phase=host labels from construction.
		profiles.SetPhase(profiles.PhaseConvert)
		m, err := Matrix(name, scale)
		if err != nil {
			return nil, err
		}
		k, err := hostkernel.New(kind, m, hostkernel.Options{
			Workers: workers,
			Metrics: telemetry.Default(),
		})
		if err != nil {
			return nil, err
		}
		profiles.SetPhase(profiles.PhaseHost, "kernel", string(kind))
		x := testVector(m.NCols)
		y := make([]float64, m.NRows)
		if err := k.MulVec(y, x); err != nil { // warm up, surface errors
			k.Close()
			return nil, err
		}
		t0 := time.Now()
		for it := 0; it < iters; it++ {
			if err := k.MulVec(y, x); err != nil {
				k.Close()
				return nil, err
			}
		}
		sec := time.Since(t0).Seconds()
		k.Close()

		nnz := int64(m.Nnz())
		row := HostBenchRow{
			Matrix:  name,
			N:       m.NRows,
			Nnz:     nnz,
			Kernel:  string(kind),
			Workers: workers,
			Iters:   iters,
			Seconds: sec,
			Digest:  digestVector(y),
		}
		if perApp := sec / float64(iters); perApp > 0 && nnz > 0 {
			row.NsPerNnz = perApp * 1e9 / float64(nnz)
			row.GFlops = 2 * float64(nnz) / perApp / 1e9
			minBytes := 12*nnz + 24*int64(m.NRows) + 8*int64(m.NCols)
			row.GBs = float64(minBytes) / perApp / 1e9
		}
		if st, err := model.WestmereEP().EstimateCRS(m); err == nil {
			row.ModelGFlops = st.GFlops
		}
		res.Rows = append(res.Rows, row)
		DropCached(name, scale)
	}
	return res, renderHostBench(w, res)
}

// digestVector hashes the float64 bit patterns of y (little-endian),
// so the digest is identical exactly when the vectors are
// bit-identical.
func digestVector(y []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range y {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// renderHostBench prints the benchmark as a table plus one digest line
// per matrix (the digest lines are what the byte-diff smoke compares).
func renderHostBench(w io.Writer, res *HostBenchResult) error {
	fmt.Fprintf(w, "\nHost kernel benchmark (kernel %s, scale %g, this machine)\n", res.Kernel, res.Scale)
	rows := [][]string{{"matrix", "N", "nnz", "ns/nnz", "GF/s", "GB/s (Eq.1)", "Westmere model GF/s"}}
	for _, r := range res.Rows {
		rows = append(rows, []string{
			r.Matrix,
			fmt.Sprint(r.N),
			fmt.Sprint(r.Nnz),
			fmt.Sprintf("%.2f", r.NsPerNnz),
			fmt.Sprintf("%.2f", r.GFlops),
			fmt.Sprintf("%.2f", r.GBs),
			fmt.Sprintf("%.2f", r.ModelGFlops),
		})
	}
	if err := textplot.Table(w, rows); err != nil {
		return err
	}
	for _, r := range res.Rows {
		fmt.Fprintf(w, "digest %s %s\n", r.Matrix, r.Digest)
	}
	return nil
}
