package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"pjds/internal/hostkernel"
	"pjds/internal/model"
	"pjds/internal/profiles"
	"pjds/internal/telemetry"
	"pjds/internal/textplot"
)

// HostBenchRow is one (matrix, kind) measurement of the host-kernel
// benchmark: wall-clock performance of one hostkernel kind on the
// machine running the experiment, next to the Eq. 1 effective
// bandwidth it implies and the Westmere model baseline for context.
type HostBenchRow struct {
	Matrix  string
	N       int
	Nnz     int64
	Kernel  string
	Workers int

	// Best is the fastest timed apply and Spread the slowest minus the
	// fastest (hostkernel.Measure); NsPerNnz, GFlops and GBs derive
	// from Best. GBs charges the minimal DP data traffic of Eq. 1
	// (12 B/nnz + 24 B/row + 8 B/col), so it is the effective memory
	// bandwidth at ideal α.
	Best     time.Duration
	Spread   time.Duration
	NsPerNnz float64
	GFlops   float64
	GBs      float64

	// ModelGFlops is the Westmere EP CRS model on the same matrix — the
	// paper's Table I CPU baseline, printed for calibration.
	ModelGFlops float64

	// Digest is the SHA-256 of the result vector's float64 bits. Two
	// kernels are byte-identical iff their digests match, which is what
	// scripts/check.sh compares across the kinds of each matrix.
	Digest string
}

// HostBenchResult is the complete host-kernel benchmark.
type HostBenchResult struct {
	Scale  float64
	Rounds int
	CPUs   int
	Rows   []HostBenchRow
}

// RunHostBench measures every hostkernel kind on the named paper
// matrices (nil = Table I set) at the given scale. For each matrix it
// builds one kernel per kind and times them together through
// hostkernel.Measure over rounds rounds (minimum 1), so the kinds of a
// matrix share whatever load the host carries. Results go to w (may be
// nil).
func RunHostBench(names []string, scale float64, rounds, workers int, w io.Writer) (*HostBenchResult, error) {
	if w == nil {
		w = io.Discard
	}
	if len(names) == 0 {
		names = Table1Matrices()
	}
	res := &HostBenchResult{Scale: scale, Rounds: max(rounds, 1), CPUs: runtime.NumCPU()}
	for _, name := range names {
		if err := res.measure(name, workers); err != nil {
			return nil, err
		}
		DropCached(name, scale)
	}
	return res, renderHostBench(w, res)
}

// measure appends one row per kind on the named matrix.
func (res *HostBenchResult) measure(name string, workers int) error {
	// Stage labels on the coordinating goroutine: generation and
	// format conversion are phase=convert, the measured applications
	// phase=host. Pool workers carry their own phase=host labels from
	// construction.
	profiles.SetPhase(profiles.PhaseConvert)
	m, err := Matrix(name, res.Scale)
	if err != nil {
		return err
	}
	var ks []hostkernel.Kernel
	defer func() {
		for _, k := range ks {
			k.Close()
		}
	}()
	var ys [][]float64
	for _, kind := range hostkernel.Kinds() {
		k, err := hostkernel.New(kind, m, hostkernel.Options{Workers: workers, Metrics: telemetry.Default()})
		if err != nil {
			return err
		}
		ks = append(ks, k)
		ys = append(ys, make([]float64, m.NRows))
	}
	profiles.SetPhase(profiles.PhaseHost)
	ts, err := hostkernel.Measure(ks, ys, testVector(m.NCols), res.Rounds)
	if err != nil {
		return err
	}

	nnz := int64(m.Nnz())
	minBytes := 12*nnz + 24*int64(m.NRows) + 8*int64(m.NCols)
	row := HostBenchRow{Matrix: name, N: m.NRows, Nnz: nnz, Workers: workers}
	if st, err := model.WestmereEP().EstimateCRS(m); err == nil {
		row.ModelGFlops = st.GFlops
	}
	for i, k := range ks {
		r := row
		r.Kernel, r.Best, r.Spread, r.Digest = k.Name(), ts[i].Best, ts[i].Spread, digestVector(ys[i])
		if sec := ts[i].Best.Seconds(); sec > 0 && nnz > 0 {
			r.NsPerNnz = sec * 1e9 / float64(nnz)
			r.GFlops = 2 * float64(nnz) / sec / 1e9
			r.GBs = float64(minBytes) / sec / 1e9
		}
		res.Rows = append(res.Rows, r)
	}
	return nil
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
// per (matrix, kind) (the digest lines are what the byte-diff smoke
// compares).
func renderHostBench(w io.Writer, res *HostBenchResult) error {
	fmt.Fprintf(w, "\nHost kernel benchmark (every kind interleaved, best of %d rounds, scale %g, %d CPUs, this machine)\n", res.Rounds, res.Scale, res.CPUs)
	rows := [][]string{{"matrix", "kernel", "N", "nnz", "ns/nnz", "spread ns/nnz", "GF/s", "GB/s (Eq.1)", "Westmere model GF/s"}}
	for _, r := range res.Rows {
		rows = append(rows, []string{
			r.Matrix,
			r.Kernel,
			fmt.Sprint(r.N),
			fmt.Sprint(r.Nnz),
			fmt.Sprintf("%.2f", r.NsPerNnz),
			fmt.Sprintf("%.2f", float64(r.Spread)/float64(max(r.Nnz, 1))),
			fmt.Sprintf("%.2f", r.GFlops),
			fmt.Sprintf("%.2f", r.GBs),
			fmt.Sprintf("%.2f", r.ModelGFlops),
		})
	}
	if err := textplot.Table(w, rows); err != nil {
		return err
	}
	for _, r := range res.Rows {
		fmt.Fprintf(w, "digest %s %s %s\n", r.Matrix, r.Kernel, r.Digest)
	}
	return nil
}
