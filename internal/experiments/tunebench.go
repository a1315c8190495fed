package experiments

import (
	"fmt"
	"io"
	"time"

	"pjds/internal/gpu"
	"pjds/internal/hostkernel"
	"pjds/internal/matrix"
	"pjds/internal/telemetry"
	"pjds/internal/textplot"
	"pjds/internal/tuner"
)

// TuneBenchRow is one matrix's format-selection measurement: the
// auto-tuned (or fixed) pick next to the pJDS preset it must not lose
// to, plus the digest gate proving the pick is bit-identical to the
// naive CSR reference.
type TuneBenchRow struct {
	Matrix   string `json:"matrix"`
	N        int    `json:"n"`
	Nnz      int64  `json:"nnz"`
	Winner   string `json:"winner"`
	CacheHit bool   `json:"cache_hit"`

	// AutoNsPerNnz is the selected kernel's best-of-iters time;
	// PJDSNsPerNnz is the pJDS preset measured the same way in the
	// same process — the hard gate compares the two.
	AutoNsPerNnz float64 `json:"auto_ns_per_nnz"`
	PJDSNsPerNnz float64 `json:"pjds_ns_per_nnz"`

	// ModelBytesPerNnz is the Eq. 1 traffic the tuner predicted for
	// the winner (perfreport -tune shows the full measured-vs-model
	// grid).
	ModelBytesPerNnz float64 `json:"model_bytes_per_nnz"`

	// DigestMatch reports that the selected kernel's result vector is
	// bit-identical to the naive CSR kernel's.
	Digest      string `json:"digest"`
	DigestMatch bool   `json:"digest_match"`
}

// TuneBenchResult is the complete format-selection benchmark.
type TuneBenchResult struct {
	Scale  float64        `json:"scale"`
	Format string         `json:"format"`
	Device string         `json:"device"`
	Rows   []TuneBenchRow `json:"entries"`
}

// RunTuneBench benchmarks format selection on the named paper matrices
// (nil = Table I set) at the given scale. format "auto" consults the
// tuning DB at dbPath ("" = tuner.DefaultPath) via TuneOrLookup — the
// first run sweeps and persists, later runs answer from the DB; a
// fixed format name (crs, pjds, sell, cmrs) skips the tuner and
// measures that cell directly. Every pick is digest-checked against
// the naive CSR kernel.
func RunTuneBench(format string, names []string, scale float64, iters, workers int, dbPath string, w io.Writer) (*TuneBenchResult, error) {
	if w == nil {
		w = io.Discard
	}
	if len(names) == 0 {
		names = Table1Matrices()
	}
	if iters < 1 {
		iters = 1
	}
	cfg := tuner.Config{Workers: workers, Metrics: telemetry.Default()}
	res := &TuneBenchResult{Scale: scale, Format: format, Device: gpu.TeslaC2070().Name}
	for _, name := range names {
		m, err := Matrix(name, scale)
		if err != nil {
			return nil, err
		}
		row := TuneBenchRow{Matrix: name, N: m.NRows, Nnz: int64(m.Nnz())}

		var cell tuner.Cell
		switch format {
		case "auto":
			e, hit, err := tuner.TuneOrLookup(m, name, dbPath, cfg)
			if err != nil {
				return nil, err
			}
			cell, row.CacheHit = e.Winner, hit
		case "crs", "cmrs":
			cell = tuner.Cell{Format: format, Height: 16}
		case "pjds":
			cell = tuner.Cell{Format: "pjds", C: 32, Sigma: m.NRows}
		case "sell":
			cell = tuner.Cell{Format: "sell", C: 32, Sigma: 256}
		default:
			return nil, fmt.Errorf("tunebench: unknown format %q (want auto, crs, pjds, sell, or cmrs)", format)
		}
		row.Winner = cell.Label()
		row.ModelBytesPerNnz = cell.ModelBytesPerNnz

		x := testVector(m.NCols)
		ns, y, err := measureCells([2]tuner.Cell{cell, {Format: "pjds"}}, m, workers, iters, x)
		if err != nil {
			return nil, err
		}
		row.AutoNsPerNnz, row.PJDSNsPerNnz = ns[0], ns[1]
		row.Digest = digestVector(y)

		// The bit-identity gate: every contender runs in the original
		// basis, so the pick must reproduce naive CSR exactly.
		nk, err := hostkernel.New(hostkernel.KindNaive, m, hostkernel.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		ref := make([]float64, m.NRows)
		err = nk.MulVec(ref, x)
		nk.Close()
		if err != nil {
			return nil, err
		}
		row.DigestMatch = digestVector(ref) == row.Digest

		res.Rows = append(res.Rows, row)
		DropCached(name, scale)
	}
	return res, renderTuneBench(w, res)
}

// measureCells times the host kernels of two grid cells on one
// matrix: both are built and warmed up first, then each of iters
// rounds times one application of each, so load from a shared host
// lands on both sides rather than on whichever ran second. It returns
// each cell's best-of-iters time per nnz and the first cell's result.
func measureCells(cells [2]tuner.Cell, m *matrix.CSR[float64], workers, iters int, x []float64) ([2]float64, []float64, error) {
	var ns [2]float64
	var ks [2]hostkernel.Kernel
	var ys [2][]float64
	for i, c := range cells {
		k, err := tuner.KernelFor(c, m, workers, nil)
		if err != nil {
			return ns, nil, err
		}
		defer k.Close()
		ks[i], ys[i] = k, make([]float64, m.NRows)
		if err := k.MulVec(ys[i], x); err != nil {
			return ns, nil, err
		}
	}
	var best [2]float64
	for it := 0; it < iters; it++ {
		for i, k := range ks {
			t0 := time.Now()
			if err := k.MulVec(ys[i], x); err != nil {
				return ns, nil, err
			}
			if sec := time.Since(t0).Seconds(); best[i] == 0 || sec < best[i] {
				best[i] = sec
			}
		}
	}
	if nnz := m.Nnz(); nnz > 0 {
		for i := range ns {
			ns[i] = best[i] * 1e9 / float64(nnz)
		}
	}
	return ns, ys[0], nil
}

// renderTuneBench prints the selection table plus the digest-gate
// summary line scripts grep for.
func renderTuneBench(w io.Writer, res *TuneBenchResult) error {
	fmt.Fprintf(w, "\nFormat selection benchmark (format %s, scale %g, this machine)\n", res.Format, res.Scale)
	rows := [][]string{{"matrix", "N", "nnz", "pick", "cache", "ns/nnz", "pJDS ns/nnz", "speedup"}}
	for _, r := range res.Rows {
		cache := "sweep"
		if r.CacheHit {
			cache = "hit"
		}
		speedup := 0.0
		if r.AutoNsPerNnz > 0 {
			speedup = r.PJDSNsPerNnz / r.AutoNsPerNnz
		}
		rows = append(rows, []string{
			r.Matrix, fmt.Sprint(r.N), fmt.Sprint(r.Nnz), r.Winner, cache,
			fmt.Sprintf("%.2f", r.AutoNsPerNnz),
			fmt.Sprintf("%.2f", r.PJDSNsPerNnz),
			fmt.Sprintf("%.2fx", speedup),
		})
	}
	if err := textplot.Table(w, rows); err != nil {
		return err
	}
	for _, r := range res.Rows {
		verdict := "MATCH"
		if !r.DigestMatch {
			verdict = "MISMATCH"
		}
		fmt.Fprintf(w, "digest %s %s %s\n", r.Matrix, verdict, r.Digest)
	}
	return nil
}
