// Command matinfo inspects sparse matrices: it prints structure
// statistics, per-format storage footprints and the §II advisor's
// verdict for MatrixMarket files or generated test matrices, walks the
// Fig. 1 pJDS derivation on a worked example, and exports generated
// matrices to MatrixMarket.
//
// MatrixMarket files are ingested through the chunked parallel reader
// (no intermediate COO copy); -workers sets the conversion worker
// count and -timings prints the per-phase conversion cost breakdown.
//
// Usage:
//
//	matinfo -demo                         # Fig. 1 worked example
//	matinfo file.mtx                      # stats for a MatrixMarket file
//	matinfo -workers 4 -timings file.mtx  # parallel ingest + phase timings
//	matinfo -gen HMEp -scale 0.05         # stats for a generated matrix
//	matinfo -gen sAMG -scale 0.01 -out m.mtx
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pjds/internal/advisor"
	"pjds/internal/convert"
	"pjds/internal/core"
	"pjds/internal/experiments"
	"pjds/internal/formats"
	"pjds/internal/matrix"
	"pjds/internal/par"
	"pjds/internal/textplot"
	"pjds/internal/tuner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "matinfo:", err)
		os.Exit(1)
	}
}

// run executes the tool against the given arguments and output stream.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("matinfo", flag.ContinueOnError)
	var (
		demo     = fs.Bool("demo", false, "walk the Fig. 1 pJDS derivation on the worked example")
		gen      = fs.String("gen", "", "generate a test matrix: DLR1, DLR2, HMEp, sAMG, UHBR")
		scale    = fs.Float64("scale", experiments.DefaultScale, "scale for -gen")
		outMM    = fs.String("out", "", "write the matrix to this MatrixMarket file")
		workers  = fs.Int("workers", 0, "conversion worker count (0 = all cores)")
		timings  = fs.Bool("timings", false, "print ingest and conversion phase timings")
		recomm   = fs.Bool("recommend", false, "rank the storage formats by modeled Eq. 1 traffic and show the tuned (C, σ) if the tuning DB has this matrix")
		tuningDB = fs.String("tuning-db", "", "tuning DB consulted by -recommend (default "+tuner.DefaultPath+")")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	par.SetDefault(*workers)

	if *demo {
		return experiments.Fig1Demo(out)
	}

	// One recorder spans ingest and all format constructions; -timings
	// prints its merged phase table at the end.
	rec := convert.NewRecorder(nil, nil, 0)
	opt := matrix.ConvertOptions{Workers: *workers, Arena: matrix.NewArena()}
	if *timings {
		opt.Timer = rec
	}

	var m *matrix.CSR[float64]
	var name string
	var rs matrix.ReadStats
	switch {
	case *gen != "":
		var err error
		m, err = experiments.Matrix(*gen, *scale)
		if err != nil {
			return err
		}
		name = *gen
	case fs.NArg() == 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		// Stream straight from the file into CSR: the chunked reader
		// never materializes a COO copy of the whole file.
		m, rs, err = matrix.ReadMatrixMarketOpt[float64](f, opt)
		f.Close()
		if err != nil {
			return err
		}
		name = fs.Arg(0)
	default:
		return fmt.Errorf("need -demo, -gen NAME, or a MatrixMarket file argument")
	}

	st := matrix.ComputeStats(m)
	fmt.Fprintf(out, "%s: %s\n\n", name, st)
	if err := printFootprints(out, m, opt); err != nil {
		return err
	}
	rec2 := advisor.Recommend(st, nil, nil)
	fmt.Fprintf(out, "\nadvice: offload %s (PCIe penalty ~%.0f%%), format %s\n", rec2.Offload, rec2.PCIePenaltyPct, rec2.Format)
	for _, r := range rec2.Reasons {
		fmt.Fprintf(out, "  - %s\n", r)
	}

	if *recomm {
		if err := printRecommendation(out, m, st, *tuningDB); err != nil {
			return err
		}
	}

	if *outMM != "" {
		f, err := os.Create(*outMM)
		if err != nil {
			return err
		}
		if err := matrix.WriteMatrixMarket(f, m); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote %s\n", *outMM)
	}

	if *timings {
		fmt.Fprintf(out, "\nconversion phases (%d workers):\n", par.Resolve(*workers))
		if rs.HeaderNnz > 0 || rs.Chunks > 0 {
			fmt.Fprintf(out, "  ingest: %d header entries, %d stored, %d chunks\n",
				rs.HeaderNnz, rs.Entries, rs.Chunks)
		}
		rows := [][]string{{"phase", "seconds", "calls"}}
		for _, p := range rec.Phases() {
			rows = append(rows, []string{p.Name, fmt.Sprintf("%.6f", p.Seconds), fmt.Sprint(p.Count)})
		}
		rows = append(rows, []string{"total", fmt.Sprintf("%.6f", rec.TotalSeconds()), ""})
		if err := textplot.Table(out, rows); err != nil {
			return err
		}
	}
	return nil
}

// printRecommendation renders the format-selection ranking (all four
// contenders by modeled Eq. 1 traffic) and, when the tuning DB holds a
// sweep for this matrix's structure, the measured winner with its
// tuned parameters.
func printRecommendation(out io.Writer, m *matrix.CSR[float64], st matrix.Stats, dbPath string) error {
	lens := make([]int, m.NRows)
	for i := range lens {
		lens[i] = m.RowLen(i)
	}
	scores := advisor.RankFormats(st, lens, nil)
	fmt.Fprintf(out, "\nformat ranking (modeled DP bytes/nnz, Eq. 1):\n")
	rows := [][]string{{"rank", "format", "bytes/nnz", "beta", "why"}}
	for i, s := range scores {
		beta := "-"
		if s.Format != "CRS" && s.Format != "CMRS" {
			beta = fmt.Sprintf("%.3f", s.Beta)
		}
		rows = append(rows, []string{
			fmt.Sprint(i + 1), s.Format,
			fmt.Sprintf("%.2f", s.BytesPerNnz), beta, s.Reason,
		})
	}
	if err := textplot.Table(out, rows); err != nil {
		return err
	}

	if dbPath == "" {
		dbPath = tuner.DefaultPath
	}
	entries, err := tuner.Read(dbPath)
	if err != nil {
		return err
	}
	e, ok := tuner.Lookup(entries, tuner.Fingerprint(m), "")
	if !ok {
		fmt.Fprintf(out, "\ntuned: no entry in %s for this structure (run spmvbench -format auto to sweep)\n", dbPath)
		return nil
	}
	fmt.Fprintf(out, "\ntuned: %s measured %.2f ns/nnz on %s (workers %d, swept %s)\n",
		e.Winner.Label(), e.Winner.MeasuredNsPerNnz, e.Device, e.Workers, e.Time)
	return nil
}

// printFootprints renders the per-format storage comparison.
func printFootprints(out io.Writer, m *matrix.CSR[float64], opt matrix.ConvertOptions) error {
	pj, err := core.NewPJDS(m, core.Options{Convert: opt})
	if err != nil {
		return err
	}
	jds, err := core.NewPJDS(m, core.Options{BlockHeight: 1, Convert: opt})
	if err != nil {
		return err
	}
	sell, err := core.NewSELL(m, 32, m.NRows, opt)
	if err != nil {
		return err
	}
	list := []formats.Format[float64]{
		formats.NewCRS(m),
		core.NewELLPACK(m, opt),
		core.NewELLPACKR(m, opt),
		sell,
		pj,
		jds,
	}
	ell := list[1]
	rows := [][]string{{"format", "stored elems", "footprint MB (DP)", "vs ELLPACK"}}
	for _, f := range list {
		rows = append(rows, []string{
			f.Name(),
			fmt.Sprint(f.StoredElems()),
			fmt.Sprintf("%.1f", float64(f.FootprintBytes())/(1<<20)),
			fmt.Sprintf("%+.1f%%", -100*formats.DataReduction[float64](ell, f)),
		})
	}
	return textplot.Table(out, rows)
}
