// Command perfreport produces causal performance reports for the
// simulated GPGPU cluster: the cross-rank critical path and its
// rank × lane × phase attribution, overlap efficiency per §III-A
// communication mode, and the measured-vs-model kernel table (Eq. 1),
// plus a perf-regression gate comparing two report artifacts.
//
// Usage:
//
//	perfreport [-matrix DLR1] [-scale 0.1] [-ranks 8] [-iters 2]
//	           [-format ellpack-r] [-modes vector,naive-overlap,task]
//	           [-json] [-o FILE]
//	    run the distributed benchmark per mode and report on each.
//
//	perfreport -trace-in trace.json [-metrics-in metrics.json]
//	    analyze saved artifacts (scaling -trace-out / -metrics-out)
//	    instead of running a scenario.
//
//	perfreport diff [-tol 0.02] [-tol-metric gflops=0.05,...] OLD NEW
//	    compare two JSON report artifacts of one command leaf by leaf
//	    under tolerance bands; exit non-zero when any metric regressed
//	    (the check.sh self-diff gate).
//
//	perfreport -convert [-matrix sAMG] [-scale 0.05] [-workers 4] [-ranks 4]
//	    measure the ingest-and-convert pipeline (MatrixMarket parse,
//	    CSR assembly, pJDS/ELLPACK-R construction, partitioning) at 1
//	    worker and at -workers, and report the conversion cost in
//	    seconds and in modeled spMVM-equivalents (§II-C amortization).
//
//	perfreport -host [-matrix sAMG] [-scale 0.1] [-iters 5]
//	    measure every CPU host kernel (naive, blocked, sell) on this
//	    machine and report GFLOP/s and effective GB/s next to the
//	    Eq. 1 model prediction and the Westmere CRS baseline.
//
//	perfreport -profile cpu.pprof [-check-attributed 0.9] [-trace-in trace.json]
//	    slice a labeled CPU/heap profile by the phase pprof labels the
//	    hot paths carry and print the per-phase sample attribution
//	    table; with -trace-in, cross-check the profile's phase set
//	    against the span lanes of the trace. -check-attributed fails
//	    when less than the given fraction of samples carries a known
//	    phase label (the check.sh smoke gate).
//
//	perfreport -tune [-tuning-db .spmv/tuning.jsonl] [-matrix sAMG]
//	    report the persisted (C, σ) tuning sweeps: every grid cell's
//	    Eq. 1 traffic prediction next to its measured replay time,
//	    model vs measured ranks, and the implied effective bandwidth
//	    (where the two rank columns disagree, the model is missing a
//	    machine effect).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"pjds/internal/convert"
	"pjds/internal/core"
	"pjds/internal/critpath"
	"pjds/internal/distmv"
	"pjds/internal/experiments"
	"pjds/internal/gpu"
	"pjds/internal/hostkernel"
	"pjds/internal/matrix"
	"pjds/internal/model"
	"pjds/internal/profiles"
	"pjds/internal/telemetry"
	"pjds/internal/tuner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfreport:", err)
		os.Exit(1)
	}
}

// run executes the tool against the given arguments and output stream.
func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "diff" {
		return runDiff(args[1:], out)
	}
	fs := flag.NewFlagSet("perfreport", flag.ContinueOnError)
	var (
		matrixArg = fs.String("matrix", "DLR1", "matrix: DLR1 or UHBR (any catalog name accepted)")
		scale     = fs.Float64("scale", experiments.DefaultScale, "matrix scale, 1 = published size")
		ranks     = fs.Int("ranks", 8, "node count for the scenario run")
		iters     = fs.Int("iters", 2, "timed spMVM iterations")
		formatArg = fs.String("format", "ellpack-r", "device format: ellpack-r or pjds")
		modesArg  = fs.String("modes", "", "comma-separated mode slugs (default: all of vector,naive-overlap,task)")
		traceIn   = fs.String("trace-in", "", "analyze this Chrome trace artifact instead of running a scenario")
		metricsIn = fs.String("metrics-in", "", "JSON metrics snapshot accompanying -trace-in (optional)")
		convMode  = fs.Bool("convert", false, "measure the ingest-and-convert pipeline instead of the spMVM")
		hostMode  = fs.Bool("host", false, "measure the CPU host kernels on this machine instead of the simulated cluster")
		workers   = fs.Int("workers", 4, "parallel worker count for -convert")
		profileIn = fs.String("profile", "", "attribute a labeled CPU/heap pprof profile by phase instead of running a scenario")
		checkAttr = fs.Float64("check-attributed", 0, "with -profile: fail unless at least this fraction of samples carries a known phase label")
		tuneMode  = fs.Bool("tune", false, "report the tuning DB: measured vs Eq. 1-modeled cost per (C, σ) grid cell, per sweep")
		tuningDB  = fs.String("tuning-db", "", "tuning DB for -tune (default "+tuner.DefaultPath+")")
		jsonOut   = fs.Bool("json", false, "emit the report as JSON instead of text")
		outFile   = fs.String("o", "", "write the report to this file instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	w := out
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	if *tuneMode {
		return runTuneReport(w, *tuningDB, *matrixArg, fs, *jsonOut)
	}
	if *profileIn != "" {
		return runProfileReport(w, *profileIn, *traceIn, *checkAttr, *jsonOut)
	}
	if *traceIn != "" {
		return analyzeArtifacts(w, *traceIn, *metricsIn, *jsonOut)
	}
	if *convMode {
		if err := runConvertReport(w, *matrixArg, *scale, *ranks, *workers, *jsonOut); err != nil {
			return err
		}
		if *outFile != "" {
			fmt.Fprintf(out, "wrote %s\n", *outFile)
		}
		return nil
	}
	if *hostMode {
		if err := runHostReport(w, *matrixArg, *scale, *iters, *jsonOut); err != nil {
			return err
		}
		if *outFile != "" {
			fmt.Fprintf(out, "wrote %s\n", *outFile)
		}
		return nil
	}

	format := distmv.FormatELLPACKR
	switch strings.ToLower(*formatArg) {
	case "ellpack-r", "ellpackr":
	case "pjds":
		format = distmv.FormatPJDS
	default:
		return fmt.Errorf("unknown format %q", *formatArg)
	}
	modes, err := parseModes(*modesArg)
	if err != nil {
		return err
	}
	reports, err := experiments.RunPerfReports(experiments.PerfReportConfig{
		Matrix:     *matrixArg,
		Scale:      *scale,
		Ranks:      *ranks,
		Iterations: *iters,
		Format:     format,
		Modes:      modes,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{"reports": reports})
	}
	for i, mr := range reports {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%.2f GF/s at P=%d (%.3g s/iter)\n", mr.GFlops, mr.Ranks, mr.PerIterSeconds)
		if err := mr.Report.WriteText(w); err != nil {
			return err
		}
	}
	if *outFile != "" {
		fmt.Fprintf(out, "wrote %s\n", *outFile)
	}
	return nil
}

// convertPipeline runs the full ingest-and-convert pipeline (parse the
// serialized MatrixMarket bytes, assemble CSR, build pJDS and
// ELLPACK-R, partition and distribute over ranks) at the given worker
// count and returns the phase recorder plus the built formats.
func convertPipeline(doc []byte, ranks, workers int) (*convert.Recorder, *core.PJDS[float64], *core.SELL[float64], error) {
	rec := convert.NewRecorder(telemetry.NewRegistry(), nil, 0)
	opt := matrix.ConvertOptions{Workers: workers, Arena: matrix.NewArena(), Timer: rec}
	m, _, err := matrix.ReadMatrixMarketOpt[float64](bytes.NewReader(doc), opt)
	if err != nil {
		return nil, nil, nil, err
	}
	pj, err := core.NewPJDS(m, core.Options{Convert: opt})
	if err != nil {
		return nil, nil, nil, err
	}
	er := core.NewELLPACKR(m, opt)
	pt, err := distmv.PartitionByNnz(m, ranks)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := distmv.DistributeOpt(m, pt, opt); err != nil {
		return nil, nil, nil, err
	}
	return rec, pj, er, nil
}

// runConvertReport measures the conversion pipeline at 1 worker and at
// the requested worker count and reports the cost in seconds and in
// modeled spMVM-equivalents (the paper's §II-C amortization currency).
func runConvertReport(w io.Writer, matrixName string, scale float64, ranks, workers int, jsonOut bool) error {
	m, err := experiments.Matrix(matrixName, scale)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := matrix.WriteMatrixMarket(&buf, m); err != nil {
		return err
	}
	doc := buf.Bytes()

	seq, _, _, err := convertPipeline(doc, ranks, 1)
	if err != nil {
		return err
	}
	par, pj, er, err := convertPipeline(doc, ranks, workers)
	if err != nil {
		return err
	}

	// Modeled kernel times on the paper's Fermi board express the
	// conversion cost in spMVM invocations.
	dev := gpu.TeslaC2070()
	scratch := telemetry.NewRegistry()
	xp := make([]float64, m.NCols)
	for i := range xp {
		xp[i] = 1
	}
	yp := make([]float64, m.NRows)
	pjStats, err := gpu.RunPJDS(dev, pj, yp, xp, gpu.RunOptions{Metrics: scratch})
	if err != nil {
		return err
	}
	erStats, err := gpu.RunSELL(dev, er, yp, xp, gpu.RunOptions{Metrics: scratch})
	if err != nil {
		return err
	}
	tPJDS := pjStats.KernelSeconds
	tELLR := erStats.KernelSeconds
	am := convert.Amortize(par.TotalSeconds(), tPJDS, tELLR-tPJDS)
	seqTotal := seq.TotalSeconds()
	parTotal := par.TotalSeconds()
	speedup := 0.0
	if parTotal > 0 {
		speedup = seqTotal / parTotal
	}

	if jsonOut {
		phaseMap := func(r *convert.Recorder) map[string]float64 {
			out := map[string]float64{}
			for _, p := range r.Phases() {
				out[p.Name+"_seconds"] = p.Seconds
			}
			return out
		}
		doc := map[string]any{
			"schema":                        "pjds-convert/v1",
			"matrix":                        matrixName,
			"scale":                         scale,
			"ranks":                         ranks,
			"workers":                       workers,
			"phases_workers1_seconds":       phaseMap(seq),
			"phases_parallel_seconds":       phaseMap(par),
			"convert_seconds_workers1":      seqTotal,
			"convert_seconds_parallel":      parTotal,
			"parallel_speedup":              speedup,
			"modeled_pjds_spmv_seconds":     tPJDS,
			"modeled_ellpackr_spmv_seconds": tELLR,
			"spmv_equivalents_parallel":     am.Equivalents,
			"gain_per_spmv_seconds":         am.GainSeconds,
		}
		if tPJDS > 0 {
			doc["spmv_equivalents_workers1"] = seqTotal / tPJDS
		}
		if !math.IsInf(am.BreakEvenSpMVMs, 0) {
			doc["breakeven_spmvs"] = am.BreakEvenSpMVMs
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}

	fmt.Fprintf(w, "ingest-and-convert pipeline: %s scale %g, %d ranks\n\n", matrixName, scale, ranks)
	fmt.Fprintf(w, "%-18s %14s %14s\n", "phase", "1 worker [s]", fmt.Sprintf("%d workers [s]", workers))
	parByName := map[string]float64{}
	for _, p := range par.Phases() {
		parByName[p.Name] = p.Seconds
	}
	for _, p := range seq.Phases() {
		fmt.Fprintf(w, "%-18s %14.6f %14.6f\n", p.Name, p.Seconds, parByName[p.Name])
	}
	fmt.Fprintf(w, "%-18s %14.6f %14.6f\n", "total", seqTotal, parTotal)
	fmt.Fprintf(w, "\nparallel speedup: %.2fx at %d workers\n", speedup, workers)
	fmt.Fprintf(w, "modeled spMVM (TeslaC2070): pJDS %.3g s, ELLPACK-R %.3g s\n", tPJDS, tELLR)
	fmt.Fprintf(w, "conversion cost: %.1f spMVM-equivalents (parallel)\n", am.Equivalents)
	if math.IsInf(am.BreakEvenSpMVMs, 0) {
		fmt.Fprintf(w, "break-even vs ELLPACK-R: never (pJDS not faster on this matrix)\n")
	} else {
		fmt.Fprintf(w, "break-even vs ELLPACK-R: %.0f spMVMs\n", am.BreakEvenSpMVMs)
	}
	return nil
}

// runHostReport measures every host kernel on one matrix and prints
// the measured GFLOP/s and effective GB/s (at Eq. 1 minimal traffic)
// next to the Eq. 1 code balance and the Westmere CRS model — real
// host numbers for the same quantities the health engine and
// telemetry track as host_kernel_gflops / host_kernel_bytes_total.
func runHostReport(w io.Writer, matrixName string, scale float64, iters int, jsonOut bool) error {
	type hostEntry struct {
		Kernel       string  `json:"kernel"`
		NsPerNnz     float64 `json:"nsPerNnz"`
		GFlops       float64 `json:"gflops"`
		BandwidthGBs float64 `json:"bandwidthGBs"`
		Digest       string  `json:"digest"`
	}
	var entries []hostEntry
	var ref *experiments.HostBenchRow
	for _, kind := range hostkernel.Kinds() {
		res, err := experiments.RunHostBench(kind, []string{matrixName}, scale, iters, 0, io.Discard)
		if err != nil {
			return err
		}
		r := res.Rows[0]
		if ref == nil {
			ref = &r
		}
		entries = append(entries, hostEntry{
			Kernel:       r.Kernel,
			NsPerNnz:     r.NsPerNnz,
			GFlops:       r.GFlops,
			BandwidthGBs: r.GBs,
			Digest:       r.Digest,
		})
	}
	m, err := experiments.Matrix(matrixName, scale)
	if err != nil {
		return err
	}
	nnzr := m.AvgRowLen()
	cbIdeal := model.CodeBalanceDP(model.AlphaIdeal(nnzr), nnzr)
	west, err := model.WestmereEP().EstimateCRS(m)
	if err != nil {
		return err
	}
	experiments.DropCached(matrixName, scale)

	if jsonOut {
		doc := map[string]any{
			"schema":                "pjds-host/v1",
			"matrix":                matrixName,
			"scale":                 scale,
			"iters":                 iters,
			"kernels":               entries,
			"code_balance_dp_ideal": cbIdeal,
			"westmere_model_gflops": west.GFlops,
			"westmere_model_alpha":  west.Alpha,
			"digests_match":         allDigestsEqual(entries, func(e hostEntry) string { return e.Digest }),
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}

	fmt.Fprintf(w, "host kernels: %s scale %g, %d iters (wall-clock on this machine)\n\n", matrixName, scale, iters)
	fmt.Fprintf(w, "%-10s %10s %10s %14s\n", "kernel", "ns/nnz", "GFLOP/s", "GB/s (Eq.1)")
	for _, e := range entries {
		fmt.Fprintf(w, "%-10s %10.2f %10.2f %14.2f\n", e.Kernel, e.NsPerNnz, e.GFlops, e.BandwidthGBs)
	}
	fmt.Fprintf(w, "\nEq. 1 code balance (DP, ideal alpha): %.2f B/flop\n", cbIdeal)
	fmt.Fprintf(w, "Westmere CRS model: %.2f GF/s at alpha %.2f (Table I baseline)\n", west.GFlops, west.Alpha)
	if allDigestsEqual(entries, func(e hostEntry) string { return e.Digest }) {
		fmt.Fprintf(w, "result digests: identical across kernels\n")
	} else {
		fmt.Fprintf(w, "result digests: MISMATCH — kernels disagree\n")
	}
	return nil
}

// allDigestsEqual reports whether every entry carries the same digest.
func allDigestsEqual[T any](entries []T, digest func(T) string) bool {
	for i := 1; i < len(entries); i++ {
		if digest(entries[i]) != digest(entries[0]) {
			return false
		}
	}
	return true
}

// parseModes resolves a comma-separated slug list (empty = all).
func parseModes(arg string) ([]distmv.Mode, error) {
	if arg == "" {
		return nil, nil
	}
	var modes []distmv.Mode
	for _, f := range strings.Split(arg, ",") {
		slug := strings.TrimSpace(f)
		found := false
		for _, m := range distmv.Modes() {
			if m.Slug() == slug {
				modes = append(modes, m)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown mode %q (want vector, naive-overlap, or task)", slug)
		}
	}
	return modes, nil
}

// analyzeArtifacts reports on a saved trace (plus optional metrics
// snapshot) instead of a fresh run.
func analyzeArtifacts(w io.Writer, tracePath, metricsPath string, jsonOut bool) error {
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	spans, err := telemetry.ReadTrace(f)
	f.Close()
	if err != nil {
		return err
	}
	var metrics []telemetry.Series
	if metricsPath != "" {
		mf, err := os.Open(metricsPath)
		if err != nil {
			return err
		}
		metrics, err = telemetry.ReadSnapshot(mf)
		mf.Close()
		if err != nil {
			return err
		}
	}
	rep := critpath.Analyze(filepath.Base(tracePath), spans, metrics)
	if jsonOut {
		return rep.WriteJSON(w)
	}
	return rep.WriteText(w)
}

// runDiff is the regression gate: it compares two JSON artifacts and
// exits non-zero when any metric regressed beyond its tolerance band.
func runDiff(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfreport diff", flag.ContinueOnError)
	var (
		tol       = fs.Float64("tol", 0.02, "default relative tolerance band (0.02 = ±2%)")
		tolMetric = fs.String("tol-metric", "", "per-metric overrides, e.g. gflops=0.05,seconds=0.1")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: perfreport diff [-tol T] [-tol-metric k=v,...] OLD.json NEW.json")
	}
	opt := critpath.DiffOptions{Tolerance: *tol}
	if *tolMetric != "" {
		opt.PerMetric = map[string]float64{}
		for _, kv := range strings.Split(*tolMetric, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return fmt.Errorf("bad -tol-metric entry %q", kv)
			}
			band, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("bad -tol-metric band %q: %v", kv, err)
			}
			opt.PerMetric[k] = band
		}
	}
	oldDoc, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	newDoc, err := os.ReadFile(fs.Arg(1))
	if err != nil {
		return err
	}
	findings, err := critpath.Diff(oldDoc, newDoc, opt)
	if err != nil {
		return err
	}
	regressions := 0
	for _, f := range findings {
		if f.Regression() {
			regressions++
		}
		switch f.Verdict {
		case critpath.DiffMissing:
			fmt.Fprintf(out, "REGRESSION %-40s metric disappeared (was %g)\n", f.Path, f.Old)
		case critpath.DiffAdded:
			fmt.Fprintf(out, "added      %-40s %g\n", f.Path, f.New)
		default:
			tag := "improved  "
			if f.Regression() {
				tag = "REGRESSION"
			}
			fmt.Fprintf(out, "%s %-40s %g -> %g (%+.1f%%)\n", tag, f.Path, f.Old, f.New, relPct(f.RelChange))
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s) beyond tolerance", regressions)
	}
	fmt.Fprintf(out, "no regressions (%d finding(s) within policy)\n", len(findings))
	return nil
}

// relPct clamps the printed relative change for the old==0 case.
func relPct(rel float64) float64 {
	if math.IsInf(rel, 0) {
		return math.Copysign(999, rel)
	}
	return 100 * rel
}

// runProfileReport attributes a labeled pprof profile by phase and
// cross-checks the phase vocabulary against the span lanes: every
// attributed phase must be one of the known phases (which are exactly
// the trace lanes plus "convert"), and with -trace-in each phase is
// checked against the lanes actually present in the trace. The
// -check-attributed gate fails when too much of the profile is
// unlabeled — that is how check.sh catches a hot path that lost its
// label.
func runProfileReport(w io.Writer, profilePath, tracePath string, checkAttr float64, jsonOut bool) error {
	p, err := profiles.ParseFile(profilePath)
	if err != nil {
		return err
	}
	a := profiles.Attribute(p)

	var laneSet map[string]bool
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return err
		}
		spans, err := telemetry.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		laneSet = map[string]bool{}
		for _, s := range spans {
			laneSet[s.Lane] = true
		}
	}

	if jsonOut {
		doc := map[string]any{
			"schema":      "pjds-profile/v1",
			"profile":     filepath.Base(profilePath),
			"attribution": a,
			"phases":      a.PhaseSet(),
		}
		if laneSet != nil {
			lanes := make([]string, 0, len(laneSet))
			for l := range laneSet {
				lanes = append(lanes, l)
			}
			sort.Strings(lanes)
			doc["trace_lanes"] = lanes
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	} else {
		a.WriteTable(w)
		if laneSet != nil {
			for _, ph := range a.PhaseSet() {
				mark := "no spans on this lane"
				if laneSet[ph] || ph == profiles.PhaseConvert {
					mark = "matches trace lanes"
				}
				fmt.Fprintf(w, "  phase %-8s %s\n", ph, mark)
			}
		}
	}

	if unknown := a.UnknownPhases(); len(unknown) > 0 {
		return fmt.Errorf("profile carries phase label(s) outside the span-lane vocabulary %v: %v",
			profiles.KnownPhases, unknown)
	}
	if checkAttr > 0 && a.AttributedFrac() < checkAttr {
		return fmt.Errorf("only %.1f%% of %s samples attributed to a known phase, want >= %.1f%%",
			100*a.AttributedFrac(), orSamples(a.SampleType.Type), 100*checkAttr)
	}
	return nil
}

func orSamples(t string) string {
	if t == "" {
		return "profile"
	}
	return t
}
