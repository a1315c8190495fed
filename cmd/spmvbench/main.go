// Command spmvbench reproduces the paper's single-GPU figures and
// models: Table I (data reduction and GF/s for ELLPACK-R vs pJDS in
// SP/DP with ECC on/off, plus the Westmere CRS baseline), the
// quantified Fig. 2 (storage vs hardware utilization), the Fig. 3
// row-length histograms, the §II-B performance model (the Eq. 1 code
// balance, the Eq. 2 kernel/PCIe split and the Eq. 3/4 N_nzr bounds,
// next to the measured PCIe impact), the §IV outlook format
// comparison, the format-side ablations, and the reproduction
// certificate that grades every DESIGN.md shape claim.
//
// Usage:
//
//	spmvbench -table1 [-scale 0.1]
//	spmvbench -fig2 -matrix sAMG [-scale 0.1]
//	spmvbench -fig3 [-scale 0.1]
//	spmvbench -sec2b [-scale 0.1]
//	spmvbench -papercheck [-scale 0.1]   # non-zero exit when a claim fails
//	spmvbench -outlook [-scale 0.1]
//	spmvbench -ablations [-matrix sAMG] [-scale 0.05]
//	spmvbench -hostbench [-host-kernel blocked] [-host-iters 5] [-scale 0.1]
//	spmvbench -format auto [-tuning-db .spmv/tuning.jsonl] [-tune-json out.json]
//
// Observability: -json writes the Table I measurements as a
// machine-readable benchmark file, -metrics-out dumps the process-wide
// telemetry registry after the run (Prometheus text, or JSON for .json
// paths), and -metrics-addr serves /metrics, /metrics.json,
// /debug/vars and /debug/pprof live while the run executes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"pjds/internal/experiments"
	"pjds/internal/flight"
	"pjds/internal/gpu"
	"pjds/internal/health"
	"pjds/internal/hostkernel"
	"pjds/internal/model"
	"pjds/internal/par"
	"pjds/internal/profiles"
	"pjds/internal/telemetry"
	"pjds/internal/textplot"
	"pjds/internal/tuner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spmvbench:", err)
		os.Exit(1)
	}
}

// run executes the tool against the given arguments and output stream.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("spmvbench", flag.ContinueOnError)
	var (
		scale      = fs.Float64("scale", experiments.DefaultScale, "matrix scale, 1 = published size (UHBR capped by its memory gate)")
		table1     = fs.Bool("table1", false, "reproduce Table I")
		fig2       = fs.Bool("fig2", false, "quantify Fig. 2 on -matrix")
		fig3       = fs.Bool("fig3", false, "reproduce the Fig. 3 row-length histograms")
		sec2b      = fs.Bool("sec2b", false, "evaluate the §II-B model: Eq. (1) code balance, Eq. (3)/(4) bounds, measured PCIe impact")
		paperCheck = fs.Bool("papercheck", false, "grade every DESIGN.md shape claim (PASS/FAIL; error when any claim fails)")
		ablations  = fs.Bool("ablations", false, "run the DESIGN.md format/model ablations")
		outlook    = fs.Bool("outlook", false, "run the §IV outlook format comparison (pJDS vs sliced ELLPACK/ELLR-T/BELLPACK/CSR)")
		matrixArg  = fs.String("matrix", "sAMG", "matrix for -fig2/-ablations: DLR1, DLR2, HMEp, sAMG, UHBR")
		hostBench  = fs.Bool("hostbench", false, "benchmark the CPU host kernels on the Table I matrices (wall-clock on this machine)")
		hostKernel = fs.String("host-kernel", string(hostkernel.DefaultKind()), "host kernel for -hostbench and the process default, one of "+fmt.Sprint(hostkernel.Kinds()))
		hostIters  = fs.Int("host-iters", 5, "timed applications per matrix for -hostbench")
		formatArg  = fs.String("format", "", "run the format-selection benchmark: auto (tuner-selected via the tuning DB) or a fixed format (crs, pjds, sell, cmrs)")
		tuningDB   = fs.String("tuning-db", "", "tuning DB path for -format auto (default "+tuner.DefaultPath+")")
		tuneJSON   = fs.String("tune-json", "", "write the -format measurements as machine-readable JSON (pjds-tune/v1) to this file")
		jsonOut    = fs.String("json", "", "write the Table I measurements as machine-readable JSON to this file (implies -table1)")
		metricsOut = fs.String("metrics-out", "", "after the run, dump telemetry here (Prometheus text; .json selects the JSON snapshot)")
		metricsAdr = fs.String("metrics-addr", "", "serve /metrics, /metrics.json, /dashboard, /debug/vars and /debug/pprof on this address during the run")
		workers    = fs.Int("workers", 0, "host goroutines per simulated kernel and format conversion (0 = GOMAXPROCS, 1 = sequential); results are identical for any value")
		flightOn   = fs.Bool("flight", false, "enable the always-on flight recorder (/spans on -metrics-addr)")
		flightDump = fs.String("flight-dump", "", "write a post-incident trace here when a severe event fires (implies -flight)")
		cpuProfile = fs.String("cpuprofile", "", "write a phase-labeled CPU profile to this file (perfreport -profile, go tool pprof)")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file after the run (after a final GC)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	gpu.SetDefaultWorkers(*workers)
	par.SetDefault(*workers)
	kind, err := hostkernel.ParseKind(*hostKernel)
	if err != nil {
		return err
	}
	hostkernel.SetDefaultKind(kind)
	// Capture flushes both profiles on SIGINT/SIGTERM too, so an
	// interrupted benchmark still leaves analyzable artifacts.
	capture, err := profiles.StartCapture(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer capture.Stop()
	if *jsonOut != "" {
		*table1 = true
	}
	if !*table1 && !*fig2 && !*fig3 && !*sec2b && !*paperCheck && !*ablations && !*outlook && !*hostBench && *formatArg == "" {
		*table1 = true
	}
	if *flightOn || *flightDump != "" {
		rec := flight.Enable(0, 0)
		rec.RegisterHTTP()
		if *flightDump != "" {
			rec.SetDump(flight.DumpConfig{Path: *flightDump, MinSeverity: flight.Error})
		}
		defer func() {
			if p := rec.LastDump(); p != "" {
				fmt.Fprintf(out, "flight recorder dumped %s\n", p)
			}
			flight.Disable()
		}()
	}
	if *metricsAdr != "" {
		eng := health.New(telemetry.Default(), health.Options{})
		eng.RegisterHTTP()
		eng.Start(health.Options{})
		defer eng.Stop()
		srv, err := telemetry.Serve(*metricsAdr, telemetry.Default())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "metrics on http://%s/metrics\n", srv.Addr)
	}
	// Experiment setup (matrix generation, format conversion) runs on
	// this goroutine; the finer phases (gpu replay workers, host
	// kernel pools) carry their own labels.
	profiles.SetPhase(profiles.PhaseConvert)
	defer profiles.Clear()
	if *table1 {
		res, err := experiments.RunTable1(*scale, out)
		if err != nil {
			return err
		}
		if *jsonOut != "" {
			if err := writeBenchJSON(*jsonOut, res); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", *jsonOut)
		}
	}
	if *fig2 {
		if _, err := experiments.RunFig2(*matrixArg, *scale, out); err != nil {
			return err
		}
	}
	if *fig3 {
		if _, err := experiments.RunFig3(*scale, out); err != nil {
			return err
		}
	}
	if *sec2b {
		if err := printBalanceSweep(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if _, err := experiments.RunSec2B(*scale, out); err != nil {
			return err
		}
	}
	if *outlook {
		if _, err := experiments.RunFormatComparison(*scale, out); err != nil {
			return err
		}
	}
	if *hostBench {
		if _, err := experiments.RunHostBench(kind, nil, *scale, *hostIters, *workers, out); err != nil {
			return err
		}
	}
	if *formatArg != "" {
		res, err := experiments.RunTuneBench(*formatArg, nil, *scale, *hostIters, *workers, *tuningDB, out)
		if err != nil {
			return err
		}
		if *tuneJSON != "" {
			if err := writeTuneJSON(*tuneJSON, res); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", *tuneJSON)
		}
	}
	if *ablations {
		for _, f := range []func() error{
			func() error { _, err := experiments.AblationL2(*matrixArg, *scale, out); return err },
			func() error { _, err := experiments.AblationSortWindow(*matrixArg, *scale, out); return err },
			func() error { _, err := experiments.AblationBlockHeight(*matrixArg, *scale, out); return err },
			func() error { _, err := experiments.AblationELLRT(*matrixArg, *scale, out); return err },
			func() error { _, err := experiments.AblationRCM("scrambled", *scale, out); return err },
		} {
			if err := f(); err != nil {
				return err
			}
		}
	}
	if *paperCheck {
		results, err := experiments.CheckReproduction(*scale, out)
		if err != nil {
			return err
		}
		failures := experiments.CountFailures(results)
		fmt.Fprintf(out, "\n%d checks, %d failed\n", len(results), failures)
		if failures > 0 {
			return fmt.Errorf("%d of %d reproduction checks failed", failures, len(results))
		}
	}
	if *metricsOut != "" {
		if err := telemetry.Default().WriteFile(*metricsOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote metrics to %s\n", *metricsOut)
	}
	return nil
}

// printBalanceSweep renders Eq. (1) over the α × N_nzr plane.
func printBalanceSweep(w io.Writer) error {
	rows := [][]string{{"Nnzr \\ alpha", "1/Nnzr (ideal)", "0.25", "0.5", "1.0 (worst)"}}
	for _, nnzr := range []float64{7, 15, 50, 123, 144, 315} {
		row := []string{fmt.Sprintf("%.0f", nnzr)}
		for _, alpha := range []float64{model.AlphaIdeal(nnzr), 0.25, 0.5, 1} {
			row = append(row, fmt.Sprintf("%.2f", model.CodeBalanceDP(alpha, nnzr)))
		}
		rows = append(rows, row)
	}
	fmt.Fprintln(w, "Eq. (1) — double-precision code balance B_W [bytes/flop]")
	return textplot.Table(w, rows)
}

// writeTuneJSON renders a format-selection result as the pjds-tune/v1
// schema: one entry per matrix with the auto pick, the pJDS reference
// it is gated against, and the digest verdict.
func writeTuneJSON(path string, res *experiments.TuneBenchResult) error {
	doc := struct {
		Schema string `json:"schema"`
		*experiments.TuneBenchResult
	}{Schema: "pjds-tune/v1", TuneBenchResult: res}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(doc)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// benchEntry is one (matrix, format, precision, ecc) measurement of
// the machine-readable benchmark output.
type benchEntry struct {
	Matrix       string  `json:"matrix"`
	Format       string  `json:"format"`
	Precision    string  `json:"precision"`
	ECC          bool    `json:"ecc"`
	GFlops       float64 `json:"gflops"`
	BandwidthGBs float64 `json:"bandwidthGBs"`
	CodeBalance  float64 `json:"codeBalance"`
	Alpha        float64 `json:"alpha"`
}

// writeBenchJSON renders a Table I result as the pjds-bench/v1 schema:
// one entry per (matrix, format, precision, ecc) cell, with the
// derived memory bandwidth alongside the paper's model quantities.
// Entry order follows the table's fixed layout, so output is
// deterministic.
func writeBenchJSON(path string, res *experiments.Table1Result) error {
	doc := struct {
		Schema  string       `json:"schema"`
		Scale   float64      `json:"scale"`
		Device  string       `json:"device"`
		Entries []benchEntry `json:"entries"`
	}{Schema: "pjds-bench/v1", Scale: res.Scale, Entries: []benchEntry{}}
	entry := func(matrix, format, precision string, ecc bool, st gpu.KernelStats) benchEntry {
		e := benchEntry{
			Matrix: matrix, Format: format, Precision: precision, ECC: ecc,
			GFlops:      st.GFlops,
			CodeBalance: st.CodeBalance,
			Alpha:       st.Alpha,
		}
		if st.KernelSeconds > 0 {
			e.BandwidthGBs = float64(st.BytesTotal) / st.KernelSeconds / 1e9
		}
		return e
	}
	for _, r := range res.Rows {
		if doc.Device == "" {
			doc.Device = r.DP.ECCOn.ELLPACKR.Stats.Device
		}
		doc.Entries = append(doc.Entries,
			entry(r.Matrix, "ELLPACK-R", "SP", false, r.SP.ECCOff.ELLPACKR.Stats),
			entry(r.Matrix, "pJDS", "SP", false, r.SP.ECCOff.PJDS.Stats),
			entry(r.Matrix, "ELLPACK-R", "SP", true, r.SP.ECCOn.ELLPACKR.Stats),
			entry(r.Matrix, "pJDS", "SP", true, r.SP.ECCOn.PJDS.Stats),
			entry(r.Matrix, "ELLPACK-R", "DP", false, r.DP.ECCOff.ELLPACKR.Stats),
			entry(r.Matrix, "pJDS", "DP", false, r.DP.ECCOff.PJDS.Stats),
			entry(r.Matrix, "ELLPACK-R", "DP", true, r.DP.ECCOn.ELLPACKR.Stats),
			entry(r.Matrix, "pJDS", "DP", true, r.DP.ECCOn.PJDS.Stats),
		)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(doc)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
