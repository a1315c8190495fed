// Command scaling reproduces the distributed-memory experiments of
// §III: the strong-scaling curves of Fig. 5 (DLR1 and UHBR, three
// communication schemes), the Fig. 4 task-mode timeline, per-phase
// cost breakdowns, Chrome trace export, the weak-scaling outlook
// study, and the cluster-side ablations.
//
// Usage:
//
//	scaling -matrix dlr1 [-scale 1] [-nodes 1,2,4,8,16,24,32] [-iters 3]
//	scaling -matrix uhbr -format pjds
//	scaling -timeline -matrix dlr1 -timelinenodes 8
//	scaling -breakdown -matrix dlr1 -timelinenodes 16
//	scaling -trace-out out.json -matrix dlr1
//	scaling -weak -matrix dlr1 -basescale 0.03
//	scaling -ablations -matrix dlr1
//
// Observability: -metrics-out dumps the process-wide telemetry
// registry after the run (Prometheus text, or JSON for .json paths),
// -metrics-addr serves /metrics, /metrics.json, /dashboard, /healthz,
// /health, /debug/vars and /debug/pprof live while the run executes,
// and -trace-out writes a Chrome trace of every rank's comm, GPU and
// solver lanes. -flight enables the ring-buffer flight recorder
// (adding /spans), -flight-dump arms a post-incident trace dump on
// severe events, and -hold keeps the endpoint up after the run so
// cmd/spmvtop or a browser on /dashboard can watch the final state.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"pjds/internal/distmv"
	"pjds/internal/distsolver"
	"pjds/internal/experiments"
	"pjds/internal/flight"
	"pjds/internal/gpu"
	"pjds/internal/health"
	"pjds/internal/hostkernel"
	"pjds/internal/mpi"
	"pjds/internal/par"
	"pjds/internal/profiles"
	"pjds/internal/simnet"
	"pjds/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		os.Exit(1)
	}
}

// run executes the tool against the given arguments and output stream.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scaling", flag.ContinueOnError)
	var (
		matrixArg  = fs.String("matrix", "DLR1", "matrix: DLR1 or UHBR (any catalog name accepted)")
		scale      = fs.Float64("scale", experiments.DefaultScale, "matrix scale, 1 = published size")
		nodesArg   = fs.String("nodes", "", "comma-separated node counts (default per matrix)")
		iters      = fs.Int("iters", 3, "timed spMVM iterations")
		formatArg  = fs.String("format", "ellpack-r", "device format: ellpack-r or pjds")
		timeline   = fs.Bool("timeline", false, "print the Fig. 4 task-mode timeline instead of scaling")
		tlNodes    = fs.Int("timelinenodes", 8, "node count for -timeline/-breakdown/-trace")
		breakdown  = fs.Bool("breakdown", false, "print the per-phase cost breakdown of one iteration")
		traceAlias = fs.String("trace", "", "alias for -trace-out")
		traceOut   = fs.String("trace-out", "", "write a Chrome trace-event JSON of a task-mode run plus a short solver phase, all ranks")
		weak       = fs.Bool("weak", false, "run the weak-scaling study instead of Fig. 5's strong scaling")
		baseScale  = fs.Float64("basescale", 0.02, "per-node matrix scale for -weak")
		ablations  = fs.Bool("ablations", false, "run the cluster-side ablations")
		gpusNode   = fs.Int("gpuspernode", 1, "GPUs per physical node (intra-node traffic uses shared memory)")
		perfReport = fs.Bool("perfreport", false, "append a one-line critical-path/overlap summary to each Fig. 5 point (cmd/perfreport gives the full report)")
		metricsOut = fs.String("metrics-out", "", "after the run, dump telemetry here (Prometheus text; .json selects the JSON snapshot)")
		metricsAdr = fs.String("metrics-addr", "", "serve /metrics, /metrics.json, /dashboard, /debug/vars and /debug/pprof on this address during the run")
		workers    = fs.Int("workers", 0, "host goroutines per simulated kernel and format conversion (0 = GOMAXPROCS, 1 = sequential); results are identical for any value")
		hostKernel = fs.String("host-kernel", string(hostkernel.DefaultKind()), "CPU kernel for host-side spMVM paths, one of "+fmt.Sprint(hostkernel.Kinds())+"; results are identical for any value")
		flightOn   = fs.Bool("flight", false, "enable the always-on flight recorder (/spans on -metrics-addr)")
		flightDump = fs.String("flight-dump", "", "write a post-incident trace here when a severe event fires (implies -flight)")
		hold       = fs.Duration("hold", 0, "keep the -metrics-addr endpoint serving this long after the run (live dashboards)")
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
	if *traceOut == "" {
		*traceOut = *traceAlias
	}
	capture, err := profiles.StartCapture(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer capture.Stop()

	format := distmv.FormatELLPACKR
	switch strings.ToLower(*formatArg) {
	case "ellpack-r", "ellpackr":
	case "pjds":
		format = distmv.FormatPJDS
	default:
		return fmt.Errorf("unknown format %q", *formatArg)
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
		if *hold > 0 {
			defer func() {
				fmt.Fprintf(out, "holding endpoint for %s (spmvtop -addr %s)\n", *hold, srv.Addr)
				time.Sleep(*hold)
			}()
		}
	}

	dispatch := func() error {
		switch {
		case *breakdown:
			return runBreakdown(out, *matrixArg, *scale, *tlNodes, format, *gpusNode)
		case *timeline:
			_, err := experiments.RunFig4Timeline(*matrixArg, *scale, *tlNodes, out)
			return err
		case *traceOut != "":
			return runTrace(out, *traceOut, *matrixArg, *scale, *tlNodes, format)
		case *ablations:
			if _, err := experiments.AblationMPIProgress(*matrixArg, *scale, 8, out); err != nil {
				return err
			}
			if _, err := experiments.AblationOccupancy(*matrixArg, *scale, 8, out); err != nil {
				return err
			}
			_, err := experiments.AblationPartition(*scale, 8, out)
			return err
		}

		nodes, err := parseNodes(*nodesArg, *matrixArg)
		if err != nil {
			return err
		}
		if *weak {
			_, err := experiments.RunWeakScaling(experiments.WeakConfig{
				Matrix:     *matrixArg,
				BaseScale:  *baseScale,
				Nodes:      nodes,
				Iterations: *iters,
				Format:     format,
			}, out)
			return err
		}
		_, err = experiments.RunFig5(experiments.Fig5Config{
			Matrix:     *matrixArg,
			Scale:      *scale,
			Nodes:      nodes,
			Iterations: *iters,
			Format:     format,
			PerfReport: *perfReport,
		}, out)
		return err
	}
	// Matrix generation and conversion happen on this goroutine; the
	// rank goroutines and GPU replay workers label themselves.
	profiles.SetPhase(profiles.PhaseConvert)
	defer profiles.Clear()
	if err := dispatch(); err != nil {
		return err
	}
	if *metricsOut != "" {
		if err := telemetry.Default().WriteFile(*metricsOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote metrics to %s\n", *metricsOut)
	}
	return nil
}

// runBreakdown prints the per-phase costs of one iteration per mode.
func runBreakdown(out io.Writer, name string, scale float64, nodes int, format distmv.FormatKind, gpusPerNode int) error {
	m, err := experiments.Matrix(name, scale)
	if err != nil {
		return err
	}
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1
	}
	for _, mode := range distmv.Modes() {
		res, err := distmv.RunSpMVM(m, x, nodes, mode, distmv.Config{
			Iterations: 1, Format: format, GPUsPerNode: gpusPerNode,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\n%s on %d nodes (%.3g s/iter, %.2f GF/s):\n", mode, nodes, res.PerIterSeconds, res.GFlops)
		for phase, sec := range res.Breakdown() {
			fmt.Fprintf(out, "  %-18s %8.1f us (%.0f%%)\n", phase, 1e6*sec, 100*sec/res.PerIterSeconds)
		}
	}
	return nil
}

// runTrace writes a Chrome trace-event file covering every rank: a
// task-mode spMVM run (comm and GPU lanes), followed by a short
// distributed power-iteration phase (solver lane) stitched onto the
// end of the same timeline.
func runTrace(out io.Writer, path, name string, scale float64, nodes int, format distmv.FormatKind) error {
	m, err := experiments.Matrix(name, scale)
	if err != nil {
		return err
	}
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = 1
	}
	spans := telemetry.NewSpanLog()
	cfg := distmv.Config{Iterations: 1, Format: format, Spans: spans}
	res, err := distmv.RunSpMVM(m, x, nodes, distmv.TaskMode, cfg)
	if err != nil {
		return err
	}

	// Solver phase: a few power-iteration steps per rank, recorded on
	// a fresh clock and appended after the benchmark loop.
	pt, err := distmv.PartitionByNnz(m, nodes)
	if err != nil {
		return err
	}
	problems, err := distmv.Distribute(m, pt)
	if err != nil {
		return err
	}
	solverSpans := telemetry.NewSpanLog()
	_, err = mpi.RunWithOptions(nodes, simnet.QDRInfiniBand(), mpi.Options{Spans: solverSpans}, func(c *mpi.Comm) error {
		inst := &distsolver.Instrument{Spans: solverSpans}
		_, err := distsolver.PowerIteration(c, problems[c.Rank()], nil, 0, 5, inst)
		if err != nil && !errors.Is(err, distsolver.ErrNotConverged) {
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	spans.AppendShifted(solverSpans, spans.MaxEnd())

	meta := telemetry.TraceMeta{
		Processes: map[int]string{},
		LaneNames: map[string]string{
			"host":   "host thread 0 (MPI)",
			"gpu":    "GPU stream",
			"solver": "solver",
		},
		Other: map[string]any{
			"nodes":          res.P,
			"iterations":     res.Iterations,
			"gflops":         res.GFlops,
			"perIterSeconds": res.PerIterSeconds,
		},
	}
	for r := 0; r < nodes; r++ {
		meta.Processes[r] = fmt.Sprintf("rank %d (%s, %s, P=%d)", r, res.Mode, res.Format, res.P)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteTrace(f, spans.Spans(), meta); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (open in chrome://tracing or Perfetto)\n", path)
	return nil
}

// parseNodes parses "-nodes 1,2,4" or picks the paper's per-matrix
// default (UHBR does not fit below 5 C2050 nodes at full scale, so its
// sweep starts there, as in Fig. 5b).
func parseNodes(arg, matrix string) ([]int, error) {
	if arg == "" {
		if strings.EqualFold(matrix, "uhbr") {
			return []int{5, 8, 12, 16, 20, 24, 28, 32}, nil
		}
		return []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32}, nil
	}
	var nodes []int
	for _, f := range strings.Split(arg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad node count %q", f)
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}
