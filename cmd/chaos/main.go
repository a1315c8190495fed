// Command chaos is the fault-injection harness for the simulated
// GPGPU cluster: it sweeps seeded fault scenarios (message drops, a
// rank crash mid-solve, an uncorrectable ECC event) over the
// fault-tolerant distributed CG driver and the §III-A communication
// modes, and verifies that every recovered solve is bit-identical to
// the fault-free run.
//
// Every fault decision is keyed on the seed, so the same seed
// reproduces the identical fault schedule, retry counts and telemetry
// event counts on every invocation; the harness re-runs the whole
// suite a second time and fails if the two reports differ.
//
// Usage:
//
//	chaos [-seed 42] [-ranks 4] [-nx 24] [-tol 1e-10] [-maxiter 2000]
//	      [-checkpoint 10] [-scenarios baseline,drop1pct,crash,ecc,chaos]
//	      [-skip-modes] [-no-repro] [-json] [-o FILE]
//	chaos -smoke     quick 1-drop + 1-crash scenario for scripts/check.sh
//
// Exit status is non-zero when any scenario fails to converge, loses
// bit-identity with the fault-free run, or the repro pass diverges.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"pjds/internal/critpath"
	"pjds/internal/distmv"
	"pjds/internal/distsolver"
	"pjds/internal/faults"
	"pjds/internal/flight"
	"pjds/internal/gpu"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/simnet"
	"pjds/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
}

// config carries the parsed harness parameters.
type config struct {
	seed      uint64
	ranks     int
	nx        int
	tol       float64
	maxIter   int
	ckptEvery int
	scenarios []string
	skipModes bool
	repro     bool
}

// scenarioReport is one fault scenario's outcome.
type scenarioReport struct {
	Name   string   `json:"name"`
	Script []string `json:"script"`
	// Converged and BitIdentical are the correctness verdicts:
	// BitIdentical compares the solution bits against the fault-free
	// baseline of the same suite.
	Converged    bool `json:"converged"`
	BitIdentical bool `json:"bit_identical"`
	// Solver outcome.
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`
	// Recovery bookkeeping.
	Restarts      int      `json:"restarts"`
	Checkpoints   int      `json:"checkpoints"`
	DeadRanks     []int    `json:"dead_ranks,omitempty"`
	DegradedRanks []int    `json:"degraded_ranks,omitempty"`
	Failures      []string `json:"failures,omitempty"`
	// Telemetry event counts (summed over ranks) — part of the
	// reproducibility contract.
	Retries          float64 `json:"retries"`
	RetryWaitSeconds float64 `json:"retry_wait_seconds"`
	FaultsInjected   float64 `json:"faults_injected"`
	FailuresDetected float64 `json:"failures_detected"`
	Crashes          float64 `json:"crashes"`
	EccErrors        float64 `json:"ecc_errors"`
	// Timing: SolveSeconds is the final attempt's makespan;
	// RecoveryLatencySeconds is the extra virtual time over the
	// baseline scenario; RecoverySeconds the modelled rollback
	// overhead; RecoveryPathSeconds the recovery category on the
	// cross-rank critical path, whose dominant category is Verdict.
	SolveSeconds           float64 `json:"solve_seconds"`
	RecoveryLatencySeconds float64 `json:"recovery_latency_seconds"`
	RecoverySeconds        float64 `json:"recovery_seconds"`
	RecoveryPathSeconds    float64 `json:"recovery_path_seconds"`
	Verdict                string  `json:"verdict"`
}

// modeReport is one §III-A communication mode run under a lossy wire.
type modeReport struct {
	Mode         string  `json:"mode"`
	Retries      float64 `json:"retries"`
	BitIdentical bool    `json:"bit_identical"`
	// Seconds are the healthy and lossy makespans of the benchmark
	// loop: the difference is pure retry backoff.
	HealthySeconds float64 `json:"healthy_seconds"`
	LossySeconds   float64 `json:"lossy_seconds"`
}

// report is the full harness artifact (schema pjds-chaos/v1).
type report struct {
	Schema    string           `json:"schema"`
	Seed      uint64           `json:"seed"`
	Ranks     int              `json:"ranks"`
	NX        int              `json:"nx"`
	Scenarios []scenarioReport `json:"scenarios"`
	Modes     []modeReport     `json:"modes,omitempty"`
	// ReproIdentical reports whether a second run of the whole suite
	// with the same seed produced a byte-identical report.
	ReproIdentical *bool `json:"repro_identical,omitempty"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	var (
		seed      = fs.Uint64("seed", 42, "fault-plan seed; one seed = one reproducible schedule")
		ranks     = fs.Int("ranks", 4, "rank count")
		nx        = fs.Int("nx", 24, "2D stencil grid edge (matrix is nx²×nx²)")
		tol       = fs.Float64("tol", 1e-10, "CG convergence tolerance")
		maxIter   = fs.Int("maxiter", 2000, "CG iteration cap")
		ckpt      = fs.Int("checkpoint", 10, "checkpoint every N iterations")
		scenArg   = fs.String("scenarios", "", "comma-separated scenario names (default: all)")
		skipModes = fs.Bool("skip-modes", false, "skip the communication-mode sweep")
		noRepro   = fs.Bool("no-repro", false, "skip the same-seed reproducibility pass")
		smoke     = fs.Bool("smoke", false, "quick 1-drop + 1-crash smoke scenario (for CI)")
		jsonOut   = fs.Bool("json", false, "emit the report as JSON")
		outFile   = fs.String("o", "", "write the report to this file instead of stdout")
		flightOn  = fs.Bool("flight", false, "enable the ring-buffer flight recorder during the suite")
		flightOut = fs.String("flight-dump", "", "write a post-incident trace here when the first severe event (rank failure, ECC hit) fires; implies -flight")
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

	if *flightOn || *flightOut != "" {
		// The dump is one-shot (one per SetDump), so the repro pass cannot
		// rewrite the incident trace of the first suite run — and the
		// report artifact itself stays byte-identical either way.
		rec := flight.Enable(0, 0)
		rec.RegisterHTTP()
		if *flightOut != "" {
			rec.SetDump(flight.DumpConfig{Path: *flightOut, MinSeverity: flight.Error})
		}
		defer func() {
			if p := rec.LastDump(); p != "" {
				fmt.Fprintf(out, "flight recorder dumped %s (perfreport -trace-in %s)\n", p, p)
			}
			flight.Disable()
		}()
	}

	cfg := config{
		seed: *seed, ranks: *ranks, nx: *nx, tol: *tol,
		maxIter: *maxIter, ckptEvery: *ckpt,
		skipModes: *skipModes, repro: !*noRepro,
	}
	if *scenArg != "" {
		cfg.scenarios = strings.Split(*scenArg, ",")
	}
	if *smoke {
		cfg.nx = 10
		cfg.ckptEvery = 3
		cfg.scenarios = []string{"baseline", "smoke"}
		cfg.skipModes = true
	}

	rep, err := suite(cfg)
	if err != nil {
		return err
	}
	if cfg.repro {
		again, err := suite(cfg)
		if err != nil {
			return fmt.Errorf("repro pass: %w", err)
		}
		a, _ := json.Marshal(rep)
		b, _ := json.Marshal(again)
		same := string(a) == string(b)
		rep.ReproIdentical = &same
	}

	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		printReport(w, rep)
	}
	return verdict(rep)
}

// verdict turns correctness failures into a non-zero exit.
func verdict(rep *report) error {
	var bad []string
	for _, s := range rep.Scenarios {
		if !s.Converged {
			bad = append(bad, fmt.Sprintf("scenario %s did not converge", s.Name))
		}
		if !s.BitIdentical {
			bad = append(bad, fmt.Sprintf("scenario %s lost bit-identity with the fault-free run", s.Name))
		}
	}
	for _, m := range rep.Modes {
		if !m.BitIdentical {
			bad = append(bad, fmt.Sprintf("mode %s lost bit-identity under drops", m.Mode))
		}
	}
	if rep.ReproIdentical != nil && !*rep.ReproIdentical {
		bad = append(bad, "same-seed repro run produced a different report")
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s", strings.Join(bad, "; "))
	}
	return nil
}

// scenario is one named fault script of the sweep.
type scenario struct {
	name   string
	script func(baseIters int) string
}

// scenarios returns the sweep in presentation order. Crash and ECC
// events are placed relative to the baseline's iteration count: the
// crash mid-solve, the ECC event about a third in.
func (cfg config) scenarioList() []scenario {
	all := []scenario{
		{"baseline", func(int) string { return "" }},
		{"drop1pct", func(int) string { return "drop all prob=0.01" }},
		{"crash", func(n int) string {
			return fmt.Sprintf("crash rank=%d iter=%d", cfg.ranks/2, max(1, n/2))
		}},
		{"ecc", func(n int) string {
			return fmt.Sprintf("ecc rank=1 launch=%d", max(1, 2*(n+1)/3))
		}},
		{"chaos", func(n int) string {
			return fmt.Sprintf("drop all prob=0.01\ncrash rank=%d iter=%d\necc rank=1 launch=%d",
				cfg.ranks/2, max(1, n/2), max(1, 2*(n+1)/3))
		}},
		{"smoke", func(n int) string {
			return fmt.Sprintf("drop link=0->1 nth=3\ncrash rank=1 iter=%d", max(1, n/2))
		}},
	}
	if cfg.scenarios == nil {
		return all[:5] // smoke only runs when asked for
	}
	var out []scenario
	for _, want := range cfg.scenarios {
		found := false
		for _, s := range all {
			if s.name == want {
				out = append(out, s)
				found = true
			}
		}
		if !found {
			out = append(out, scenario{want, func(int) string { return "" }})
		}
	}
	return out
}

// suite runs every scenario (plus the mode sweep) once and assembles
// the report.
func suite(cfg config) (*report, error) {
	m := matgen.Stencil2D(cfg.nx, cfg.nx)
	n := m.NRows
	pt, err := distmv.PartitionByRows(m, cfg.ranks)
	if err != nil {
		return nil, err
	}
	problems, err := distmv.Distribute(m, pt)
	if err != nil {
		return nil, err
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Sin(0.05 * float64(i))
	}
	b := make([]float64, n)
	if err := m.MulVec(b, want); err != nil {
		return nil, err
	}

	rep := &report{Schema: "pjds-chaos/v1", Seed: cfg.seed, Ranks: cfg.ranks, NX: cfg.nx}
	var baseline *scenarioReport
	var baseX []float64
	for _, sc := range cfg.scenarioList() {
		baseIters := cfg.maxIter
		if baseline != nil {
			baseIters = baseline.Iterations
		}
		sr, x, err := runScenario(cfg, problems, b, sc.name, sc.script(baseIters), baseline, baseX)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.name, err)
		}
		rep.Scenarios = append(rep.Scenarios, *sr)
		if baseline == nil {
			baseline = sr
			baseX = x
		}
	}
	if !cfg.skipModes {
		modes, err := modeSweep(cfg, m)
		if err != nil {
			return nil, err
		}
		rep.Modes = modes
	}
	return rep, nil
}

// runScenario executes one fault script through the recoverable solver
// and derives its report entry.
func runScenario(cfg config, problems []*distmv.RankProblem, b []float64, name, script string, baseline *scenarioReport, baseX []float64) (*scenarioReport, []float64, error) {
	plan, err := faults.Parse(cfg.seed, script)
	if err != nil {
		return nil, nil, err
	}
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanLog()
	rcfg := distsolver.RecoverConfig{
		Tol: cfg.tol, MaxIter: cfg.maxIter, CheckpointEvery: cfg.ckptEvery,
		Schedule: plan, Wire: plan,
		DeviceFaults: func(rank int) gpu.ECCInjector { return plan.DeviceFor(rank) },
		Inst: &distsolver.Instrument{
			Metrics: reg, Spans: spans, Device: gpu.TeslaC2070(),
		},
	}
	res, x, err := distsolver.RecoverableCG(simnet.QDRInfiniBand(), problems, b, nil, rcfg)
	if err != nil {
		return nil, nil, err
	}

	sr := &scenarioReport{
		Name:       name,
		Script:     plan.Rules(),
		Converged:  true,
		Iterations: res.CG.Iterations,
		Residual:   res.CG.Residual,
		Restarts:   res.Restarts, Checkpoints: res.Checkpoints,
		DeadRanks: res.DeadRanks, DegradedRanks: res.DegradedRanks,
		Failures:         res.Failures,
		Retries:          sumCounter(reg, "mpi_retries_total"),
		RetryWaitSeconds: sumCounter(reg, "mpi_retry_wait_seconds_total"),
		FaultsInjected:   sumCounter(reg, "simnet_faults_injected_total"),
		FailuresDetected: sumCounter(reg, "mpi_failures_detected_total"),
		Crashes:          sumCounter(reg, "mpi_rank_crashes_total"),
		EccErrors:        sumCounter(reg, "gpu_ecc_errors_total"),
		RecoverySeconds:  res.RecoverySeconds,
	}
	for _, c := range res.Clocks {
		if c > sr.SolveSeconds {
			sr.SolveSeconds = c
		}
	}
	if baseline != nil {
		sr.RecoveryLatencySeconds = sr.SolveSeconds - baseline.SolveSeconds
		sr.BitIdentical = bitEqual(x, baseX)
	} else {
		sr.BitIdentical = true // the baseline defines the reference bits
	}
	path := critpath.Path(spans.Spans())
	sr.Verdict = path.Verdict
	sr.RecoveryPathSeconds = path.Categories[critpath.CatRecovery]
	return sr, x, nil
}

// modeSweep runs the distributed fixed-x benchmark in each §III-A
// communication mode, healthy and under a 1% lossy wire, and checks
// that drops cost time but never bits.
func modeSweep(cfg config, m *matrix.CSR[float64]) ([]modeReport, error) {
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = math.Cos(0.02 * float64(i))
	}
	var out []modeReport
	for _, mode := range distmv.Modes() {
		runOnce := func(inj simnet.Injector, reg *telemetry.Registry) (*distmv.Result, error) {
			return distmv.RunSpMVM(m, x, cfg.ranks, mode, distmv.Config{
				Iterations:   2,
				Faults:       inj,
				Telemetry:    reg,
				SkipFitCheck: true,
			})
		}
		healthy, err := runOnce(nil, telemetry.NewRegistry())
		if err != nil {
			return nil, fmt.Errorf("mode %s healthy: %w", mode.Slug(), err)
		}
		reg := telemetry.NewRegistry()
		plan, err := faults.Parse(cfg.seed, "drop all prob=0.01")
		if err != nil {
			return nil, err
		}
		lossy, err := runOnce(plan, reg)
		if err != nil {
			return nil, fmt.Errorf("mode %s lossy: %w", mode.Slug(), err)
		}
		out = append(out, modeReport{
			Mode:           mode.Slug(),
			Retries:        sumCounter(reg, "mpi_retries_total"),
			BitIdentical:   bitEqual(healthy.Y, lossy.Y),
			HealthySeconds: healthy.Seconds,
			LossySeconds:   lossy.Seconds,
		})
	}
	return out, nil
}

// sumCounter totals a counter family over all label sets.
func sumCounter(reg *telemetry.Registry, name string) float64 {
	total := 0.0
	for _, s := range reg.Snapshot() {
		if s.Name == name && s.Type == "counter" {
			total += s.Value
		}
	}
	return total
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "chaos suite: seed %d, %d ranks, %dx%d stencil\n\n", rep.Seed, rep.Ranks, rep.NX, rep.NX)
	fmt.Fprintf(w, "%-10s %5s %9s %8s %5s %5s %8s %10s %10s  %s\n",
		"scenario", "iters", "residual", "retries", "crash", "ecc", "restarts", "solve", "latency", "verdict")
	for _, s := range rep.Scenarios {
		ok := "bit-identical"
		if !s.BitIdentical {
			ok = "DIVERGED"
		}
		if s.Name == "baseline" {
			ok = "reference"
		}
		fmt.Fprintf(w, "%-10s %5d %9.2e %8.0f %5.0f %5.0f %8d %9.3fms %9.3fms  %s (%s)\n",
			s.Name, s.Iterations, s.Residual, s.Retries, s.Crashes, s.EccErrors,
			s.Restarts, 1e3*s.SolveSeconds, 1e3*s.RecoveryLatencySeconds, s.Verdict, ok)
		for _, f := range s.Failures {
			fmt.Fprintf(w, "           attempt failed: %s\n", f)
		}
	}
	if len(rep.Modes) > 0 {
		fmt.Fprintf(w, "\nmode sweep under 1%% drops:\n")
		for _, m := range rep.Modes {
			ok := "bit-identical"
			if !m.BitIdentical {
				ok = "DIVERGED"
			}
			fmt.Fprintf(w, "  %-14s retries %4.0f  %9.3fms -> %9.3fms  %s\n",
				m.Mode, m.Retries, 1e3*m.HealthySeconds, 1e3*m.LossySeconds, ok)
		}
	}
	if rep.ReproIdentical != nil {
		if *rep.ReproIdentical {
			fmt.Fprintf(w, "\nrepro: second run with seed %d produced an identical report\n", rep.Seed)
		} else {
			fmt.Fprintf(w, "\nrepro: FAILED — second run with seed %d diverged\n", rep.Seed)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
