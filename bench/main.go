// Command bench is the repository's benchmark: one workload per run,
// measured for a fixed time from a seed, reporting the end-to-end
// metrics declared in BENCHMARK.json, or with -trace 1 the per-layer
// metrics. Run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh --workload serve --seed 42 --seconds 20 --trace 0
//
// The last line of standard output is the result as one JSON object;
// the lines before it are the same numbers for people. A run writes a
// result file (and a trace, when traced) under .bench_build/results. It
// exits 1 when a result failed its correctness check and 2 on any other
// error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// workloads maps each workload name to its run.
var workloads = map[string]func(env) (*result, error){
	"serve":   runServe,
	"ingest":  runIngest,
	"solve":   runSolve,
	"cluster": runCluster,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: serve, ingest, solve or cluster")
	seed := fs.Uint64("seed", 42, "seed every input of the run derives from")
	seconds := fs.Float64("seconds", 20, "measuring time of the run")
	trace := fs.Int("trace", 0, "1 for a traced run, which reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	if err := runWorkload(*name, *seed, *seconds, *trace == 1, stdout); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		if errors.Is(err, errWrong) {
			return 1
		}
		return 2
	}
	return 0
}

// errWrong reports a run in which a result failed its check.
var errWrong = errors.New("wrong results")

// resultDir holds the result and trace files, inside the build
// directory run.sh keeps out of version control.
const resultDir = ".bench_build/results"

func runWorkload(name string, seed uint64, seconds float64, trace bool, stdout io.Writer) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want serve, ingest, solve or cluster)", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	s, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(resultDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "pjds-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	meta := runMeta(name, seed, seconds, trace)
	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %g  trace %v  nproc %d  %s  rev %s\n",
		name, seed, seconds, trace, meta["nproc"], meta["go"], meta["rev"])
	r, err := w(env{seed: seed, seconds: seconds, trace: trace, tmp: tmp, log: stdout})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	values := r.endToEnd()
	if trace {
		values = r.perLayer()
	}
	metrics, err := s.report(values, trace)
	if err != nil {
		return err
	}

	base := filepath.Join(resultDir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, boolInt(trace)))
	if trace {
		if err := writeTrace(base+".trace.json", name, seed, r.timed); err != nil {
			return err
		}
		meta["trace_file"] = base + ".trace.json"
	}
	printReport(stdout, r, metrics, trace)
	doc := map[string]any{
		"correct":   r.wrong == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}
	line, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	meta["result"] = doc
	meta["setup_s_reps"] = r.setup
	meta["wrong"] = r.wrong
	file, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(file, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s.json\n%s\n", base, line)
	if r.wrong > 0 {
		return fmt.Errorf("%s: %d of %d: %w", name, r.wrong, r.attempted, errWrong)
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runMeta records what a result depends on besides the code: the
// machine's CPU count, the Go version and the revision built.
func runMeta(name string, seed uint64, seconds float64, trace bool) map[string]any {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	rev += dirty
	return map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
		"nproc": runtime.NumCPU(), "go": runtime.Version(), "rev": rev,
	}
}

// fastQuantile is how far to the fast side of the block distribution
// the timing metrics are read: over 16 runs per workload on a shared
// 2-vCPU machine, the 10th percentile of block values spread least
// from run to run (5–8%, against 8–15% for the plain median of all
// operations).
const fastQuantile = 0.1

// endToEnd returns the end-to-end metrics of an untraced run.
func (r *result) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":    median(append([]float64(nil), r.setup...)),
		"lat_p50_ms": 1e3 * r.latencyP50(),
		"ops_per_s":  blockQuantile(r.closed, r.block, 1-fastQuantile, func(b []op) float64 { return goodput(b, r.workers) }),
		"heap_mb":    r.heapMB,
	}
}

// latencyP50 returns each block's median latency, in seconds, read at
// fastQuantile over the blocks.
func (r *result) latencyP50() float64 {
	return blockQuantile(r.timed, r.block, fastQuantile, func(b []op) float64 { return percentile(okLatencies(b), 0.5) })
}

// perLayer returns the per-layer metrics of a traced run.
func (r *result) perLayer() map[string]float64 {
	out := map[string]float64{}
	for _, name := range pathCounters {
		out[name] = 0
	}
	for k, v := range r.layers {
		out[k] = v
	}
	for k, v := range attribute(r.timed).metrics() {
		out[k] = v
	}
	out["trace.lat_p50_ms"] = 1e3 * r.latencyP50()
	return out
}

// printReport writes the run's numbers for people.
func printReport(w io.Writer, r *result, metrics map[string]reported, trace bool) {
	fmt.Fprintf(w, "setup %v s (median of %d)\n", r.setup, len(r.setup))
	fmt.Fprintf(w, "operations attempted %d  failed %d  wrong %d\n", r.attempted, r.failed, r.wrong)
	// The tail is reported here but not gated: on a shared machine it
	// mostly measures the neighbours (see README).
	lat := okLatencies(r.timed)
	if q := supportedTail(len(lat)); q > 0 {
		fmt.Fprintf(w, "latency p50 %.3f ms, p%g %.3f ms over all %d operations (p%g: the highest percentile with >=10 samples beyond)\n",
			1e3*percentile(lat, 0.5), 100*q, 1e3*percentile(lat, q), len(lat), 100*q)
	}
	fmt.Fprintf(w, "statistics blocks of %d operations: %d latency, %d throughput\n", r.block, len(r.timed)/r.block, len(r.closed)/r.block)
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	if !trace {
		return
	}
	a := attribute(r.timed)
	if a.ops == 0 {
		return
	}
	per := func(s float64) float64 { return 1e3 * s / float64(a.ops) }
	fmt.Fprintf(w, "self time per traced operation (%d operations, wall clock):\n", a.ops)
	for _, l := range traceLayers {
		if a.self[l] != 0 {
			fmt.Fprintf(w, "  %-10s %10.3f ms %6.1f%%\n", l, per(a.self[l]), 100*a.self[l]/a.latency)
		}
	}
	fmt.Fprintf(w, "  %-10s %10.3f ms %6.1f%%\n", "residual", per(a.residual), 100*a.residual/a.latency)
	fmt.Fprintf(w, "  %-10s %10.3f ms (measured latency; the rows above add up to it)\n", "total", per(a.latency))
}
