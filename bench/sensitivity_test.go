package main

import (
	"io"
	"math"
	"testing"
	"time"

	"pjds/internal/core"
	"pjds/internal/distmv"
	"pjds/internal/hostkernel"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/service"
	"pjds/internal/solver"
)

// shortRun runs a workload for seconds with an injected per-application
// delay and fails the test on any failed or wrong operation.
func shortRun(t *testing.T, w func(env) (*result, error), seconds float64, delay time.Duration) *result {
	t.Helper()
	r, err := w(env{seed: 11, seconds: seconds, tmp: t.TempDir(), applyDelay: delay, log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if r.attempted == 0 || r.failed > 0 || r.wrong > 0 {
		t.Fatalf("attempted %d, failed %d, wrong %d", r.attempted, r.failed, r.wrong)
	}
	return r
}

func p50ms(r *result) float64 { return r.endToEnd()["lat_p50_ms"] }

// timerWait returns the median time a wait on a timer set for d takes,
// in seconds, the way service.Config.ApplyDelay waits.
func timerWait(d time.Duration) float64 {
	var secs []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		<-time.NewTimer(d).C
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs)
}

func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	s := loadRepoSpec(t)
	for name, w := range workloads {
		for _, trace := range []bool{false, true} {
			r, err := w(env{seed: 5, seconds: 2, trace: trace, tmp: t.TempDir(), log: io.Discard})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if r.attempted == 0 || r.failed > 0 || r.wrong > 0 {
				t.Errorf("%s: attempted %d, failed %d, wrong %d", name, r.attempted, r.failed, r.wrong)
			}
			values := r.endToEnd()
			if trace {
				values = r.perLayer()
			}
			if _, err := s.report(values, trace); err != nil {
				t.Errorf("%s (trace %v): %v", name, trace, err)
			}
			if !trace {
				for k, v := range values {
					if v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, k, v)
					}
				}
			}
		}
	}
}

// TestInjectedSlowdownsMoveThePredictedMetrics slows one layer at a time
// through existing program settings and checks that the end-to-end
// metric the README predicts moves on the predicted workload, and that
// the workloads predicted to stay flat stay within the metric's bound.
func TestInjectedSlowdownsMoveThePredictedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs short passes of three workloads")
	}
	const delay = 500 * time.Microsecond
	bound := 0.0
	for _, m := range loadRepoSpec(t).EndToEnd {
		if m.Name == "lat_p50_ms" {
			bound = m.Bound
		}
	}
	serveBase := p50ms(shortRun(t, runServe, 4, 0))

	t.Run("ApplyDelay", func(t *testing.T) {
		// serve: one kernel application per request.
		got := p50ms(shortRun(t, runServe, 4, delay))
		t.Logf("serve lat_p50_ms %.3f -> %.3f ms", serveBase, got)
		if got-serveBase < 0.5 {
			t.Errorf("serve lat_p50_ms rose %.3f ms, want >= 0.5", got-serveBase)
		}
		// solve: one application per CG iteration plus the initial
		// residual.
		ref, err := solver.NewPermutedPJDS(matgen.Stencil2D(solveGrid, solveGrid), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		want, err := referenceSolves(ref, vectorSeeds(11))
		if err != nil {
			t.Fatal(err)
		}
		applies := 0.0
		for _, w := range want {
			applies += float64(w.iters+1) / float64(len(want))
		}
		// A timer set for the delay fires late by a machine-dependent
		// amount; predict with the wait it really takes here.
		waited := timerWait(delay)
		predicted := applies * waited * 1e3
		base := p50ms(shortRun(t, runSolve, 4, 0))
		got = p50ms(shortRun(t, runSolve, 4, delay))
		t.Logf("solve lat_p50_ms %.1f -> %.1f ms, predicted rise %.0f applications × %.3f ms = %.1f ms",
			base, got, applies, 1e3*waited, predicted)
		if rise := got - base; rise < 0.7*predicted || rise > 1.4*predicted {
			t.Errorf("solve lat_p50_ms rose %.1f ms, want about %.1f ms", rise, predicted)
		}
		// ingest: uploads make no kernel application.
		base = p50ms(shortRun(t, runIngest, 6, 0))
		got = p50ms(shortRun(t, runIngest, 6, delay))
		t.Logf("ingest lat_p50_ms %.2f -> %.2f ms", base, got)
		if math.Abs(got/base-1) > bound {
			t.Errorf("ingest lat_p50_ms moved from %.2f to %.2f ms, beyond the %g bound", base, got, bound)
		}
	})

	t.Run("HostKernelKind", func(t *testing.T) {
		// The distributed CG's per-rank products run on the default host
		// kernel; the service's requests run on the device path. CMRS is
		// the slowest kind on a 5-point stencil: the naive kernel on one
		// worker is as fast as the blocked one there, so switching to it
		// would move nothing. The kinds alternate, so a slow phase of
		// the machine hits both.
		m := matgen.Stencil2D(clusterGrid, clusterGrid)
		pt, err := distmv.PartitionByNnz(m, clusterRanks)
		if err != nil {
			t.Fatal(err)
		}
		problems, err := distmv.DistributeOpt(m, pt, matrix.ConvertOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b := service.SeedVector(m.NRows, 1)
		defer func() { _ = hostkernel.SetDefaultKind(hostkernel.KindBlocked) }() // a valid kind: cannot fail
		secs := map[hostkernel.Kind][]float64{}
		for i := 0; i < 12; i++ {
			for _, k := range []hostkernel.Kind{hostkernel.KindBlocked, hostkernel.KindCMRS} {
				if err := hostkernel.SetDefaultKind(k); err != nil {
					t.Fatal(err)
				}
				t0 := time.Now()
				if _, err := runDistCG(problems, b, nil); err != nil {
					t.Fatal(err)
				}
				secs[k] = append(secs[k], time.Since(t0).Seconds())
			}
		}
		base, slow := median(secs[hostkernel.KindBlocked]), median(secs[hostkernel.KindCMRS])
		t.Logf("distributed CG %.1f ms (blocked) -> %.1f ms (CMRS)", 1e3*base, 1e3*slow)
		if slow/base-1 < 0.08 {
			t.Errorf("distributed CG took %.1f ms with CMRS, %.1f ms with blocked: want at least 8%% slower",
				1e3*slow, 1e3*base)
		}
		got := p50ms(shortRun(t, runServe, 4, 0))
		t.Logf("serve lat_p50_ms %.3f -> %.3f ms (CMRS)", serveBase, got)
		if math.Abs(got/serveBase-1) > bound {
			t.Errorf("serve lat_p50_ms moved from %.3f to %.3f ms with CMRS, beyond the %g bound", serveBase, got, bound)
		}
	})
}
