package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pjds/internal/core"
	"pjds/internal/health"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/service"
	"pjds/internal/solver"
	"pjds/internal/telemetry"
)

// swarmReport is the chaos-swarm verdict, written as the "swarm"
// section of the -swarm JSON report. digest_mismatches is the hard
// gate: the service may shed, checkpoint or downgrade, but a wrong bit
// is a failure.
type swarmReport struct {
	Clients          int     `json:"clients"`
	RequestsPerClnt  int     `json:"requests_per_client"`
	Requests         int64   `json:"requests_total"`
	OK               int64   `json:"ok"`
	Shed429          int64   `json:"shed_429"`
	Unavailable503   int64   `json:"unavailable_503"`
	Timeout504       int64   `json:"timeout_504"`
	Checkpointed     int64   `json:"checkpointed"`
	KilledClients    int64   `json:"killed_clients"`
	OtherErrors      int64   `json:"other_errors"`
	DigestMismatches int64   `json:"digest_mismatches"`
	P50Latency       float64 `json:"p50_latency_seconds"`
	P99Latency       float64 `json:"p99_latency_seconds"`
	ThroughputRPS    float64 `json:"throughput_rps"`
	ElapsedSeconds   float64 `json:"elapsed_seconds"`
	HostFallbacks    int64   `json:"host_fallbacks"`
	DevicesLost      int     `json:"devices_lost"`
	DrainGraceful    bool    `json:"drain_graceful"`
	DrainCheckpoints int64   `json:"drain_checkpointed"`
	DrainSeconds     float64 `json:"drain_seconds"`
}

// splitmix64 is the swarm's deterministic request schedule: every
// choice (kind, seed, kill, deadline) derives from (seed, client,
// request), never from time or a shared RNG, so a failing run replays
// exactly under the same -seed.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// swarmSeeds is how many distinct request vectors the swarm uses;
// reference digests are precomputed once per seed.
const swarmSeeds = 8

// references computes the fault-free digests every service response
// must match bit for bit, through a private host pipeline: spmv
// digests per seed, and solve digests per seed with the service's own
// default tol/maxIter.
func references(m *matrix.CSR[float64]) (spmv, solve []string, err error) {
	op, err := solver.NewPermutedPJDS(m, core.Options{})
	if err != nil {
		return nil, nil, err
	}
	defer op.Close()
	n := m.NRows
	for s := 0; s < swarmSeeds; s++ {
		x := service.SeedVector(n, uint64(s))
		xp := op.Enter(make([]float64, n), x)
		yp := make([]float64, n)
		if err := op.Apply(yp, xp); err != nil {
			return nil, nil, err
		}
		spmv = append(spmv, service.DigestVector(op.Leave(make([]float64, n), yp)))

		bp := op.Enter(make([]float64, n), x)
		sol := make([]float64, n)
		if _, err := solver.CG(op, sol, bp, 1e-10, 10*n); err != nil {
			return nil, nil, fmt.Errorf("reference solve seed %d: %w", s, err)
		}
		solve = append(solve, service.DigestVector(op.Leave(make([]float64, n), sol)))
	}
	return spmv, solve, nil
}

// runSwarm is the -swarm mode: an in-process server under a
// deterministic chaos swarm — concurrent tenants, injected device
// faults, killed clients, too-tight deadlines — ending in a full
// drain. It exits non-zero on any digest mismatch or transport error.
func runSwarm(o options, cfg service.Config, out io.Writer) error {
	rep, err := swarmRun(o, cfg, out)
	if err != nil {
		return err
	}
	body, err := json.MarshalIndent(map[string]any{"schema": "pjds-spmvd/v1", "swarm": rep}, "", "  ")
	if err != nil {
		return err
	}
	body = append(body, '\n')
	if o.out != "" {
		if err := os.WriteFile(o.out, body, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", o.out)
	} else {
		_, _ = out.Write(body)
	}
	if rep.DigestMismatches > 0 {
		return fmt.Errorf("swarm: %d digest mismatch(es) — the service returned wrong bits", rep.DigestMismatches)
	}
	if rep.OtherErrors > 0 {
		return fmt.Errorf("swarm: %d unexpected error(s)", rep.OtherErrors)
	}
	if rep.OK == 0 {
		return fmt.Errorf("swarm: no request succeeded")
	}
	return nil
}

// swarmRun starts the service, runs the swarm, drains, and returns
// the report.
func swarmRun(o options, cfg service.Config, out io.Writer) (*swarmReport, error) {
	eng := health.New(telemetry.Default(), health.Options{})
	eng.Start(health.Options{Interval: 100 * time.Millisecond})
	defer eng.Stop()
	cfg.Health = eng

	svc := service.New(cfg)
	defer svc.Close()
	svc.RegisterHTTP()
	srv, err := telemetry.Serve(o.addr, telemetry.Default())
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	base := "http://" + srv.Addr
	fmt.Fprintf(out, "spmvd listening on %s (swarm mode)\n", base)

	// The shared matrix: an SPD 2D stencil, uploaded over the wire so
	// the swarm exercises the streaming ingest path too.
	m := matgen.Stencil2D(o.nx, o.nx)
	var mm bytes.Buffer
	if err := matrix.WriteMatrixMarket(&mm, m); err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/v1/matrices?name=swarm-stencil", "text/plain", bytes.NewReader(mm.Bytes()))
	if err != nil {
		return nil, err
	}
	var info service.MatrixInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("swarm upload: HTTP %d, %v", resp.StatusCode, err)
	}

	spmvRef, solveRef, err := references(m)
	if err != nil {
		return nil, err
	}

	rep := &swarmReport{Clients: o.clients, RequestsPerClnt: o.reqs}
	var (
		ok, shed, unavail, timeout, checkpointed, killed, mismatches, other atomic.Int64
		latMu                                                               sync.Mutex
		lats                                                                []float64
	)
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        o.clients * 2,
		MaxIdleConnsPerHost: o.clients * 2,
	}}

	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < o.clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%02d", c%8)
			for r := 0; r < o.reqs; r++ {
				h := splitmix64(o.seed ^ uint64(c)<<32 ^ uint64(r))
				vseed := h % swarmSeeds
				kind := "spmv"
				if h>>8&1 == 1 {
					kind = "solve"
				}
				kill := int(h>>16%100) < o.killPct
				tight := !kill && int(h>>24%100) < o.ddlPct

				var body []byte
				if kind == "spmv" {
					body, _ = json.Marshal(service.SpMVRequest{Matrix: info.ID, Seed: vseed})
				} else {
					body, _ = json.Marshal(service.SolveRequest{Matrix: info.ID, Seed: vseed})
				}
				ctx, cancel := context.WithCancel(context.Background())
				if kill {
					// A client that vanishes mid-request: the server
					// must reclaim the slot and checkpoint the solve.
					killDelay := time.Duration(1+h>>32%5) * time.Millisecond
					time.AfterFunc(killDelay, cancel)
					killed.Add(1)
				}
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/"+kind, bytes.NewReader(body))
				req.Header.Set("X-Tenant", tenant)
				if tight {
					req.Header.Set(service.HeaderDeadlineMs, "1")
				}
				rt0 := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					cancel()
					if kill || tight {
						continue // its own doing
					}
					other.Add(1)
					fmt.Fprintf(out, "swarm: client %d req %d: %v\n", c, r, err)
					continue
				}
				lat := time.Since(rt0).Seconds()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
					latMu.Lock()
					lats = append(lats, lat)
					latMu.Unlock()
					want := spmvRef[vseed]
					var digest string
					var converged bool
					if kind == "spmv" {
						var res service.SpMVResult
						_ = json.NewDecoder(resp.Body).Decode(&res)
						digest, converged = res.Digest, true
					} else {
						var res service.SolveResult
						_ = json.NewDecoder(resp.Body).Decode(&res)
						digest, converged = res.Digest, res.Converged
						want = solveRef[vseed]
					}
					if converged && digest != want {
						mismatches.Add(1)
						fmt.Fprintf(out, "swarm: DIGEST MISMATCH client %d req %d %s seed %d: %s != %s\n",
							c, r, kind, vseed, digest, want)
					}
				case http.StatusTooManyRequests:
					shed.Add(1)
					// Honor the precise backpressure hint once, capped
					// so a long Retry-After can't stall the swarm.
					if ms, err := strconv.ParseFloat(resp.Header.Get("X-Retry-After-Ms"), 64); err == nil {
						d := time.Duration(ms * float64(time.Millisecond))
						if d > 20*time.Millisecond {
							d = 20 * time.Millisecond
						}
						time.Sleep(d)
					}
				case http.StatusServiceUnavailable:
					unavail.Add(1)
					var sres service.SolveResult
					if json.NewDecoder(resp.Body).Decode(&sres) == nil && sres.Checkpointed {
						checkpointed.Add(1)
					}
				case http.StatusGatewayTimeout:
					timeout.Add(1)
				default:
					other.Add(1)
					fmt.Fprintf(out, "swarm: client %d req %d: unexpected HTTP %d\n", c, r, resp.StatusCode)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				cancel()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)

	// The SIGTERM path, minus the signal: stop admitting, finish or
	// checkpoint what's in flight, then report.
	drain := svc.Drain(o.drainGrace)
	st := svc.StatusNow()

	rep.Requests = int64(o.clients * o.reqs)
	rep.OK = ok.Load()
	rep.Shed429 = shed.Load()
	rep.Unavailable503 = unavail.Load()
	rep.Timeout504 = timeout.Load()
	rep.Checkpointed = checkpointed.Load() + st.Checkpointed
	rep.KilledClients = killed.Load()
	rep.OtherErrors = other.Load()
	rep.DigestMismatches = mismatches.Load()
	rep.ElapsedSeconds = elapsed.Seconds()
	if rep.OK > 0 {
		rep.ThroughputRPS = float64(rep.OK) / elapsed.Seconds()
	}
	sort.Float64s(lats)
	if len(lats) > 0 {
		rep.P50Latency = lats[int(0.50*float64(len(lats)-1))]
		rep.P99Latency = lats[int(0.99*float64(len(lats)-1))]
	}
	rep.HostFallbacks = st.HostFallbacks
	rep.DevicesLost = st.Devices - st.DevicesHealthy
	rep.DrainGraceful = drain.Graceful
	rep.DrainCheckpoints = drain.Checkpointed
	rep.DrainSeconds = drain.WaitedSeconds
	return rep, nil
}
