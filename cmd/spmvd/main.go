// Command spmvd is the multi-tenant spMVM service in front of the
// simulated GPU fleet (ROADMAP item 2, "spMVM-as-a-service"): a
// long-running HTTP server accepting matrix uploads and spMVM / CG
// solve requests from many tenants, with per-tenant token-bucket
// admission, deadline propagation into the kernel replay, a
// device → hostkernel → reject degradation ladder driven by the ECC
// fault signals and the health engine, and graceful drain on SIGTERM.
//
// Modes:
//
//	spmvd                 serve until SIGTERM/SIGINT, then drain and exit 0
//	spmvd -swarm          in-process chaos swarm: many concurrent tenants,
//	                      injected device faults, killed clients, tight
//	                      deadlines; exits non-zero on any wrong digest
//
// With -tuning-db PATH the service runs the (C, σ) auto-tuner once
// per uploaded matrix structure (internal/tuner), serves it with the
// winning format, persists winners in the JSONL tuning DB, and
// publishes service_tuning_lag_ratio so the health engine can flag
// matrices running slower than their tuned prediction.
//
// The service shares one port with the whole observability surface:
// /metrics, /dashboard, /healthz, /spans, /tenants.json and the /v1
// API all ride the same telemetry endpoint.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pjds/internal/faults"
	"pjds/internal/flight"
	"pjds/internal/gpu"
	"pjds/internal/health"
	"pjds/internal/service"
	"pjds/internal/telemetry"
	"pjds/internal/tuner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spmvd:", err)
		os.Exit(1)
	}
}

type options struct {
	addr       string
	devices    int
	inflight   int
	queue      int
	rate       float64
	burst      float64
	deadline   time.Duration
	drainGrace time.Duration
	applyDelay time.Duration
	faultsArg  string
	seed       uint64
	flightOn   bool
	flightDump string
	tuningDB   string

	swarm   bool
	clients int
	reqs    int
	nx      int
	killPct int
	ddlPct  int
	out     string
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("spmvd", flag.ContinueOnError)
	fs.SetOutput(out)
	var o options
	fs.StringVar(&o.addr, "addr", "127.0.0.1:0", "listen address for the service + observability endpoint")
	fs.IntVar(&o.devices, "devices", 4, "simulated GPU devices in the pool")
	fs.IntVar(&o.inflight, "inflight", 0, "max concurrently executing requests (0 = one per device)")
	fs.IntVar(&o.queue, "queue", 0, "bounded admission backlog beyond the in-flight cap (0 = 4x in-flight)")
	fs.Float64Var(&o.rate, "rate", 100, "per-tenant token-bucket refill (requests/second)")
	fs.Float64Var(&o.burst, "burst", 200, "per-tenant token-bucket burst capacity")
	fs.DurationVar(&o.deadline, "deadline", 30*time.Second, "default request deadline when the client sends none")
	fs.DurationVar(&o.drainGrace, "drain-grace", 5*time.Second, "how long drain waits before checkpointing in-flight solves")
	fs.DurationVar(&o.applyDelay, "apply-delay", 0, "synthetic per-application latency (chaos/load testing)")
	fs.StringVar(&o.faultsArg, "faults", "", "fault plan script; 'ecc rank=R launch=N' maps rank to device R (see cmd/chaos)")
	fs.Uint64Var(&o.seed, "seed", 42, "seed for the fault plan and the swarm's request schedule")
	fs.BoolVar(&o.flightOn, "flight", false, "enable the always-on flight recorder (/spans)")
	fs.StringVar(&o.flightDump, "flight-dump", "", "write a post-incident trace here on severe events (implies -flight)")
	fs.StringVar(&o.tuningDB, "tuning-db", "", "tune each uploaded matrix once and persist winners at this JSONL path ('default' = "+tuner.DefaultPath+"; empty disables tuning)")
	fs.BoolVar(&o.swarm, "swarm", false, "run the in-process chaos swarm instead of serving")
	fs.IntVar(&o.clients, "swarm-clients", 24, "concurrent swarm clients")
	fs.IntVar(&o.reqs, "swarm-requests", 12, "requests per swarm client")
	fs.IntVar(&o.nx, "swarm-nx", 16, "swarm matrix stencil edge (nx*nx unknowns)")
	fs.IntVar(&o.killPct, "swarm-kill-pct", 5, "percent of swarm requests whose client is killed mid-flight")
	fs.IntVar(&o.ddlPct, "swarm-deadline-pct", 5, "percent of swarm requests carrying a too-tight deadline")
	fs.StringVar(&o.out, "o", "", "write the swarm JSON report here (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if o.flightOn || o.flightDump != "" {
		rec := flight.Enable(0, 0)
		rec.RegisterHTTP()
		if o.flightDump != "" {
			rec.SetDump(flight.DumpConfig{Path: o.flightDump, MinSeverity: flight.Error})
		}
		defer func() {
			if p := rec.LastDump(); p != "" {
				fmt.Fprintf(out, "flight recorder dumped %s\n", p)
			}
			flight.Disable()
		}()
	}

	var plan *faults.Plan
	if o.faultsArg != "" {
		p, err := faults.Parse(o.seed, o.faultsArg)
		if err != nil {
			return err
		}
		plan = p
	}

	cfg := service.Config{
		Devices:         o.devices,
		MaxInFlight:     o.inflight,
		QueueDepth:      o.queue,
		TenantRate:      o.rate,
		TenantBurst:     o.burst,
		DefaultDeadline: o.deadline,
		ApplyDelay:      o.applyDelay,
		TuningDB:        o.tuningDB,
		Registry:        telemetry.Default(),
	}
	if cfg.TuningDB == "default" {
		cfg.TuningDB = tuner.DefaultPath
	}
	if plan != nil {
		cfg.DeviceFaults = func(i int) gpu.ECCInjector { return plan.DeviceFor(i) }
	}

	if o.swarm {
		return runSwarm(o, cfg, out)
	}
	return serve(o, cfg, out)
}

// serve runs the long-lived server: health engine, full observability
// surface, and the SIGTERM drain path of the tentpole.
func serve(o options, cfg service.Config, out io.Writer) error {
	eng := health.New(telemetry.Default(), health.Options{})
	eng.RegisterHTTP()
	eng.Start(health.Options{})
	defer eng.Stop()
	cfg.Health = eng

	svc := service.New(cfg)
	defer svc.Close()
	svc.RegisterHTTP()

	srv, err := telemetry.Serve(o.addr, telemetry.Default())
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(out, "spmvd listening on http://%s\n", srv.Addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	fmt.Fprintf(out, "spmvd: %s, draining (grace %s)\n", got, o.drainGrace)

	rep := svc.Drain(o.drainGrace)
	st := svc.StatusNow()
	fmt.Fprintf(out, "spmvd: drained in %.3fs (graceful=%v, checkpointed=%d, served=%d)\n",
		rep.WaitedSeconds, rep.Graceful, rep.Checkpointed, st.Served)
	return nil
}
