package distsolver

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"pjds/internal/distmv"
	"pjds/internal/flight"
	"pjds/internal/gpu"
	"pjds/internal/mpi"
	"pjds/internal/simnet"
	"pjds/internal/solver"
)

// FaultSchedule is the slice of a fault plan the recovery driver
// consults directly: scheduled rank crashes (consumed one-shot, so a
// replayed iteration does not crash twice) and per-rank compute
// slowdowns. internal/faults.Plan implements it.
type FaultSchedule interface {
	// CrashNow reports whether rank should crash at the top of solver
	// iteration iter; a true return is consumed.
	CrashNow(rank, iter int) bool
	// SlowFactor returns the compute slowdown of rank (1 = full speed).
	SlowFactor(rank int) float64
}

// RecoverConfig parameterizes RecoverableCG.
type RecoverConfig struct {
	// Tol and MaxIter are the CG convergence controls.
	Tol     float64
	MaxIter int
	// CheckpointEvery commits an in-memory checkpoint of the solver
	// vectors every that many iterations (0 selects 10, negative
	// disables checkpointing — every rollback restarts from scratch).
	CheckpointEvery int
	// Schedule (optional) injects iteration-indexed rank crashes and
	// per-rank slowdowns.
	Schedule FaultSchedule
	// DeviceFaults (optional) supplies the per-rank ECC injector wired
	// into the operator's device kernels.
	DeviceFaults func(rank int) gpu.ECCInjector
	// Wire injects wire-level faults into the message layer, whose
	// reliable transport retransmits dropped messages under
	// mpi.DefaultRetry and detects dead ranks after
	// mpi.DefaultHeartbeatSeconds.
	Wire simnet.Injector
	// Inst carries telemetry (metrics, spans, optional device routing)
	// exactly as for CG.
	Inst *Instrument
}

const (
	// maxRestarts bounds rollback-restart attempts.
	maxRestarts = 3
	// rehostSlowdown is the compute-slowdown multiplier applied to a
	// logical rank re-hosted on a surviving node after its own node
	// crashed — and to the rank whose node takes it in, since the two
	// now share one device. Timing-only: keeping all P logical ranks
	// alive preserves the partition and the reduction order, which is
	// what makes recovered solves bit-identical.
	rehostSlowdown = 2
	// restartSeconds is the modelled rollback overhead charged between
	// a detected failure and the relaunched attempt.
	restartSeconds = 500e-6
)

// withDefaults fills the unset fields with their documented defaults.
func (cfg RecoverConfig) withDefaults() RecoverConfig {
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 10
	}
	return cfg
}

// RecoverResult reports a fault-tolerant distributed CG solve.
type RecoverResult struct {
	CG CGResult
	// Restarts counts rollback-restart cycles; Checkpoints counts
	// committed checkpoints across all attempts.
	Restarts    int
	Checkpoints int
	// Failures records the root-cause error text of every aborted
	// attempt, in order.
	Failures []string
	// DeadRanks lists logical ranks whose node crashed; HostOf maps
	// every logical rank to the physical node running it (identity for
	// survivors).
	DeadRanks []int
	HostOf    []int
	// DegradedRanks lists ranks that lost their device to an ECC event
	// and finished on the host kernels.
	DegradedRanks []int
	// RecoverySeconds is the modelled virtual time spent in rollback
	// overhead (restart windows, not the replayed iterations).
	RecoverySeconds float64
	// Clocks holds the per-rank virtual clocks of the final attempt.
	Clocks []float64
}

// checkpoint is one committed in-memory snapshot of the CG state, one
// part per logical rank: everything a relaunched attempt needs to
// replay the exact floating-point trajectory from the saved iteration
// on. Re-hosting keeps every logical rank, so each restores its part.
type checkpoint []*solver.CGState

// cloneState deep-copies a CG state, so a checkpoint never shares the
// vectors a running solve updates in place.
func cloneState(s solver.CGState) *solver.CGState {
	clone := func(v []float64) []float64 { return append([]float64(nil), v...) }
	s.X, s.R, s.P = clone(s.X), clone(s.R), clone(s.P)
	return &s
}

// RecoverableCG solves A·x = b with CG under injected faults: wire
// faults ride the message layer's reliable transport, scheduled rank
// crashes abort the attempt and trigger rollback to the last committed
// checkpoint with the dead rank re-hosted on a survivor, and ECC
// events degrade individual ranks from device to host execution
// mid-flight. b and the optional x0 are global vectors (length
// GlobalN); the returned vector is the assembled global solution.
// Because every recovery path replays the identical floating-point
// sequence, the result is bit-identical to a fault-free run.
func RecoverableCG(fabric *simnet.Fabric, problems []*distmv.RankProblem, b, x0 []float64, cfg RecoverConfig) (*RecoverResult, []float64, error) {
	if len(problems) == 0 {
		return nil, nil, fmt.Errorf("distsolver: RecoverableCG with no rank problems")
	}
	p := problems[0].P
	n := problems[0].GlobalN
	if len(b) != n {
		return nil, nil, fmt.Errorf("distsolver: RecoverableCG |b|=%d, global size %d", len(b), n)
	}
	if x0 != nil && len(x0) != n {
		return nil, nil, fmt.Errorf("distsolver: RecoverableCG |x0|=%d, global size %d", len(x0), n)
	}
	cfg = cfg.withDefaults()
	in := cfg.Inst
	reg := in.registry()
	reg.Help("distsolver_checkpoints_total", "committed in-memory solver checkpoints")
	reg.Help("distsolver_rollbacks_total", "rollback-restart cycles after detected failures")
	reg.Help("distsolver_rehosted_ranks_total", "logical ranks re-hosted on a surviving node")
	reg.Help("distsolver_recovery_seconds_total", "modelled virtual time spent in rollback overhead")

	res := &RecoverResult{HostOf: make([]int, p)}
	for i := range res.HostOf {
		res.HostOf[i] = i
	}
	dead := make([]bool, p)
	degraded := make([]bool, p)
	xOut := make([]float64, n)

	var mu sync.Mutex // guards ckpt and final across rank goroutines
	var ckpt checkpoint
	var final CGResult
	resumeBase := 0.0 // virtual-clock floor of the next attempt
	failAt := 0.0     // detection time of the previous attempt's failure

	slowFor := func(rank int) float64 {
		s := 1.0
		if cfg.Schedule != nil {
			s = cfg.Schedule.SlowFactor(rank)
		}
		if dead[rank] {
			return s * rehostSlowdown
		}
		for f, d := range dead {
			if d && res.HostOf[f] == rank {
				return s * rehostSlowdown
			}
		}
		return s
	}

	for {
		start := ckpt // committed snapshot this attempt resumes from
		body := func(c *mpi.Comm) error {
			rank := c.Rank()
			rp := problems[rank]
			nloc := rp.LocalRows()
			if res.Restarts > 0 {
				// Virtual-clock continuity across attempts: the relaunch
				// starts where the failed attempt's detection left off,
				// plus the modelled restart overhead.
				c.Advance(resumeBase)
				in.emit(rank, "recovery", "recovery", "rollback", failAt, c.Clock(),
					map[string]string{"attempt": strconv.Itoa(res.Restarts)})
			}
			op, err := newSolveOperator(rp, c, in)
			if err != nil {
				return err
			}
			op.Slow = slowFor(rank)
			if cfg.DeviceFaults != nil {
				op.Faults = cfg.DeviceFaults(rank)
			}
			defer func() {
				if op.Degraded {
					degraded[rank] = true // own slot only: no write overlap
				}
			}()

			var st *solver.CGState
			commit := func(k int) error {
				t0 := c.Clock()
				// Modelled cost of shipping the three vectors to the
				// in-memory checkpoint store, then a barrier so every rank
				// commits the same snapshot at a synchronized clock.
				c.Advance(c.Fabric().TransferSeconds(int64(3 * 8 * nloc)))
				parts, err := c.AllgatherUntimed(cloneState(*st))
				if err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if rank == 0 {
					nc := make(checkpoint, len(parts))
					for i, part := range parts {
						nc[i] = part.(*solver.CGState)
					}
					mu.Lock()
					ckpt = nc
					res.Checkpoints++
					mu.Unlock()
					reg.Counter("distsolver_checkpoints_total").Inc()
					flight.Record(flight.Info, "solver.checkpoint", rank, c.Clock(), "committed in-memory solver checkpoint", float64(k))
				}
				in.emit(rank, "recovery", "recovery", "checkpoint", t0, c.Clock(),
					map[string]string{"iteration": strconv.Itoa(k)})
				return nil
			}

			// Before each iteration: commit a checkpoint on schedule (not
			// at the iteration this attempt resumed from), then fire any
			// crash scheduled for this rank and iteration.
			startIter, every := 0, cfg.CheckpointEvery
			h := in.hooks(c, rank, "cg", "CG iteration", func(k int) error {
				if every > 0 && k > startIter && k%every == 0 {
					if err := commit(k); err != nil {
						return err
					}
				}
				if cfg.Schedule != nil && cfg.Schedule.CrashNow(rank, k) {
					return c.Crash()
				}
				return nil
			})
			lo, hi := rp.RowLo, rp.RowHi
			if start != nil {
				// Restore from the checkpoint: modelled cost of reading the
				// three vectors back, then the exact saved state.
				c.Advance(c.Fabric().TransferSeconds(int64(3 * 8 * nloc)))
				st = cloneState(*start[rank])
				startIter = st.Iter
			} else {
				x := make([]float64, nloc)
				if x0 != nil {
					copy(x, x0[lo:hi])
				}
				if st, err = solver.NewCGState(op, x, b[lo:hi], h); err != nil {
					return err
				}
			}
			cg, err := st.Run(op, cfg.Tol, cfg.MaxIter, h)
			if err != nil {
				return err
			}
			copy(xOut[lo:hi], st.X) // disjoint row blocks
			if rank == 0 {
				mu.Lock()
				final = CGResult{Iterations: cg.Iterations, Residual: cg.Residual}
				mu.Unlock()
			}
			return nil
		}

		opts := mpi.Options{Faults: cfg.Wire}
		if in != nil {
			opts.Metrics = in.Metrics
			opts.Spans = in.Spans
		}
		clocks, err := mpi.RunWithOptions(p, fabric, opts, body)
		res.Clocks = clocks
		if err == nil {
			res.CG = final
			res.DegradedRanks = res.DegradedRanks[:0]
			for rank, d := range degraded {
				if d {
					res.DegradedRanks = append(res.DegradedRanks, rank)
				}
			}
			return res, xOut, nil
		}
		res.Failures = append(res.Failures, err.Error())

		var rf *mpi.RankFailedError
		var rx *mpi.RetriesExhaustedError
		switch {
		case errors.As(err, &rf):
			if !dead[rf.Rank] {
				dead[rf.Rank] = true
				host, herr := survivorFor(rf.Rank, dead)
				if herr != nil {
					return res, nil, herr
				}
				res.DeadRanks = append(res.DeadRanks, rf.Rank)
				res.HostOf[rf.Rank] = host
				reg.Counter("distsolver_rehosted_ranks_total").Inc()
				flight.Record(flight.Warn, "solver.rehost", rf.Rank, rf.DetectedAt, "logical rank re-hosted on surviving node", float64(host))
			}
		case errors.As(err, &rx):
			// Transport gave up on a link: roll back and retry the
			// attempt — the probabilistic drop schedule is seq-indexed,
			// so the replay is deterministic but not identical.
		default:
			return res, nil, err
		}
		if res.Restarts >= maxRestarts {
			return res, nil, fmt.Errorf("distsolver: recovery gave up after %d restarts: %w", res.Restarts, err)
		}
		res.Restarts++
		reg.Counter("distsolver_rollbacks_total").Inc()
		failAt = maxClock(clocks)
		flight.Record(flight.Warn, "solver.rollback", -1, failAt, "rolling back to last checkpoint after detected failure", float64(res.Restarts))
		resumeBase = failAt + restartSeconds
		res.RecoverySeconds += restartSeconds
		reg.Counter("distsolver_recovery_seconds_total").Add(restartSeconds)
	}
}

// survivorFor picks the physical node re-hosting a crashed logical
// rank: the next surviving rank in ring order.
func survivorFor(failed int, dead []bool) (int, error) {
	p := len(dead)
	for d := 1; d < p; d++ {
		cand := (failed + d) % p
		if !dead[cand] {
			return cand, nil
		}
	}
	return -1, fmt.Errorf("distsolver: no surviving rank to re-host rank %d", failed)
}

func maxClock(clocks []float64) float64 {
	m := 0.0
	for _, c := range clocks {
		if c > m {
			m = c
		}
	}
	return m
}
