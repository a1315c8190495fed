package distsolver

import (
	"strconv"

	"pjds/internal/distmv"
	"pjds/internal/mpi"
	"pjds/internal/profiles"
	"pjds/internal/solver"
	"pjds/internal/telemetry"
)

// ErrNotConverged is the serial solver package's sentinel: the
// distributed solves run its loops.
var ErrNotConverged = solver.ErrNotConverged

// CGResult reports a distributed conjugate-gradient solve.
type CGResult struct {
	Iterations int
	Residual   float64
}

// CG solves A·x = b for SPD A across all ranks: x and b hold this
// rank's rows, the operator exchanges halos internally, and the
// reductions synchronize the virtual clocks. x is updated in place;
// every rank returns the same result metadata. An optional Instrument
// records convergence gauges and per-iteration spans.
func CG(c *mpi.Comm, rp *distmv.RankProblem, x, b []float64, tol float64, maxIter int, inst ...*Instrument) (CGResult, error) {
	// Each rank goroutine runs its whole solve here: re-label it from
	// phase=mpi to phase=solver, keeping the rank for per-rank slicing.
	profiles.SetPhase(profiles.PhaseSolver, "rank", strconv.Itoa(rp.Rank))
	in := firstInstrument(inst)
	h := in.hooks(c, rp.Rank, "cg", "CG iteration", nil)
	op, err := newSolveOperator(rp, c, in)
	if err != nil {
		return CGResult{}, err
	}
	s, err := solver.NewCGState(op, x, b, h)
	if err != nil {
		return CGResult{}, err
	}
	res, err := s.Run(op, tol, maxIter, h)
	return CGResult{Iterations: res.Iterations, Residual: res.Residual}, err
}

// PowerResult reports a distributed power iteration; Vector is this
// rank's slice of the normalized eigenvector.
type PowerResult = solver.PowerResult

// PowerIteration finds the dominant eigenvalue of the distributed
// operator; v0 (optional) is this rank's slice of the start vector.
// An optional Instrument records convergence gauges, the eigenvalue
// estimate and per-iteration spans.
func PowerIteration(c *mpi.Comm, rp *distmv.RankProblem, v0 []float64, tol float64, maxIter int, inst ...*Instrument) (PowerResult, error) {
	profiles.SetPhase(profiles.PhaseSolver, "rank", strconv.Itoa(rp.Rank))
	in := firstInstrument(inst)
	var res PowerResult
	h := in.hooks(c, rp.Rank, "power", "power iteration", nil)
	if in != nil {
		reg := in.registry()
		reg.Help("solver_eigenvalue", "current dominant-eigenvalue estimate")
		eig := reg.Gauge("solver_eigenvalue", telemetry.Li("rank", rp.Rank))
		gauges := h.After
		h.After = func(iteration int, change float64) {
			gauges(iteration, change)
			eig.Set(res.Eigenvalue)
		}
	}
	op, err := newSolveOperator(rp, c, in)
	if err != nil {
		return PowerResult{}, err
	}
	if res.Vector, err = solver.PowerStart(v0, op.Dim(), rp.RowLo); err != nil {
		return PowerResult{}, err
	}
	err = solver.Power(op, &res, tol, maxIter, h)
	return res, err
}
