package distmv

import (
	"fmt"
	"math"

	"pjds/internal/core"
	"pjds/internal/gpu"
	"pjds/internal/matrix"
	"pjds/internal/telemetry"
)

// FormatKind selects the device storage format of the distributed
// code. The paper's scaling runs use ELLPACK-R throughout (§III); the
// pJDS variant is the outlook the paper defers to future work,
// implemented here (DESIGN.md experiment E12).
type FormatKind int

// Supported device formats.
const (
	FormatELLPACKR FormatKind = iota
	FormatPJDS
)

// String names the format.
func (k FormatKind) String() string {
	switch k {
	case FormatELLPACKR:
		return "ELLPACK-R"
	case FormatPJDS:
		return "pJDS"
	default:
		return fmt.Sprintf("FormatKind(%d)", int(k))
	}
}

// RankProfile holds one rank's functional result and the simulated
// kernel statistics the timing choreography is built from.
type RankProfile struct {
	// Local and NonLocal profile the split kernels of the overlapped
	// modes (the non-local kernel accumulates, adding LHS read
	// traffic, §III-A); Merged profiles vector mode's single-step
	// kernel over the combined column space.
	Local, NonLocal, Merged *gpu.KernelStats
	// Y is the rank's result rows in original order.
	Y []float64
}

// Profile runs the rank's kernels once on the device simulator with
// the extended RHS xExt = [local x | halo x], returning functional
// results and timing. The merged single-step kernel is rebuilt, run
// and discarded; its result must agree with local+non-local, which is
// asserted here as an internal consistency check. Kernel statistics
// are published into reg (nil selects telemetry.Default()) labelled by
// rank and phase, so concurrent ranks never share a gauge series.
// workers is forwarded to gpu.RunOptions.Workers (0 = package
// default); it affects host wall-clock only, never results or stats.
func (rp *RankProblem) Profile(dev *gpu.Device, kind FormatKind, xExt []float64, reg *telemetry.Registry, workers int) (*RankProfile, error) {
	nloc := rp.LocalRows()
	if len(xExt) != nloc+rp.HaloSize() {
		return nil, fmt.Errorf("distmv: rank %d xExt length %d, want %d", rp.Rank, len(xExt), nloc+rp.HaloSize())
	}
	xLoc := xExt[:nloc]
	xHalo := xExt[nloc:]
	prof := &RankProfile{Y: make([]float64, nloc)}

	runOne := func(phase string, m *matrix.CSR[float64], x, y []float64, acc bool) (*gpu.KernelStats, error) {
		opt := gpu.RunOptions{
			Accumulate: acc,
			Workers:    workers,
			Metrics:    reg,
			MetricLabels: []telemetry.Label{
				telemetry.Li("rank", rp.Rank),
				telemetry.L("phase", phase),
			},
		}
		switch kind {
		case FormatELLPACKR:
			return gpu.RunSELL(dev, core.NewELLPACKR(m, matrix.ConvertOptions{}), y, x, opt)
		case FormatPJDS:
			p, err := core.NewPJDS(m, core.Options{})
			if err != nil {
				return nil, err
			}
			yp := make([]float64, m.NRows)
			opt.Accumulate = false
			st, err := gpu.RunPJDS(dev, p, yp, x, opt)
			if err != nil {
				return nil, err
			}
			// Leave the permuted basis; accumulate on the host side of
			// the simulation if requested.
			if acc {
				for i, old := range p.Perm {
					y[old] += yp[i]
				}
			} else {
				matrix.Scatter(y, yp, p.Perm)
			}
			return st, nil
		default:
			return nil, fmt.Errorf("distmv: unknown format kind %d", kind)
		}
	}

	var err error
	if prof.Local, err = runOne("local", rp.Local, xLoc, prof.Y, false); err != nil {
		return nil, fmt.Errorf("distmv: rank %d local kernel: %w", rp.Rank, err)
	}
	if prof.NonLocal, err = runOne("non-local", rp.NonLocal, xHalo, prof.Y, true); err != nil {
		return nil, fmt.Errorf("distmv: rank %d non-local kernel: %w", rp.Rank, err)
	}

	merged := rp.MergedSlice()
	yMerged := make([]float64, nloc)
	if prof.Merged, err = runOne("merged", merged, xExt, yMerged, false); err != nil {
		return nil, fmt.Errorf("distmv: rank %d merged kernel: %w", rp.Rank, err)
	}
	for i := range yMerged {
		if d := math.Abs(yMerged[i] - prof.Y[i]); d > 1e-9*(1+math.Abs(prof.Y[i])) {
			return nil, fmt.Errorf("distmv: rank %d: split and merged kernels disagree at row %d: %g vs %g",
				rp.Rank, i, prof.Y[i], yMerged[i])
		}
	}
	return prof, nil
}
