package gpu

import (
	"fmt"

	"pjds/internal/core"
	"pjds/internal/matrix"
	"pjds/internal/telemetry"
)

// RunOptions modify a kernel execution.
type RunOptions struct {
	// Accumulate computes y += A·x instead of y = A·x. The result
	// vector is then both read and written, which adds the 8/N_nzr
	// bytes/flop the paper attributes to the split local/non-local
	// spMVM of §III-A.
	Accumulate bool
	// Workers is the number of host goroutines executing warps
	// concurrently; 0 selects the package default (SetDefaultWorkers,
	// falling back to GOMAXPROCS), 1 forces sequential execution.
	// Results, stats and telemetry are bit-identical for any value:
	// warps write disjoint result rows and every simulated counter is
	// precompiled into the plan.
	Workers int
	// Plans selects the plan cache to memoize compiled kernel plans
	// in; nil uses the package-default cache (Plans()).
	Plans *PlanCache
	// Metrics receives the kernel's statistics after the run; nil
	// publishes to telemetry.Default(). MetricLabels are appended to
	// the kernel/device labels — the distributed runs add rank and
	// phase so concurrent ranks never write the same gauge series.
	Metrics      *telemetry.Registry
	MetricLabels []telemetry.Label
	// Faults (nil = healthy device) is consulted once per kernel
	// launch; a firing injector aborts the launch with an ECCError
	// before any work or timing is modelled.
	Faults ECCInjector
}

// RunSELL executes the spMVM of a SELL-C-σ layout in its stored row
// order: yp = Ap·xp, which is the original basis for the unsorted
// ELLPACK presets. One plan source serves every preset; the preset
// fixes what differs between the paper's kernels:
//
//   - plain ELLPACK (Fig. 2a): lanes run to the global maximum row
//     length, computing on padding, with no metadata load;
//   - ELLPACK-R (Listing 1, Fig. 2b): lanes stop at their row length,
//     but the warp reserves its MP slot until its longest row finishes,
//     and partially-filled transactions still move full segments;
//   - pJDS/JDS (Listing 2, Fig. 2c): rows are sorted, so lanes of a
//     warp have (nearly) equal lengths, and the device addresses the
//     jagged diagonals val[col_start[j]+i];
//   - sliced ELL (related work [12, 13]): one warp covers warpSize
//     consecutive rows, which may span several chunks when C is smaller
//     than the warp; lanes still issue one SIMT instruction stream.
//
// The numeric replay always walks the chunk-major arrays over true row
// lengths, so y is bit-identical to CRS for every preset.
func RunSELL[T matrix.Float](d *Device, s *core.SELL[T], yp, xp []T, opt RunOptions) (*KernelStats, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	name := s.Name()
	if len(xp) != s.NCols || len(yp) < s.N {
		return nil, fmt.Errorf("gpu: %s run |x|=%d |y|=%d on %dx%d: %w", name, len(xp), len(yp), s.N, s.NCols, matrix.ErrShape)
	}
	if err := eccCheck(opt, name); err != nil {
		return nil, err
	}
	p := planFor(opt, d, name, s, func() *Plan[T] {
		src := planSource[T]{
			kernel: name, rows: s.N, cols: s.NCols, nPad: s.NPad,
			nnz: int64(s.Nnz), metaSegs: s.MetaSegments(),
			val: s.Val, col: s.ColIdx, chunk: s.C, chunkStart: s.SliceStart,
			lens: s.RowLen, steps: s.RowLen,
		}
		if s.PadsLanes() {
			src.steps = make([]int32, s.NPad)
			for i := range src.steps {
				src.steps[i] = int32(s.MaxRowLen)
			}
		}
		if s.Jagged() {
			src.colStart = s.ColStart()
		}
		return compilePlan(d, src)
	})
	st := p.run(d, yp, xp, opt)
	if s.Preset == core.PresetSELL {
		publishFormatGeometry(opt.Metrics, s.StoredElems(), int64(s.Nnz),
			telemetry.L("kernel", name),
			telemetry.L("device", d.Name),
			telemetry.L("format", s.SELLName()),
			telemetry.Li("c", s.C),
			telemetry.Li("sigma", s.SortWindow))
	}
	return st, nil
}

// RunPJDS executes the pJDS spMVM of Listing 2 (Fig. 2c) in the
// permuted basis: yp = Ap·xp with yp in sorted-row order.
func RunPJDS[T matrix.Float](d *Device, p *core.PJDS[T], yp, xp []T, opt RunOptions) (*KernelStats, error) {
	return RunSELL(d, &p.SELL, yp, xp, opt)
}

// lhsSegments counts the distinct result-vector segments rows [lo, hi)
// touch; the plan stores the count so the accumulate-dependent byte
// doubling can be applied at replay time.
func lhsSegments(segs *segCounter, lo, hi, es int, segShift uint) int64 {
	if hi <= lo {
		return 0
	}
	segs.reset()
	for i := lo; i < hi; i++ {
		segs.add(addrLHS+int64(i)*int64(es), segShift)
	}
	return int64(len(segs.segs))
}

// lhsBytes counts the result-vector traffic for rows [lo, hi): one
// store (and one load when accumulating) per touched segment.
func lhsBytes(segs *segCounter, lo, hi, es int, segShift uint, segBytes int64, accumulate bool) int64 {
	b := lhsSegments(segs, lo, hi, es, segShift) * segBytes
	if accumulate {
		b *= 2
	}
	return b
}

// storeResult commits per-lane sums to y for rows below n.
func storeResult[T matrix.Float](y, sum []T, wbase, n int, accumulate bool) {
	for lane := 0; lane < len(sum); lane++ {
		i := wbase + lane
		if i >= n {
			break
		}
		if accumulate {
			y[i] += sum[lane]
		} else {
			y[i] = sum[lane]
		}
	}
}
