package critpath

import (
	"fmt"
	"sort"
	"strconv"

	"pjds/internal/model"
	"pjds/internal/telemetry"
)

// KernelEntry compares one kernel phase's measured traffic against the
// Eq. 1 model: the predicted code balance 6 + 4α + 8/N_nzr at the
// MEASURED α and N_nzr, so the deviation isolates overhead the model
// does not account for (uncoalesced access, divergence padding, meta
// streams) from legitimate RHS re-loading (which moves α instead).
type KernelEntry struct {
	Rank   int    `json:"rank"`
	Phase  string `json:"phase"` // local / non-local / merged
	Kernel string `json:"kernel"`
	Device string `json:"device,omitempty"`

	NnzPerRow       float64 `json:"nnz_per_row"`
	Alpha           float64 `json:"alpha"`
	MeasuredBalance float64 `json:"measured_balance"` // bytes/flop
	PredictedDP     float64 `json:"predicted_balance"`
	DeviationPct    float64 `json:"deviation_pct"`
	Coalescing      float64 `json:"coalescing_efficiency"`
	GFlops          float64 `json:"gflops"`
	// Note flags entries whose deviation has an identified cause.
	Note string `json:"note,omitempty"`
}

// kernelKey groups the gpu_kernel_* series of one phase.
type kernelKey struct {
	rank          int
	phase, kernel string
	device        string
}

// AttributeKernels builds the measured-vs-model table from a metrics
// snapshot (the gpu_kernel_* families published by internal/gpu with
// the rank/phase labels internal/distmv attaches). Entries are sorted
// by rank then phase; series without a rank label (single-device
// benchmarks) appear as rank -1.
func AttributeKernels(metrics []telemetry.Series) []KernelEntry {
	type acc struct {
		nnz, rows, alpha, balance, coal, gflops float64
	}
	byKey := map[kernelKey]*acc{}
	for _, s := range metrics {
		switch s.Name {
		case "gpu_kernel_nnz_total", "gpu_kernel_rows_total",
			"gpu_kernel_alpha", "gpu_kernel_code_balance",
			"gpu_kernel_coalescing_efficiency", "gpu_kernel_gflops":
		default:
			continue
		}
		k := kernelKey{rank: -1, kernel: s.Labels["kernel"], device: s.Labels["device"], phase: s.Labels["phase"]}
		if r, err := strconv.Atoi(s.Labels["rank"]); err == nil {
			k.rank = r
		}
		a := byKey[k]
		if a == nil {
			a = &acc{}
			byKey[k] = a
		}
		switch s.Name {
		case "gpu_kernel_nnz_total":
			a.nnz = s.Value
		case "gpu_kernel_rows_total":
			a.rows = s.Value
		case "gpu_kernel_alpha":
			a.alpha = s.Value
		case "gpu_kernel_code_balance":
			a.balance = s.Value
		case "gpu_kernel_coalescing_efficiency":
			a.coal = s.Value
		case "gpu_kernel_gflops":
			a.gflops = s.Value
		}
	}
	keys := make([]kernelKey, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		switch {
		case a.rank != b.rank:
			return a.rank < b.rank
		case a.phase != b.phase:
			return a.phase < b.phase
		case a.kernel != b.kernel:
			return a.kernel < b.kernel
		}
		return a.device < b.device
	})
	var out []KernelEntry
	for _, k := range keys {
		a := byKey[k]
		if a.rows <= 0 || a.nnz <= 0 {
			continue // empty phase (e.g. a rank with no non-local part)
		}
		e := KernelEntry{
			Rank: k.rank, Phase: k.phase, Kernel: k.kernel, Device: k.device,
			NnzPerRow:       a.nnz / a.rows,
			Alpha:           a.alpha,
			MeasuredBalance: a.balance,
			Coalescing:      a.coal,
			GFlops:          a.gflops,
		}
		e.PredictedDP = model.CodeBalanceDP(e.Alpha, e.NnzPerRow)
		if e.PredictedDP > 0 {
			e.DeviationPct = 100 * (e.MeasuredBalance - e.PredictedDP) / e.PredictedDP
		}
		e.Note = kernelNote(e)
		out = append(out, e)
	}
	return out
}

// kernelNote names the likeliest cause of a model deviation.
func kernelNote(e KernelEntry) string {
	switch {
	case e.Coalescing < 0.9:
		return fmt.Sprintf("uncoalesced val/idx access (%.0f%% efficiency) inflates traffic", 100*e.Coalescing)
	case e.DeviationPct > 10:
		return "traffic above the Eq. 1 worst case: divergence padding or meta streams"
	case e.DeviationPct < -10:
		return "traffic below model: RHS reuse better than the measured α suggests"
	case e.Alpha > 0.5 && e.NnzPerRow > 0 && e.Alpha > 2/e.NnzPerRow:
		return "poor RHS cache reuse (α near worst case) dominates the balance"
	}
	return ""
}
