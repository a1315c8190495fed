package distmv

import (
	"fmt"
	"slices"
	"sort"

	"pjds/internal/gpu"
	"pjds/internal/matrix"
	"pjds/internal/model"
	"pjds/internal/simnet"
	"pjds/internal/telemetry"
)

// Mode selects the §III-A communication scheme.
type Mode int

// The three schemes of §III-A.
const (
	// VectorMode exchanges the halo up front and runs the whole spMVM
	// as a single kernel — the programming style of vector-parallel
	// machines, no overlap.
	VectorMode Mode = iota
	// NaiveOverlap splits the spMVM into local and non-local parts and
	// posts nonblocking MPI around the local kernel. Without
	// asynchronous progress in the MPI library (the realistic
	// default), it gains nothing over vector mode.
	NaiveOverlap
	// TaskMode dedicates a host thread to MPI so communication truly
	// overlaps the local kernel (Fig. 4).
	TaskMode
)

// Modes lists all schemes in presentation order.
func Modes() []Mode { return []Mode{VectorMode, NaiveOverlap, TaskMode} }

// String names the mode as in Fig. 5's legend.
func (m Mode) String() string {
	switch m {
	case VectorMode:
		return "Vector mode Isend/Irecv"
	case NaiveOverlap:
		return "Naive overlap"
	case TaskMode:
		return "Task mode"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Slug returns the short machine-readable mode name used as a
// telemetry label value.
func (m Mode) Slug() string {
	switch m {
	case VectorMode:
		return "vector"
	case NaiveOverlap:
		return "naive-overlap"
	case TaskMode:
		return "task"
	default:
		return fmt.Sprintf("mode-%d", int(m))
	}
}

// Config parameterizes a distributed run.
type Config struct {
	Device *gpu.Device
	Link   *model.Link
	Fabric *simnet.Fabric
	Format FormatKind
	// Iterations is the number of timed spMVM repetitions.
	Iterations int
	// SkipFitCheck disables the device-memory admission check (the
	// constraint that keeps Fig. 5b's UHBR off fewer than 5 nodes).
	SkipFitCheck bool
	// GPUsPerNode places that many consecutive ranks on one physical
	// node, exchanging halos over shared memory (simnet.SharedMemory)
	// instead of the interconnect. 0 or 1 reproduces the paper's
	// one-GPU-per-node Dirac cluster.
	GPUsPerNode int
	// Partitioner overrides the row-block partitioning strategy
	// (nil = PartitionByNnz, the load-balanced choice of [4]).
	Partitioner func(*matrix.CSR[float64], int) (Partition, error)
	// Telemetry receives the run's metrics: per-rank kernel model
	// quantities (labelled by rank and phase), message-passing and
	// wire traffic, halo structure, and run-level performance. Nil
	// selects telemetry.Default().
	Telemetry *telemetry.Registry
	// Spans, when non-nil, receives the phase spans of every timed
	// iteration on every rank (host and gpu lanes) plus the mpi lane's
	// message-passing spans: the input of the telemetry.WriteTrace
	// exporter, and of Fig4Spans for the Fig. 4 timeline. Nil records
	// nothing.
	Spans *telemetry.SpanLog
	// Faults injects wire-level faults (drops, delays, duplicates,
	// link degradation) into the halo exchanges; nil runs healthy.
	// Dropped messages are retransmitted under mpi.DefaultRetry.
	Faults simnet.Injector
}

func (c Config) withDefaults() Config {
	if c.Telemetry == nil {
		c.Telemetry = telemetry.Default()
	}
	if c.Device == nil {
		c.Device = gpu.TeslaC2050()
	}
	if c.Link == nil {
		c.Link = model.Gen2x16()
	}
	if c.Fabric == nil {
		c.Fabric = simnet.QDRInfiniBand()
	}
	if c.Iterations <= 0 {
		c.Iterations = 3
	}
	return c
}

// fig4Phases lists the Fig. 4 phases in the order each lane runs them.
// It orders phases that start at the same instant, as the zero-length
// exchange and halo phases of a rank without halo do.
var fig4Phases = []string{
	"local gather", "MPI_Isend/Irecv", "MPI_Waitall",
	"upload RHS", "spMVM", "local spMVM", "upload halo", "non-local spMVM", "download LHS",
}

// Fig4Spans selects the Fig. 4 timeline from a run recorded into log:
// rank 0's first-iteration spans on the host and gpu lanes, the host
// lane first, then each lane by start time.
func Fig4Spans(log *telemetry.SpanLog) []telemetry.Span {
	var out []telemetry.Span
	for _, s := range log.Spans() {
		if s.Proc == 0 && (s.Lane == "host" || s.Lane == "gpu") && s.Args["iteration"] == "0" {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.Lane != b.Lane:
			return a.Lane == "host"
		case a.Start != b.Start:
			return a.Start < b.Start
		}
		return slices.Index(fig4Phases, a.Name) < slices.Index(fig4Phases, b.Name)
	})
	return out
}

// RankReport summarizes one rank's per-iteration cost structure.
type RankReport struct {
	Rank      int
	LocalRows int
	HaloElems int
	SendElems int
	Neighbors int
	Local     *gpu.KernelStats
	NonLocal  *gpu.KernelStats
	Merged    *gpu.KernelStats
}

// Result is the outcome of one distributed spMVM benchmark.
type Result struct {
	Mode       Mode
	Format     FormatKind
	P          int
	Iterations int
	GlobalNnz  int64
	// Seconds is the total virtual wallclock of the timed loop (max
	// over ranks); PerIterSeconds = Seconds/Iterations.
	Seconds        float64
	PerIterSeconds float64
	// GFlops is the aggregate useful performance, as plotted in Fig. 5.
	GFlops float64
	// Y is the assembled global result vector, for verification.
	Y []float64
	// Ranks reports the per-rank structure.
	Ranks []RankReport
}
