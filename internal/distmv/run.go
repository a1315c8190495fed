package distmv

import (
	"fmt"

	"pjds/internal/gpu"
	"pjds/internal/matrix"
	"pjds/internal/model"
	"pjds/internal/mpi"
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
	// Workers is the number of host goroutines executing each
	// simulated kernel's warps (gpu.RunOptions.Workers); 0 selects the
	// gpu package default. Any value yields bit-identical results.
	Workers int
	// HostGatherBW models the host-side gather of send buffers
	// ("local gather" in Fig. 4); 0 selects 8 GB/s.
	HostGatherBW float64
	// SkipFitCheck disables the device-memory admission check (the
	// constraint that keeps Fig. 5b's UHBR off fewer than 5 nodes).
	SkipFitCheck bool
	// GPUsPerNode places that many consecutive ranks on one physical
	// node, exchanging halos over IntraNodeFabric (nil selects the
	// shared-memory default) instead of the interconnect. 0 or 1
	// reproduces the paper's one-GPU-per-node Dirac cluster.
	GPUsPerNode int
	// IntraNodeFabric overrides the intra-node transfer model.
	IntraNodeFabric *simnet.Fabric
	// Partitioner overrides the row-block partitioning strategy
	// (nil = PartitionByNnz, the load-balanced choice of [4]).
	Partitioner func(*matrix.CSR[float64], int) (Partition, error)
	// Telemetry receives the run's metrics: per-rank kernel model
	// quantities (labelled by rank and phase), message-passing and
	// wire traffic, halo structure, and run-level performance. Nil
	// selects telemetry.Default().
	Telemetry *telemetry.Registry
	// Spans, when non-nil, receives the per-rank, per-lane phase
	// spans of every timed iteration on every rank — the generalized
	// form of Result.Timeline (which keeps only rank 0's first
	// iteration) consumed by the telemetry.WriteTrace exporter.
	Spans *telemetry.SpanLog
	// Faults injects wire-level faults (drops, delays, duplicates,
	// link degradation) into the halo exchanges; nil runs healthy.
	Faults simnet.Injector
	// Retry is the reliable-transport policy applied to dropped halo
	// messages (zero value = mpi.DefaultRetry).
	Retry mpi.RetryPolicy
	// HeartbeatSeconds tunes the failure detector (0 = mpi default).
	HeartbeatSeconds float64
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
	if c.HostGatherBW <= 0 {
		c.HostGatherBW = 8e9
	}
	return c
}

// Event is one block of the Fig. 4 timeline, recorded on rank 0's
// first iteration.
type Event struct {
	Lane  string // "host" (thread 0) or "gpu"
	Name  string
	Start float64
	End   float64
}

// Breakdown sums the recorded first-iteration phase durations of rank
// 0 by event name, in seconds. In task mode the host and GPU lanes
// overlap, so the parts may sum to more than the iteration wallclock.
func (r *Result) Breakdown() map[string]float64 {
	out := map[string]float64{}
	for _, e := range r.Timeline {
		out[e.Name] += e.End - e.Start
	}
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
	// Ranks reports the per-rank structure; Timeline holds rank 0's
	// first-iteration event trace (Fig. 4).
	Ranks    []RankReport
	Timeline []Event
}
