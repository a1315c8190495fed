// Package pjds is the public facade of the pJDS reproduction: sparse
// matrices, the padded-Jagged-Diagonals-Storage format of Kreutzer et
// al. (IPDPS 2012) together with the formats it is evaluated against,
// a simulated Fermi-class GPU to run them on, iterative solvers that
// work in the permuted basis, and a simulated multi-GPU cluster with
// the paper's three communication schemes.
//
// The facade works in double precision, the default of the paper's
// HPC use cases; the generic single-precision implementations live in
// the internal packages and are exercised by the Table I benchmarks.
//
// Quick start:
//
//	m := pjds.Generate("sAMG", 0.1)         // a paper test matrix
//	p, _ := pjds.NewPJDS(m, pjds.Options{}) // convert to pJDS
//	dev := pjds.TeslaC2070()
//	y := make([]float64, p.NPad)
//	st, _ := pjds.RunPJDS(dev, p, y, x)     // simulate the kernel
//	fmt.Println(st.GFlops)
package pjds

import (
	"io"

	"pjds/internal/advisor"
	"pjds/internal/core"
	"pjds/internal/distmv"
	"pjds/internal/distsolver"
	"pjds/internal/formats"
	"pjds/internal/gpu"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/mpi"
	"pjds/internal/pcie"
	"pjds/internal/simnet"
	"pjds/internal/solver"
)

// Sparse-matrix substrate (double precision).
type (
	// COO is an assembly-format sparse matrix.
	COO = matrix.COO[float64]
	// CSR is a compressed-row-storage matrix, the canonical in-memory
	// representation and correctness reference.
	CSR = matrix.CSR[float64]
	// Dense is a row-major dense matrix for small-scale verification.
	Dense = matrix.Dense[float64]
	// Perm is a permutation of row indices (new → old).
	Perm = matrix.Perm
	// Stats summarizes a matrix's sparsity structure.
	Stats = matrix.Stats
)

// NewCOO returns an empty coordinate-format matrix.
func NewCOO(rows, cols int) *COO { return matrix.NewCOO[float64](rows, cols) }

// ComputeStats scans a matrix and reports its structure.
func ComputeStats(m *CSR) Stats { return matrix.ComputeStats(m) }

// RCM returns the Reverse Cuthill-McKee bandwidth-reducing
// permutation; apply it with PermuteSymmetric before format conversion
// to improve RHS cache reuse.
func RCM(m *CSR) Perm { return matrix.RCM(m) }

// PermuteSymmetric returns P·A·Pᵀ.
func PermuteSymmetric(m *CSR, p Perm) *CSR { return matrix.PermuteSymmetric(m, p) }

// Symmetrize returns (A+Aᵀ)/2.
func Symmetrize(m *CSR) (*CSR, error) { return matrix.Symmetrize(m) }

// Diag returns the matrix diagonal.
func Diag(m *CSR) []float64 { return matrix.Diag(m) }

// ResidualNorm returns ‖b − A·x‖₂.
func ResidualNorm(m *CSR, x, b []float64) (float64, error) { return matrix.ResidualNorm(m, x, b) }

// ReadMatrixMarket parses a MatrixMarket coordinate stream.
func ReadMatrixMarket(r io.Reader) (*CSR, error) { return matrix.ReadMatrixMarket[float64](r) }

// WriteMatrixMarket writes a matrix in MatrixMarket coordinate format.
func WriteMatrixMarket(w io.Writer, m *CSR) error { return matrix.WriteMatrixMarket(w, m) }

// Storage formats.
type (
	// PJDS is the paper's contribution: padded Jagged Diagonals
	// Storage (§II-A, Fig. 1).
	PJDS = core.PJDS[float64]
	// Options configure pJDS construction.
	Options = core.Options
	// SELL is the SELL-C-σ layout behind ELLPACK, ELLPACK-R, sliced
	// ELLPACK and (as the embedded layout of PJDS) pJDS and JDS.
	SELL = core.SELL[float64]
	// ELLRT is the T-threads-per-row ELLR-T variant.
	ELLRT = formats.ELLRT[float64]
	// BELLPACK is the blocked ELLPACK of Choi et al. (reference [2]).
	BELLPACK = formats.BELLPACK[float64]
	// Format is the common interface of all storage formats.
	Format = formats.Format[float64]
)

// NewPJDS builds the pJDS representation of m.
func NewPJDS(m *CSR, opt Options) (*PJDS, error) { return core.NewPJDS(m, opt) }

// NewJDS builds the classic unpadded JDS (pJDS with block height 1).
func NewJDS(m *CSR) (*PJDS, error) { return core.NewPJDS(m, Options{BlockHeight: 1}) }

// NewELLPACK builds the plain ELLPACK representation of m.
func NewELLPACK(m *CSR) *SELL { return core.NewELLPACK(m, matrix.ConvertOptions{}) }

// NewELLPACKR builds the ELLPACK-R representation of m.
func NewELLPACKR(m *CSR) *SELL { return core.NewELLPACKR(m, matrix.ConvertOptions{}) }

// NewSlicedELL builds a sliced-ELLPACK (SELL-C-σ) matrix with slice
// height c and sorting window sigma.
func NewSlicedELL(m *CSR, c, sigma int) (*SELL, error) {
	return core.NewSELL(m, c, sigma, matrix.ConvertOptions{})
}

// NewELLRT builds an ELLR-T matrix with T threads per row.
func NewELLRT(m *CSR, threads int) (*ELLRT, error) { return formats.NewELLRT(m, threads) }

// NewBELLPACK builds a blocked-ELLPACK matrix with br×bc tiles.
func NewBELLPACK(m *CSR, br, bc int) (*BELLPACK, error) { return formats.NewBELLPACK(m, br, bc) }

// DataReduction returns 1 − stored(b)/stored(a), Table I's first row
// when a is ELLPACK and b is pJDS.
func DataReduction(a, b Format) float64 { return formats.DataReduction[float64](a, b) }

// GPU simulation.
type (
	// Device is a simulated Fermi-class GPGPU.
	Device = gpu.Device
	// KernelStats reports one simulated kernel execution.
	KernelStats = gpu.KernelStats
	// RunOptions modify a kernel execution.
	RunOptions = gpu.RunOptions
)

// TeslaC2070 returns the 6 GB Fermi board of the Table I runs.
func TeslaC2070() *Device { return gpu.TeslaC2070() }

// TeslaC2050 returns the 3 GB Dirac-cluster board of the Fig. 5 runs.
func TeslaC2050() *Device { return gpu.TeslaC2050() }

// TeslaC1060 returns the pre-Fermi board without an L2 cache.
func TeslaC1060() *Device { return gpu.TeslaC1060() }

// RunPJDS simulates the pJDS spMVM kernel (Listing 2): yp = A·x in
// the permuted basis, with transaction-level timing.
func RunPJDS(d *Device, p *PJDS, yp, x []float64) (*KernelStats, error) {
	return gpu.RunPJDS(d, p, yp, x, gpu.RunOptions{})
}

// RunSELL simulates the kernel of any SELL preset: ELLPACK-R
// (Listing 1), plain ELLPACK (computes on padding) or sliced ELLPACK,
// in the layout's stored row order.
func RunSELL(d *Device, s *SELL, y, x []float64) (*KernelStats, error) {
	return gpu.RunSELL(d, s, y, x, gpu.RunOptions{})
}

// RunELLRT simulates the cooperative ELLR-T kernel.
func RunELLRT(d *Device, e *ELLRT, y, x []float64) (*KernelStats, error) {
	return gpu.RunELLRT(d, e, y, x, gpu.RunOptions{})
}

// RunBELLPACK simulates the blocked-ELLPACK kernel.
func RunBELLPACK(d *Device, e *BELLPACK, y, x []float64) (*KernelStats, error) {
	return gpu.RunBELLPACK(d, e, y, x, gpu.RunOptions{})
}

// GMRES solves A·x = b for general (nonsymmetric) A with restarted
// GMRES and optional right preconditioning (nil = identity).
func GMRES(a Operator, x, b []float64, restart int, tol float64, maxIter int, pre solver.Preconditioner) (solver.GMRESResult, error) {
	return solver.GMRES(a, x, b, restart, tol, maxIter, pre)
}

// NewJacobi builds the diagonal preconditioner of m.
func NewJacobi(m *CSR) *solver.JacobiPreconditioner { return solver.NewJacobi(m) }

// BiCGSTAB solves A·x = b for general A with the stabilized
// bi-conjugate gradient method (constant memory, unlike GMRES).
func BiCGSTAB(a Operator, x, b []float64, tol float64, maxIter int, pre solver.Preconditioner) (solver.BiCGSTABResult, error) {
	return solver.BiCGSTAB(a, x, b, tol, maxIter, pre)
}

// Test matrices.

// Generate builds one of the paper's §I-C test matrices ("DLR1",
// "DLR2", "HMEp", "sAMG", "UHBR") at the given scale (1 = published
// size), with the repository's deterministic default seed.
func Generate(name string, scale float64) *CSR {
	tm, err := matgen.ByName(name)
	if err != nil {
		panic(err)
	}
	return tm.Generate(scale, 2012)
}

// Stencil2D returns the 5-point Laplacian on an nx×ny grid, a classic
// SPD solver test operator.
func Stencil2D(nx, ny int) *CSR { return matgen.Stencil2D(nx, ny) }

// Solvers.
type (
	// Operator is a linear map y = A·x.
	Operator = solver.Operator
	// PermutedPJDS runs entirely in the pJDS-permuted basis.
	PermutedPJDS = solver.PermutedPJDS
	// CGResult reports a conjugate-gradient solve.
	CGResult = solver.CGResult
	// LanczosResult reports a Lanczos eigenvalue run.
	LanczosResult = solver.LanczosResult
)

// NewPermutedPJDS builds the §II-A solver operator: symmetric pJDS
// permutation applied once, pure Listing-2 kernel inside the loop.
func NewPermutedPJDS(m *CSR, opt Options) (*PermutedPJDS, error) {
	return solver.NewPermutedPJDS(m, opt)
}

// CG solves A·x = b for SPD A.
func CG(a Operator, x, b []float64, tol float64, maxIter int) (CGResult, error) {
	return solver.CG(a, x, b, tol, maxIter)
}

// Lanczos runs k Lanczos steps and returns Ritz values.
func Lanczos(a Operator, k int, v0 []float64) (LanczosResult, error) {
	return solver.Lanczos(a, k, v0)
}

// PowerIteration finds the dominant eigenvalue of a.
func PowerIteration(a Operator, v0 []float64, tol float64, maxIter int) (solver.PowerResult, error) {
	return solver.PowerIteration(a, v0, tol, maxIter)
}

// Distributed multi-GPU spMVM (§III).
type (
	// ClusterConfig parameterizes a simulated multi-GPU run.
	ClusterConfig = distmv.Config
	// ClusterResult is the outcome of a distributed spMVM benchmark.
	ClusterResult = distmv.Result
	// Mode is a §III-A communication scheme.
	Mode = distmv.Mode
)

// The three communication schemes of §III-A.
const (
	VectorMode   = distmv.VectorMode
	NaiveOverlap = distmv.NaiveOverlap
	TaskMode     = distmv.TaskMode
)

// RunCluster executes y = A·x on p simulated GPU nodes.
func RunCluster(a *CSR, x []float64, p int, mode Mode, cfg ClusterConfig) (*ClusterResult, error) {
	return distmv.RunSpMVM(a, x, p, mode, cfg)
}

// Distributed solvers (each rank runs inside a cluster body; see
// internal/distsolver and examples/distpower).
type (
	// RankProblem is one rank's share of a distributed matrix.
	RankProblem = distmv.RankProblem
	// ClusterComm is one rank's message-passing endpoint.
	ClusterComm = mpi.Comm
)

// Distribute partitions a square matrix by non-zeros over p ranks.
func Distribute(a *CSR, p int) ([]*RankProblem, error) {
	pt, err := distmv.PartitionByNnz(a, p)
	if err != nil {
		return nil, err
	}
	return distmv.Distribute(a, pt)
}

// RunRanks executes body on p simulated ranks over the default
// interconnect, returning each rank's final virtual clock.
func RunRanks(p int, body func(*ClusterComm) error) ([]float64, error) {
	return mpi.Run(p, simnet.QDRInfiniBand(), body)
}

// DistributedCG solves A·x = b across ranks (x, b hold this rank's
// rows); call from every rank of a RunRanks body.
func DistributedCG(c *ClusterComm, rp *RankProblem, x, b []float64, tol float64, maxIter int) (distsolver.CGResult, error) {
	return distsolver.CG(c, rp, x, b, tol, maxIter)
}

// DistributedPowerIteration finds the dominant eigenvalue across
// ranks; call from every rank of a RunRanks body.
func DistributedPowerIteration(c *ClusterComm, rp *RankProblem, v0 []float64, tol float64, maxIter int) (distsolver.PowerResult, error) {
	return distsolver.PowerIteration(c, rp, v0, tol, maxIter)
}

// Recommend applies the paper's §II guidance to a matrix's structure:
// whether GPU offload pays (Eqs. 3/4) and which format to use.
func Recommend(st Stats) advisor.Recommendation { return advisor.Recommend(st, nil, nil) }

// QDRInfiniBand returns the Dirac-like interconnect model.
func QDRInfiniBand() *simnet.Fabric { return simnet.QDRInfiniBand() }

// PCIeGen2x16 returns the host↔device link model.
func PCIeGen2x16() *pcie.Link { return pcie.Gen2x16() }
