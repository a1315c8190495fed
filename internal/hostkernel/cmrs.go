package hostkernel

import "pjds/internal/core"

// NewCMRSOver builds the compressed multi-row storage kernel (Koza et
// al., arXiv:1203.2946) over an existing layout: strips are split
// nnz-balanced over the workers, and each worker runs core's
// CMRS.MulRows — the one CMRS loop — over its strips. CMRS never
// permutes rows, so y is in the original basis. The kernel reads c at
// every apply, so c must not be Reset before the kernel is closed.
func NewCMRSOver(c *core.CMRS[float64], opt Options) Kernel {
	// StripPtr is already the nnz prefix sum at strip granularity.
	prefix := make([]int, c.NStrips+1)
	for s := range prefix {
		prefix[s] = int(c.StripPtr[s])
	}
	return newKernel(string(KindCMRS), "cmrs", c.N, c.NCols, c.NnzV, prefix, opt.Workers, opt.Metrics, c.MulRows)
}
