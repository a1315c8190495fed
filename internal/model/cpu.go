package model

import (
	"fmt"

	"pjds/internal/matrix"
)

// Node describes a multicore CPU node: the baseline of Table I's last
// row is CRS spMVM on a dual-socket Intel Westmere EP node (12 cores),
// as measured by Schubert et al. [4]. Like the GPU simulator, the
// baseline derives wallclock from a bandwidth model with a
// cache-measured RHS reuse factor.
type Node struct {
	Name string
	// Cores is the total core count across sockets.
	Cores int
	// BandwidthBytes is the sustained aggregate memory bandwidth.
	BandwidthBytes float64
	// LLCBytes is the aggregate last-level cache capacity, which
	// determines RHS reuse for large vectors.
	LLCBytes int
	// CacheLineBytes is the transfer granularity (64 B).
	CacheLineBytes int
}

// WestmereEP returns the dual-socket 12-core Westmere node of [4]:
// ≈ 40 GB/s sustained aggregate bandwidth, 2 × 12 MB L3.
func WestmereEP() *Node {
	return &Node{
		Name:           "Westmere EP (2x6 cores)",
		Cores:          12,
		BandwidthBytes: 40e9,
		LLCBytes:       24 << 20,
		CacheLineBytes: 64,
	}
}

// Validate reports configuration errors.
func (n *Node) Validate() error {
	if n.Cores <= 0 || n.BandwidthBytes <= 0 || n.LLCBytes <= 0 || n.CacheLineBytes <= 0 {
		return fmt.Errorf("model: invalid node %+v", *n)
	}
	return nil
}

// CRSStats reports the modelled cost of one CRS spMVM on a node.
type CRSStats struct {
	Node        string
	Nnz         int64
	BytesTotal  int64
	Alpha       float64 // measured RHS traffic per non-zero, in value widths
	CodeBalance float64 // bytes per flop
	Seconds     float64
	GFlops      float64
}

// llcAssoc is the associativity of the simulated LLC (4-way is close
// enough to a real LLC for the RHS reuse measurement).
const llcAssoc = 4

// EstimateCRS models one double-precision CRS spMVM: streaming val
// (8 B) + colidx (4 B) per non-zero, rowptr (8 B) and result
// write-allocate+write (16 B) per row, plus the RHS gather traffic
// measured by a simulated LLC with the node's cache lines.
func (n *Node) EstimateCRS(m *matrix.CSR[float64]) (CRSStats, error) {
	if err := n.Validate(); err != nil {
		return CRSStats{}, err
	}
	c := NewLRU(max(n.LLCBytes/n.CacheLineBytes/llcAssoc, 1), llcAssoc, n.CacheLineBytes)
	var rhsBytes int64
	for k := range m.ColIdx {
		if !c.Probe(int64(m.ColIdx[k]) * 8) {
			rhsBytes += int64(n.CacheLineBytes)
		}
	}
	nnz := int64(m.Nnz())
	bytes := nnz*12 + int64(m.NRows)*24 + rhsBytes
	s := CRSStats{
		Node:       n.Name,
		Nnz:        nnz,
		BytesTotal: bytes,
		Seconds:    float64(bytes) / n.BandwidthBytes,
	}
	if nnz > 0 {
		s.Alpha = float64(rhsBytes) / float64(8*nnz)
		s.CodeBalance = float64(bytes) / float64(2*nnz)
	}
	if s.Seconds > 0 {
		s.GFlops = 2 * float64(nnz) / s.Seconds / 1e9
	}
	return s, nil
}
