package gpu

import (
	"fmt"

	"pjds/internal/model"
)

// CacheConfig describes the simulated on-chip L2 cache.
type CacheConfig struct {
	// Bytes is the total capacity (768 kB on GF100).
	Bytes int
	// LineBytes is the cache-line size (128 B, equal to the coalescing
	// segment).
	LineBytes int
	// Assoc is the set associativity.
	Assoc int
	// RHSFraction is the fraction of the capacity effectively
	// available for right-hand-side vector reuse. The matrix value and
	// index streams also pass through the real L2 and continuously
	// evict RHS lines; rather than simulating the full streaming
	// pollution (which never produces reuse — every val/col_idx line
	// is touched exactly once), the model shrinks the RHS-visible
	// capacity. 1.0 disables the pollution model; see the
	// DESIGN.md "L2" ablation.
	RHSFraction float64
}

// DefaultL2 returns the GF100 L2 configuration: 768 kB, 128-byte
// lines, 16-way, with half the capacity effectively usable for RHS
// reuse under streaming pollution.
func DefaultL2() *CacheConfig {
	return &CacheConfig{Bytes: 768 << 10, LineBytes: 128, Assoc: 16, RHSFraction: 0.5}
}

// configureCache sizes c as the L2 model of cfg — model's
// set-associative LRU over RHSFraction of the capacity, tracking
// residency at lineBytes granularity (the gather sector size, which
// may be finer than the nominal L2 line) — reusing its tag array when
// it is large enough, and empties it. It returns nil when cfg models
// no cache (every probe misses), else c.
func configureCache(c *model.LRU, cfg *CacheConfig, lineBytes int) *model.LRU {
	if cfg == nil {
		return nil
	}
	// Contract check: Device.Validate rejects such a config before any
	// kernel runs, so only a caller that skipped it gets here.
	if cfg.Bytes <= 0 || cfg.LineBytes <= 0 || cfg.Assoc <= 0 {
		panic(fmt.Sprintf("gpu: invalid cache config %+v", *cfg))
	}
	frac := cfg.RHSFraction
	if frac <= 0 {
		return nil
	}
	if frac > 1 {
		frac = 1
	}
	if lineBytes <= 0 {
		lineBytes = cfg.LineBytes
	}
	capBytes := int(float64(cfg.Bytes) * frac)
	lines := capBytes / lineBytes
	if lines < cfg.Assoc {
		lines = cfg.Assoc
	}
	c.Reset(max(lines/cfg.Assoc, 1), cfg.Assoc, lineBytes)
	return c
}
