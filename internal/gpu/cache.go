package gpu

import "fmt"

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

// cache is a set-associative LRU cache over line-granular addresses.
// It tracks hits and misses; the spMVM model probes it with RHS
// gather segments. The sets live in one flat tag array, so sizing the
// model costs one allocation whatever the set count, and a cache
// reconfigured for the next plan compile reuses it.
type cache struct {
	// tags holds nSets×assoc line tags: set s occupies
	// tags[s*assoc:(s+1)*assoc] in LRU order (front = MRU), with its
	// empty ways, marked -1, at the back. Line tags are never negative.
	tags     []int64
	assoc    int
	lineBits uint
	nSets    int64
	hits     int64
	misses   int64
}

// newCache builds the cache simulator from a configuration, applying
// RHSFraction to the capacity and tracking residency at lineBytes
// granularity (the gather sector size, which may be finer than the
// nominal L2 line). Returns nil for a nil config (no cache: every
// probe misses).
func newCache(cfg *CacheConfig, lineBytes int) *cache {
	c := new(cache)
	if !c.configure(cfg, lineBytes) {
		return nil
	}
	return c
}

// configure sizes c for cfg as newCache does, reusing its tag array
// when it is large enough, and empties it. It reports false when cfg
// models no cache.
func (c *cache) configure(cfg *CacheConfig, lineBytes int) bool {
	if cfg == nil {
		return false
	}
	// Contract check: Device.Validate rejects such a config before any
	// kernel runs, so only a caller that skipped it gets here.
	if cfg.Bytes <= 0 || cfg.LineBytes <= 0 || cfg.Assoc <= 0 {
		panic(fmt.Sprintf("gpu: invalid cache config %+v", *cfg))
	}
	frac := cfg.RHSFraction
	if frac <= 0 {
		return false
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
	nSets := lines / cfg.Assoc
	if nSets < 1 {
		nSets = 1
	}
	c.lineBits = log2(lineBytes)
	c.assoc = cfg.Assoc
	c.nSets = int64(nSets)
	if n := nSets * cfg.Assoc; cap(c.tags) >= n {
		c.tags = c.tags[:n]
	} else {
		c.tags = make([]int64, n)
	}
	c.reset()
	return true
}

// probe looks up the line containing addr, updating LRU state.
// It returns true on a hit. A nil cache always misses.
func (c *cache) probe(addr int64) bool {
	if c == nil {
		return false
	}
	line := addr >> c.lineBits
	s := int(line%c.nSets) * c.assoc
	set := c.tags[s : s+c.assoc]
	for i, tag := range set {
		if tag == line {
			// Move to front (MRU).
			copy(set[1:i+1], set[:i])
			set[0] = line
			c.hits++
			return true
		}
		if tag < 0 {
			break // the remaining ways are empty too
		}
	}
	c.misses++
	// Insert at the front, evicting the LRU way when the set is full.
	copy(set[1:], set[:len(set)-1])
	set[0] = line
	return false
}

// reset clears contents and counters.
func (c *cache) reset() {
	if c == nil {
		return
	}
	for i := range c.tags {
		c.tags[i] = -1
	}
	c.hits, c.misses = 0, 0
}

// hitRate returns hits/(hits+misses), 0 when unused.
func (c *cache) hitRate() float64 {
	if c == nil || c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}
