package model

// LRU is a set-associative least-recently-used cache over byte
// addresses at cache-line granularity: the one cache model behind the
// RHS reuse factor α, probed by EstimateCRS for the Westmere LLC and
// by the GPU simulator for its L2. The sets live in one flat tag
// array, so sizing the model costs one allocation whatever the set
// count, and Reset reuses it.
type LRU struct {
	// tags holds nSets×assoc line tags: set s occupies
	// tags[s*assoc:(s+1)*assoc] in LRU order (front = MRU), with its
	// empty ways, marked -1, at the back. Line tags are never negative.
	tags     []int64
	assoc    int
	lineBits uint
	nSets    int64
}

// NewLRU returns an empty cache of sets × assoc lines of lineBytes
// each (rounded up to a power of two).
func NewLRU(sets, assoc, lineBytes int) *LRU {
	c := new(LRU)
	c.Reset(sets, assoc, lineBytes)
	return c
}

// Reset resizes c as NewLRU does, reusing its tag array when it is
// large enough, and empties it. sets and assoc must be positive.
func (c *LRU) Reset(sets, assoc, lineBytes int) {
	c.lineBits = 0
	for 1<<c.lineBits < lineBytes {
		c.lineBits++
	}
	c.assoc = assoc
	c.nSets = int64(sets)
	if n := sets * assoc; cap(c.tags) >= n {
		c.tags = c.tags[:n]
	} else {
		c.tags = make([]int64, n)
	}
	for i := range c.tags {
		c.tags[i] = -1
	}
}

// Probe looks up the line containing the non-negative address addr,
// making it the set's most recently used line, and reports whether it
// was resident. A miss inserts the line, evicting the set's least
// recently used one when the set is full. A nil cache always misses.
func (c *LRU) Probe(addr int64) bool {
	if c == nil {
		return false
	}
	line := addr >> c.lineBits
	s := int(line%c.nSets) * c.assoc
	set := c.tags[s : s+c.assoc]
	for i, tag := range set {
		if tag == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true
		}
		if tag < 0 {
			break // the remaining ways are empty too
		}
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = line
	return false
}
