// Package cachesim is the tree's one set-associative cache model: a tag
// array keyed by line number with exact LRU replacement. The CPU hierarchy
// (package machine) builds its levels from it and the simulated GPU
// (package gpusim) its device-wide L2. It imports nothing from the module,
// so using it links no other package's metrics into a binary.
package cachesim

import "fmt"

// LRU is a set-associative tag array, simulated at line granularity; no
// data is stored. Each set keeps its tags most-recent-first, so the last
// way is always the one to evict and no per-way age is needed.
type LRU struct {
	ways    int
	setMask uint64
	// tags[set*ways : (set+1)*ways] is one set, most recent first; 0 is an
	// empty way (valid tags carry bit 63, see Access).
	tags []uint64
}

// New builds an LRU of lines lines in ways-way sets. The line count must
// divide into at least one set, and the set count must be a power of two.
func New(lines, ways int) (*LRU, error) {
	if ways < 1 || lines < ways || lines%ways != 0 {
		return nil, fmt.Errorf("%d lines not divisible into %d ways", lines, ways)
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("set count %d not a power of two", sets)
	}
	return &LRU{ways: ways, setMask: uint64(sets - 1), tags: make([]uint64, lines)}, nil
}

// Access touches a line (an address already divided by the line size) and
// reports whether it hit. A hit moves the line to the front of its set; a
// miss installs it there, shifting the set down and dropping the last way.
func (c *LRU) Access(line uint64) bool {
	base := int(line&c.setMask) * c.ways
	set := c.tags[base : base+c.ways : base+c.ways]
	tag := line | 1<<63 // bias so a valid tag is never zero
	// The most recent line again: nothing moves.
	if set[0] == tag {
		return true
	}
	for i, t := range set {
		if t == tag {
			copy(set[1:i+1], set[:i])
			set[0] = tag
			return true
		}
	}
	copy(set[1:], set)
	set[0] = tag
	return false
}

// Reset empties every set.
func (c *LRU) Reset() { clear(c.tags) }
