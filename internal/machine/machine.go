package machine

import "fmt"

// Machine replays a kernel's access/compute trace against one architecture
// profile and accumulates modelled cycles.
type Machine struct {
	prof   Profile
	caches []*Cache

	cycles float64
	flops  int64
	// accesses counts line-granularity memory touches.
	accesses int64
	memMiss  int64
	// memMissStream counts the subset of memory misses that were
	// streamed (prefetchable); the rest were demand misses.
	memMissStream int64
	// levelHits counts touches served per cache level (index = level).
	levelHits [maxCacheLevels]int64
}

// maxCacheLevels bounds the hierarchy depth the per-level hit counters
// cover; profiles deeper than this are rejected by New.
const maxCacheLevels = 4

// New builds a machine for the profile.
func New(prof Profile) (*Machine, error) {
	if prof.ClockGHz <= 0 || prof.ScalarIPC <= 0 || prof.FMAPipes <= 0 || prof.VectorElems < 1 {
		return nil, fmt.Errorf("machine: invalid profile %q", prof.Name)
	}
	if len(prof.Caches) > maxCacheLevels {
		return nil, fmt.Errorf("machine: profile %q has %d cache levels, max %d",
			prof.Name, len(prof.Caches), maxCacheLevels)
	}
	m := &Machine{prof: prof}
	for _, cc := range prof.Caches {
		c, err := NewCache(cc)
		if err != nil {
			return nil, err
		}
		m.caches = append(m.caches, c)
	}
	return m, nil
}

// Profile returns the machine's profile.
func (m *Machine) Profile() Profile { return m.prof }

// touchLine walks one line address through the hierarchy and charges the
// latency of the level that hit. Misses that go all the way to memory cost
// MemCycles for demand (pointer-chasing) accesses but only StreamMissCycles
// for streamed ones, where the prefetcher has the line in flight and the
// cost is bandwidth, not latency.
func (m *Machine) touchLine(addr uint64, streamed bool) {
	m.accesses++
	for i, c := range m.caches {
		if c.Access(addr) {
			m.cycles += c.cfg.HitCycles
			m.levelHits[i]++
			return
		}
		// Miss: the line is installed at this level, continue down.
	}
	m.memMiss++
	if streamed {
		m.memMissStream++
		m.cycles += m.prof.StreamMissCycles
	} else {
		m.cycles += m.prof.MemCycles
	}
}

// lineBytes returns the innermost line size (all levels share it by
// construction of the profiles).
func (m *Machine) lineBytes() uint64 {
	if len(m.caches) == 0 {
		return 64
	}
	return uint64(m.caches[0].cfg.LineBytes)
}

// LoadScalar models a single scalar load of the given width at addr.
func (m *Machine) LoadScalar(addr uint64, bytes int) {
	m.touchLine(addr, false)
	_ = bytes
}

// LoadRange models a contiguous load of bytes starting at addr, touching
// each covered line once (what a vectorised/streaming loop does).
func (m *Machine) LoadRange(addr uint64, bytes int) {
	if bytes <= 0 {
		return
	}
	line := m.lineBytes()
	first := addr / line
	last := (addr + uint64(bytes) - 1) / line
	for l := first; l <= last; l++ {
		m.touchLine(l*line, true)
	}
}

// StoreRange models a contiguous write-allocate store.
func (m *Machine) StoreRange(addr uint64, bytes int) { m.LoadRange(addr, bytes) }

// RMWRange models a load immediately followed by a store of the same
// contiguous range — the accumulate pattern `crow[j] += ...`. The load
// walks the hierarchy; the store then hits L1 on the just-loaded lines, so
// it is charged the L1 hit cost directly. The accounting is exactly
// LoadRange followed by StoreRange, at half the simulation work.
func (m *Machine) RMWRange(addr uint64, bytes int) {
	if bytes <= 0 {
		return
	}
	line := m.lineBytes()
	first := addr / line
	last := (addr + uint64(bytes) - 1) / line
	l1Hit := 0.0
	if len(m.caches) > 0 {
		l1Hit = m.caches[0].cfg.HitCycles
	}
	for l := first; l <= last; l++ {
		m.touchLine(l*line, true) // load
		m.accesses++              // store: guaranteed L1 hit
		m.cycles += l1Hit
	}
}

// StoreScalar models a single scalar store.
func (m *Machine) StoreScalar(addr uint64, bytes int) { m.LoadScalar(addr, bytes) }

// loadRangeDemand is LoadRange with demand-miss (non-streamed) pricing,
// used for ranges whose base is data-dependent.
func (m *Machine) loadRangeDemand(addr uint64, bytes int) {
	if bytes <= 0 {
		return
	}
	line := m.lineBytes()
	first := addr / line
	last := (addr + uint64(bytes) - 1) / line
	for l := first; l <= last; l++ {
		m.touchLine(l*line, false)
	}
}

// FMA models n fused multiply-adds executed in a loop whose natural vector
// length is vecLen elements (use a large vecLen for long contiguous loops;
// use the block width for short blocked loops). Lanes beyond vecLen cannot
// be packed across iterations, so throughput is FMAPipes×min(VectorElems,
// vecLen) flops per cycle.
func (m *Machine) FMA(n int, vecLen int) {
	if n <= 0 {
		return
	}
	if vecLen < 1 {
		vecLen = 1
	}
	lanes := min(m.prof.VectorElems, vecLen)
	m.cycles += float64(n) / (m.prof.FMAPipes * float64(lanes))
	m.flops += 2 * int64(n)
}

// Scalar models n bookkeeping instructions (index arithmetic, branches,
// loop control).
func (m *Machine) Scalar(n int) {
	if n <= 0 {
		return
	}
	m.cycles += float64(n) / m.prof.ScalarIPC
}

// Cycles returns the accumulated cycle count.
func (m *Machine) Cycles() float64 { return m.cycles }

// Seconds converts the accumulated cycles to seconds at the profile clock.
func (m *Machine) Seconds() float64 { return m.cycles / (m.prof.ClockGHz * 1e9) }

// Flops returns the accumulated floating-point operation count.
func (m *Machine) Flops() int64 { return m.flops }

// MemMissRate returns the fraction of line touches that went to memory.
func (m *Machine) MemMissRate() float64 {
	if m.accesses == 0 {
		return 0
	}
	return float64(m.memMiss) / float64(m.accesses)
}

// StreamMissShare returns the fraction of memory misses that were
// streamed (prefetchable) rather than demand misses.
func (m *Machine) StreamMissShare() float64 {
	if m.memMiss == 0 {
		return 0
	}
	return float64(m.memMissStream) / float64(m.memMiss)
}

// ResetCosts clears the cycle, flop and access counters but keeps cache
// contents — used to measure a warmed (steady-state) pass.
func (m *Machine) ResetCosts() {
	m.cycles, m.flops, m.accesses, m.memMiss, m.memMissStream = 0, 0, 0, 0, 0
	m.levelHits = [maxCacheLevels]int64{}
}

// Reset clears cycles, counters and cache contents.
func (m *Machine) Reset() {
	m.ResetCosts()
	for _, c := range m.caches {
		c.lru.Reset()
	}
}
