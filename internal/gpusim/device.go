package gpusim

import (
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/trace"
)

// Device is a simulated GPU. Allocate buffers, then Launch warp-synchronous
// kernels against them. Devices are not safe for concurrent use.
type Device struct {
	cfg       Config
	allocated int64
	nextBase  uint64
	// l2 is the device-wide L2, shared by every SM as on real GPUs.
	l2 *cachesim.LRU
	// Trace, when non-nil and enabled, receives one simulated-time span per
	// Launch (the modelled kernel duration on the tracer's simulated
	// timeline — same schema as real runs, separate Chrome-trace process).
	Trace *trace.Tracer
}

// NewDevice creates a device from the configuration.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{cfg: cfg, nextBase: 1 << 20}
	if cfg.L2Bytes > 0 {
		l2, err := cachesim.New(cfg.L2Bytes/cfg.CachelineBytes, cfg.L2Ways)
		if err != nil {
			return nil, fmt.Errorf("gpusim: L2: %w", err)
		}
		d.l2 = l2
	}
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Allocated reports the bytes currently allocated on the device.
func (d *Device) Allocated() int64 { return d.allocated }

// F64Buf is a device buffer of float64 values.
type F64Buf struct {
	Data []float64
	base uint64
}

// I32Buf is a device buffer of int32 values.
type I32Buf struct {
	Data []int32
	base uint64
}

func (d *Device) reserve(bytes int64) (uint64, error) {
	if d.allocated+bytes > d.cfg.MemoryBytes {
		return 0, fmt.Errorf("%w: need %d bytes, %d of %d in use",
			ErrOutOfMemory, bytes, d.allocated, d.cfg.MemoryBytes)
	}
	d.allocated += bytes
	base := d.nextBase
	// Separate buffers by a guard region so cache-line analysis never
	// merges accesses from different buffers, and keep every base
	// line-aligned so repeated identical launches see identical
	// coalescing regardless of allocation history.
	line := uint64(d.cfg.CachelineBytes)
	span := (uint64(bytes)/line + 2) * line
	d.nextBase += span
	return base, nil
}

// AllocF64 allocates an n-element float64 buffer holding a copy of src
// (src may be nil for a zeroed buffer of length n).
func (d *Device) AllocF64(n int, src []float64) (*F64Buf, error) {
	base, err := d.reserve(int64(n) * 8)
	if err != nil {
		return nil, err
	}
	buf := &F64Buf{Data: make([]float64, n), base: base}
	if src != nil {
		copy(buf.Data, src)
	}
	return buf, nil
}

// AllocI32 allocates an n-element int32 buffer holding a copy of src.
func (d *Device) AllocI32(n int, src []int32) (*I32Buf, error) {
	base, err := d.reserve(int64(n) * 4)
	if err != nil {
		return nil, err
	}
	buf := &I32Buf{Data: make([]int32, n), base: base}
	if src != nil {
		copy(buf.Data, src)
	}
	return buf, nil
}

// FreeAll releases all allocations (buffers already handed out remain
// usable as host memory but no longer count against the device).
func (d *Device) FreeAll() { d.allocated = 0 }

// Stats aggregates the instruction and memory activity of one launch.
type Stats struct {
	Warps           int
	FMAInstrs       int64
	MemInstrs       int64
	Transactions    int64
	AtomicTransacts int64
	ActiveLaneFMAs  int64
	// L1Transactions, L2Transactions and DRAMTransactions split
	// Transactions by where the line was served from.
	L1Transactions   int64
	L2Transactions   int64
	DRAMTransactions int64
	// IdealTransactions is the minimum transaction count had every
	// access been perfectly coalesced.
	IdealTransactions int64
}

// CoalescingEfficiency is IdealTransactions/Transactions in (0, 1]; 1 means
// perfectly coalesced.
func (s Stats) CoalescingEfficiency() float64 {
	if s.Transactions == 0 {
		return 1
	}
	return float64(s.IdealTransactions) / float64(s.Transactions)
}

// LaunchResult reports the modelled execution of one kernel launch.
type LaunchResult struct {
	Cycles  float64
	Seconds float64
	Stats   Stats
	// Bound names the roofline term that dominated: "compute", "memory"
	// or "latency".
	Bound string
}

// then is r followed by next on the same device, as one result: cycles,
// seconds and every counter add up, and the bound is the longer launch's.
func (r LaunchResult) then(next LaunchResult) LaunchResult {
	s, n := r.Stats, next.Stats
	sum := LaunchResult{
		Cycles:  r.Cycles + next.Cycles,
		Seconds: r.Seconds + next.Seconds,
		Stats: Stats{
			Warps:             s.Warps + n.Warps,
			FMAInstrs:         s.FMAInstrs + n.FMAInstrs,
			MemInstrs:         s.MemInstrs + n.MemInstrs,
			Transactions:      s.Transactions + n.Transactions,
			AtomicTransacts:   s.AtomicTransacts + n.AtomicTransacts,
			ActiveLaneFMAs:    s.ActiveLaneFMAs + n.ActiveLaneFMAs,
			L1Transactions:    s.L1Transactions + n.L1Transactions,
			L2Transactions:    s.L2Transactions + n.L2Transactions,
			DRAMTransactions:  s.DRAMTransactions + n.DRAMTransactions,
			IdealTransactions: s.IdealTransactions + n.IdealTransactions,
		},
		Bound: next.Bound,
	}
	if r.Cycles > next.Cycles {
		sum.Bound = r.Bound
	}
	return sum
}

// Launch runs the kernel for every warp of a grid of `blocks` thread blocks
// of `threadsPerBlock` threads. The kernel receives each warp exactly once.
// Execution is sequential and deterministic.
func (d *Device) Launch(blocks, threadsPerBlock int, kernel func(w *Warp)) (LaunchResult, error) {
	if blocks < 0 || threadsPerBlock < 1 || threadsPerBlock%WarpSize != 0 {
		return LaunchResult{}, fmt.Errorf("%w: blocks=%d threads=%d (threads must be a positive multiple of %d)",
			ErrLaunch, blocks, threadsPerBlock, WarpSize)
	}
	warpsPerBlock := threadsPerBlock / WarpSize
	totalWarps := blocks * warpsPerBlock
	if d.l2 != nil {
		d.l2.Reset()
	}

	smFMA := make([]int64, d.cfg.SMs)
	smMemInstr := make([]int64, d.cfg.SMs)
	smL1 := make([]int64, d.cfg.SMs)
	smL2 := make([]int64, d.cfg.SMs)
	smDRAM := make([]int64, d.cfg.SMs)
	smAtomic := make([]int64, d.cfg.SMs)
	smWarps := make([]int, d.cfg.SMs)

	var agg Stats
	agg.Warps = totalWarps

	w := &Warp{dev: d}
	for b := 0; b < blocks; b++ {
		sm := b % d.cfg.SMs // round-robin block scheduling
		for wi := 0; wi < warpsPerBlock; wi++ {
			w.reset(b, blocks, threadsPerBlock, wi)
			kernel(w)
			smFMA[sm] += w.fmaInstrs
			smMemInstr[sm] += w.memInstrs
			smL1[sm] += w.l1Transacts
			smL2[sm] += w.l2Transacts
			smDRAM[sm] += w.dramTransacts
			smAtomic[sm] += w.atomicTransacts
			smWarps[sm]++
			agg.FMAInstrs += w.fmaInstrs
			agg.MemInstrs += w.memInstrs
			agg.Transactions += w.l1Transacts + w.l2Transacts + w.dramTransacts
			agg.L1Transactions += w.l1Transacts
			agg.L2Transactions += w.l2Transacts
			agg.DRAMTransactions += w.dramTransacts
			agg.AtomicTransacts += w.atomicTransacts
			agg.ActiveLaneFMAs += w.activeLaneFMAs
			agg.IdealTransactions += w.idealTransactions
		}
	}

	// Roofline per SM.
	lineBytes := float64(d.cfg.CachelineBytes)
	var worst float64
	bound := "compute"
	for sm := 0; sm < d.cfg.SMs; sm++ {
		if smWarps[sm] == 0 {
			continue
		}
		compute := float64(smFMA[sm]) / d.cfg.FMAPerCycle
		l2BW := d.cfg.L2BytesPerCycleSM
		if l2BW <= 0 {
			l2BW = d.cfg.BytesPerCycleSM
		}
		memory := float64(smDRAM[sm])*lineBytes/d.cfg.BytesPerCycleSM +
			float64(smL2[sm])*lineBytes/l2BW +
			float64(smL1[sm])*0.05 + // L1 hits cost LDST issue slots only
			float64(smAtomic[sm])*d.cfg.AtomicPenaltyCycles
		resident := float64(min(smWarps[sm], d.cfg.MaxWarpsPerSM))
		mlp := d.cfg.MLP
		if mlp < 1 {
			mlp = 1
		}
		latency := (float64(smDRAM[sm])*d.cfg.MemLatencyCycles +
			float64(smL2[sm])*d.cfg.L2LatencyCycles +
			float64(smL1[sm])*d.cfg.L1LatencyCycles) / (resident * mlp)
		cycles, b := compute, "compute"
		if memory > cycles {
			cycles, b = memory, "memory"
		}
		if latency > cycles {
			cycles, b = latency, "latency"
		}
		if cycles > worst {
			worst, bound = cycles, b
		}
	}
	flushObs(d.cfg, agg, smWarps)
	res := LaunchResult{
		Cycles:  worst,
		Seconds: worst / (d.cfg.ClockGHz * 1e9),
		Stats:   agg,
		Bound:   bound,
	}
	if d.Trace.Enabled() {
		durNs := int64(res.Seconds * 1e9)
		if durNs < 1 {
			durNs = 1
		}
		start := d.Trace.SimAdvance(durNs)
		d.Trace.AddSim(0, trace.PhaseSimKernel, res.Bound, start, durNs, int64(res.Cycles))
	}
	return res, nil
}
