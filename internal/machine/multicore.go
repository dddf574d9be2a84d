package machine

import (
	"fmt"

	"repro/internal/formats"
	"repro/internal/kernels"
	"repro/internal/parallel"
	tr "repro/internal/trace" // aliased: `trace` names this file's replay callbacks
)

// Multicore extends a single-core Profile to a full socket, modelling the
// thesis' CPU-parallel studies (3, 3.1, 4 and the parallel panels of 1, 2,
// 5 and 8) on hardware this host does not have. A parallel kernel run is
// simulated by tracing each thread's static chunk on a private core
// (its own cache hierarchy) and combining the per-thread cycle counts with
// a scheduling model:
//
//   - chunks are assigned to cores round-robin; a core running two or
//     more chunks executes them on its SMT siblings with a combined
//     throughput of (1 + yield)× a single thread, where the yield is
//     higher for streaming (prefetchable) miss traffic — the workloads
//     SMT actually helps — and lower for gather-bound code;
//   - every active core slows every other through shared-resource
//     contention (L3, memory controllers, cross-socket fabric): cycles
//     inflate by (1 + ContentionPerCore × (activeCores − 1));
//   - socket memory bandwidth caps throughput: the run can never finish
//     faster than the total missed bytes divided by BytesPerCycle;
//   - every parallel region pays a fork/join cost per thread.
//
// These four terms produce the shapes the thesis reports: ~4–6× parallel
// speedup on memory-bound SpMM despite tens of cores, "more threads help"
// on the high-bandwidth Arm socket, and hyperthreading that pays off only
// for some formats on the x86 socket.
type Multicore struct {
	Prof Profile
	// Cores is the number of physical cores.
	Cores int
	// SMTWays is the hardware threads per core (1 = no SMT).
	SMTWays int
	// BytesPerCycle is the socket memory bandwidth in bytes per core
	// clock cycle.
	BytesPerCycle float64
	// ContentionPerCore is the fractional slowdown each additional
	// active core imposes on all others (shared L3/fabric/memory
	// queueing).
	ContentionPerCore float64
	// ForkJoinCycles is the per-thread cost of opening and closing a
	// parallel region.
	ForkJoinCycles float64
	// Trace, when non-nil and enabled, receives simulated-time spans: one
	// sim-chunk span per software thread (its steady-state chunk latency)
	// and one sim-kernel span for the combined region wall time, all on the
	// tracer's simulated timeline.
	Trace *tr.Tracer
}

// GraceMachine models the thesis' Grace Hopper CPU socket: 72 cores, no
// SMT, LPDDR5X bandwidth (~500 GB/s).
func GraceMachine() Multicore {
	return Multicore{
		Prof:              GraceArm(),
		Cores:             72,
		SMTWays:           1,
		BytesPerCycle:     140,
		ContentionPerCore: 0.28,
		ForkJoinCycles:    800,
	}
}

// AriesMachine models the thesis' Aries socket: 2×24 EPYC Milan cores,
// SMT-2 (96 hardware threads), DDR4 bandwidth (~205 GB/s per socket pair).
func AriesMachine() Multicore {
	return Multicore{
		Prof:              AriesX86(),
		Cores:             48,
		SMTWays:           2,
		BytesPerCycle:     57,
		ContentionPerCore: 0.30,
		ForkJoinCycles:    1200,
	}
}

// Machines returns the two socket models of the study.
func Machines() []Multicore { return []Multicore{GraceMachine(), AriesMachine()} }

// Validate reports configuration problems.
func (mc Multicore) Validate() error {
	if mc.Cores < 1 || mc.SMTWays < 1 || mc.BytesPerCycle <= 0 || mc.ForkJoinCycles < 0 ||
		mc.ContentionPerCore < 0 {
		return fmt.Errorf("machine: invalid multicore config %+v", mc)
	}
	return nil
}

// chunkTrace replays one thread's chunk [lo, hi) on machine m, returning
// the nonzeros it processed.
type chunkTrace func(m *Machine, lo, hi int) int

// Simulate replays the parallel SpMM kernel of a's format under inner on
// `threads` software threads of the socket. ScheduleStatic splits the
// format's loop into near-equal contiguous chunks (OpenMP static);
// ScheduleBalanced, modelled for CSR, takes its chunk bounds from
// parallel.BalancedBounds over the row-pointer prefix sums, so every chunk
// carries a near-equal share of the nonzeros instead of a near-equal share
// of the rows — on row-skewed matrices that keeps the slowest core, which
// sets the simulated wall clock, from owning the hub rows alone. Any other
// (format, schedule) pair is a kernels.ErrSpec.
//
// The transposed-B variant charges the transposition of B to thread 0, as a
// prologue of its chunk on every call (Study 8 charges it against the
// kernel); the model does not split it across threads.
func (mc Multicore) Simulate(a formats.Sparse, k, threads int, sched kernels.Schedule, inner kernels.Inner) (Result, error) {
	if threads < 1 {
		return Result{}, fmt.Errorf("machine: threads %d < 1", threads)
	}
	md, err := modelFor(a, k, inner)
	if err != nil {
		return Result{}, err
	}
	var bounds []int
	switch {
	case sched == kernels.ScheduleStatic:
		if threads > md.n && md.n > 0 {
			threads = md.n
		}
		bounds = make([]int, threads+1)
		for w := 0; w < threads; w++ {
			bounds[w], bounds[w+1] = parallel.ChunkBounds(md.n, threads, w)
		}
	case sched == kernels.ScheduleBalanced && md.rowPtr != nil:
		bounds = parallel.BalancedBounds(md.rowPtr, threads)
	default:
		return Result{}, fmt.Errorf("%w: no %s schedule model for %T", kernels.ErrSpec, sched, a)
	}
	var setup func(m *Machine)
	if inner == kernels.InnerTransB {
		setup = func(m *Machine) { traceTransposeB(m, md.cols, k) }
	}
	return mc.simulateBounds(bounds, k, md.trace, setup)
}

// simulateBounds runs the trace over explicit chunk bounds (bounds[w],
// bounds[w+1]) and combines the per-chunk costs per the scheduling model.
// The chunk count plays the role of the thread count: one software thread
// per chunk, placed round-robin on the physical cores. setup, when non-nil,
// runs on chunk 0's machine at the start of each pass, so its cost lands in
// the measured one.
func (mc Multicore) simulateBounds(bounds []int, k int, trace chunkTrace, setup func(m *Machine)) (Result, error) {
	if err := mc.Validate(); err != nil {
		return Result{}, err
	}
	threads := len(bounds) - 1
	if threads < 1 {
		return Result{}, fmt.Errorf("machine: bounds describe %d chunks", threads)
	}
	coreLoad := make([]float64, min(threads, mc.Cores))
	coreChunks := make([]int, len(coreLoad))
	var (
		totalMemBytes   float64
		totalAccesses   int64
		totalMisses     int64
		totalStreamMiss int64
		nnz             int
	)
	simStart := mc.Trace.SimNow()
	for w := 0; w < threads; w++ {
		lo, hi := bounds[w], bounds[w+1]
		m, err := New(mc.Prof)
		if err != nil {
			return Result{}, err
		}
		// The benchmark runner measures warmed repetitions (warm-up plus
		// p.Reps timed calls), so the steady-state pass is what counts:
		// trace once to warm the thread's caches, then measure the second
		// pass. This is also what makes high thread counts win on real
		// hardware — small chunks become cache-resident. setup is part of
		// every call, so chunk 0 pays it in both passes.
		chunkNNZ := 0
		for pass := 0; pass < 2; pass++ {
			m.ResetCosts()
			if w == 0 && setup != nil {
				setup(m)
			}
			chunkNNZ = trace(m, lo, hi)
		}
		nnz += chunkNNZ
		core := w % len(coreLoad)
		coreLoad[core] += m.Cycles()
		coreChunks[core]++
		if mc.Trace.Enabled() {
			// Chunk spans share the region's simulated start (the model runs
			// them concurrently) and carry the chunk's pre-contention
			// latency; the region span below carries the combined wall.
			chunkNs := int64(m.Cycles() / (mc.Prof.ClockGHz * 1e9) * 1e9)
			mc.Trace.AddSim(w+1, tr.PhaseSimChunk, mc.Prof.Name, simStart, chunkNs, int64(hi-lo))
		}
		totalMemBytes += float64(m.memMiss) * float64(m.lineBytes())
		totalAccesses += m.accesses
		totalMisses += m.memMiss
		totalStreamMiss += m.memMissStream
		m.flushObs()
	}

	missRate := 0.0
	if totalAccesses > 0 {
		missRate = float64(totalMisses) / float64(totalAccesses)
	}
	streamShare := 0.0
	if totalMisses > 0 {
		streamShare = float64(totalStreamMiss) / float64(totalMisses)
	}
	// SMT siblings yield more on streaming miss traffic (latency hiding
	// with predictable addresses); gather-bound code shares poorly.
	smtYield := 0.1 + 0.5*streamShare

	// A core with co-resident threads runs their combined cycles at
	// (1 + yield)× single-thread throughput (only when the hardware has
	// SMT siblings to run them on).
	wallLatency := 0.0
	for core, load := range coreLoad {
		t := load
		if coreChunks[core] > 1 && mc.SMTWays > 1 {
			t = load / (1 + smtYield)
		}
		if t > wallLatency {
			wallLatency = t
		}
	}
	active := float64(len(coreLoad))
	wallLatency *= 1 + mc.ContentionPerCore*(active-1)

	bandwidth := totalMemBytes / mc.BytesPerCycle
	wall := max(wallLatency, bandwidth) + mc.ForkJoinCycles*float64(threads)
	secs := wall / (mc.Prof.ClockGHz * 1e9)
	if mc.Trace.Enabled() {
		wallNs := int64(secs * 1e9)
		if wallNs < 1 {
			wallNs = 1
		}
		mc.Trace.AddSim(0, tr.PhaseSimKernel, mc.Prof.Name, simStart, wallNs, int64(nnz))
		mc.Trace.SimAdvance(wallNs)
	}
	return resultFor(mc.Prof.Name, secs, wall, nnz, k, missRate), nil
}
