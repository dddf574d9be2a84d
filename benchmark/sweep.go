package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/serve"
)

// kernel-sweep: the paper's own use of the suite. In process, no HTTP: two
// matrices that split regular from skewed rows, every format, serial and
// OpenMP-style parallel, k = 128.
const sweepK = 128

var sweepMatrices = []matrixRef{{"cant", 0.1}, {"torso1", 0.03}}

var sweepModes = []string{"serial", "omp"}

// matrixRef names a generator-registry matrix at a scale, as "cant@0.1".
type matrixRef struct {
	name  string
	scale float64
}

func (m matrixRef) String() string { return fmt.Sprintf("%s@%g", m.name, m.scale) }

// generate synthesises the matrix in canonical (row-major, deduplicated)
// form — the form the serving registry hashes, so the content ID computed
// here is the one a server assigns.
func (m matrixRef) generate(shrink float64) (*matrix.COO[float64], error) {
	a, _, err := gen.GenerateScaled(m.name, m.scale*shrink)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", m, err)
	}
	serve.Canonicalize(a)
	return a, nil
}

// sweepCell is one (matrix, format, mode) point of the sweep.
type sweepCell struct {
	matrix, format, mode string
	a                    *matrix.COO[float64]
	kern                 core.Kernel
	b, c                 *matrix.Dense[float64]
	p                    core.Params
	prepare              time.Duration
	// calls are seconds per Calculate, pooled over the passes; passMedian
	// is the median of each pass's calls.
	calls      []float64
	passMedian []float64
	allocs     uint64 // heap objects over all timed calls
}

func (c *sweepCell) flops() float64 { return 2 * float64(c.a.NNZ()) * float64(c.p.K) }

// sweepSetup is everything set-up builds: the cells prepared and warmed.
type sweepSetup struct {
	cells     []*sweepCell
	elapsed   time.Duration
	prepareMs float64
	mem       memDelta // heap allocated by generate + prepare + operands + warm-up
}

// setupSweep generates the matrices, prepares all 24 cells (timing each
// Kernel.Prepare) and runs one untimed Calculate per cell.
func setupSweep(o options, pool *parallel.Pool, rec *recorder, parent int) (*sweepSetup, error) {
	su := &sweepSetup{}
	memStart := memMark()
	start := time.Now()
	sp := rec.spans.begin("setup", parent, 0)
	defer func() { rec.spans.end(sp, "") }()
	for _, ref := range sweepMatrices {
		a, err := ref.generate(o.shrink)
		if err != nil {
			return nil, err
		}
		b := matrix.NewDenseRand[float64](a.Cols, sweepK, o.seed)
		for _, format := range core.Formats() {
			for _, mode := range sweepModes {
				kern, err := core.New(format+"-"+mode, core.Options{})
				if err != nil {
					return nil, err
				}
				cell := &sweepCell{matrix: ref.name, format: format, mode: mode, a: a, kern: kern, b: b,
					c: matrix.NewDense[float64](a.Rows, sweepK),
					p: core.Params{Reps: 1, Threads: pool.Workers(), BlockSize: 4, K: sweepK, Seed: o.seed}}
				if mode == "omp" {
					cell.p.Pool = pool
				}
				s := rec.spans.begin("core.prepare", sp, 0)
				t0 := time.Now()
				err = kern.Prepare(a, cell.p)
				cell.prepare = time.Since(t0)
				rec.spans.end(s, "")
				if err != nil {
					return nil, fmt.Errorf("%s on %s: prepare: %w", kern.Name(), ref, err)
				}
				s = rec.spans.begin("core.calculate", sp, 0)
				err = kern.Calculate(cell.b, cell.c, cell.p)
				rec.spans.end(s, "")
				if err != nil {
					return nil, fmt.Errorf("%s on %s: warm-up: %w", kern.Name(), ref, err)
				}
				su.prepareMs += cell.prepare.Seconds() * 1e3
				su.cells = append(su.cells, cell)
			}
		}
	}
	su.elapsed = time.Since(start)
	su.mem = memMark().since(memStart)
	return su, nil
}

func runSweep(o options, env envInfo, rec *recorder, w io.Writer) error {
	nproc := runtime.NumCPU()
	pool := parallel.NewPool(nproc)
	defer pool.Close()
	root := rec.spans.begin(wlKernelSweep, -1, 0)
	defer func() { rec.spans.end(root, "") }()

	triad := 0.0 // GB/s; 0 when the triad was not run
	if o.trace {
		elems, ok, note := triadPlan(env, o.shrink)
		fmt.Fprintf(w, "  roofline denominator: %s\n", note)
		if ok {
			s := rec.spans.begin("machine.triad", root, 0)
			triad = triadGBs(elems, nproc)
			rec.set("machine.triad_gbs", triad, 3)
			rec.spans.end(s, "")
		} else {
			fmt.Fprintf(w, "  triad not run: kernels.roofline_frac.* omitted\n")
		}
	}

	// Set-up runs several times so setup_s and prepare_ms are medians; the
	// last one's cells are the ones measured. Two things keep the repeats
	// comparable. torso1's ELL and BELL forms are ~100 MB each, and how fast
	// such arrays can be allocated depends on what the previous repeat left
	// in the heap (measured: the same 24 conversions take 0.4 s or 3 s), so
	// the first two repeats only bring the heap to its steady size and are
	// not timed. And the collector is paused during set-up, with one
	// explicit collection between repeats, so a repeat prices conversion,
	// not a collection cycle that happened to start inside it.
	warm, timed := 2, 3
	if o.shrink < 1 {
		warm, timed = 0, 1
	}
	var su *sweepSetup
	var setupS, prepMs, cellBytes, cellAllocs []float64
	var prepares [][]time.Duration // per timed repeat, per cell
	gcPercent := debug.SetGCPercent(-1)
	for rep := 0; rep < warm+timed; rep++ {
		su = nil
		runtime.GC()
		var err error
		if su, err = setupSweep(o, pool, rec, root); err != nil {
			debug.SetGCPercent(gcPercent)
			return err
		}
		if rep < warm {
			continue
		}
		n := float64(len(su.cells))
		setupS = append(setupS, su.elapsed.Seconds())
		prepMs = append(prepMs, su.prepareMs)
		cellBytes = append(cellBytes, float64(su.mem.Bytes)/n)
		cellAllocs = append(cellAllocs, float64(su.mem.Objects)/n)
		row := make([]time.Duration, len(su.cells))
		for i, c := range su.cells {
			row[i] = c.prepare
		}
		prepares = append(prepares, row)
	}
	debug.SetGCPercent(gcPercent)
	cells := su.cells
	for i, c := range cells {
		var ms []float64
		for _, row := range prepares {
			ms = append(ms, float64(row[i]))
		}
		c.prepare = time.Duration(median(ms))
	}
	rec.setMedian("setup_s", setupS, len(setupS))
	rec.setMedian("core.prepare_ms", prepMs, len(cells))
	// A cold multiply as a library caller pays for it: per cell, the heap
	// behind generate + Prepare + operand panels + the first Calculate.
	// Steady-state Calculate allocations are kernels.calc_allocs.<mode>.
	rec.setMedian("bytes_per_req", cellBytes, len(cells))
	rec.setMedian("allocs_per_req", cellAllocs, len(cells))

	var working float64
	for _, c := range cells {
		working = max(working, computedBytes(c.kern.Bytes(), c.a.Rows, c.a.Cols, sweepK))
	}
	fmt.Fprintf(w, "  largest cell working set (computed): %.1f MB; LLC %d MiB: %s\n", working/1e6, env.LLCBytes>>20,
		map[bool]string{true: "cache-resident, roofline_frac may exceed 1", false: "larger than the LLC"}[working < float64(env.LLCBytes)])

	// Timed phase: passes over all cells, so each cell is sampled at five
	// points of the run and slow drift spreads over every cell alike.
	slot := time.Duration(o.seconds * float64(time.Second) / float64(segments*len(cells)))
	for pass := 0; pass < segments; pass++ {
		ps := rec.spans.begin(fmt.Sprintf("segment-%d", pass), root, 0)
		for _, c := range cells {
			calls := make([]float64, 0, 1024) // room enough that the loop itself allocates nothing
			mem := memMark()
			for start := time.Now(); len(calls) == 0 || time.Since(start) < slot; {
				s := rec.spans.begin("core.calculate", ps, 0)
				t0 := time.Now()
				err := c.kern.Calculate(c.b, c.c, c.p)
				calls = append(calls, time.Since(t0).Seconds())
				rec.spans.end(s, "")
				if err != nil {
					rec.fail("%s on %s: calculate: %v", c.kern.Name(), c.matrix, err)
					break
				}
			}
			c.allocs += memMark().since(mem).Objects
			c.calls = append(c.calls, calls...)
			c.passMedian = append(c.passMedian, median(calls))
		}
		rec.spans.end(ps, "")
	}

	// Correctness gate: one verified core.Run per cell against the COO
	// reference. A cell that fails counts in failed/attempted.
	rec.count(len(cells))
	vs := rec.spans.begin("verify", root, 0)
	for _, c := range cells {
		p := c.p
		p.Verify = true
		t0 := time.Now()
		res, err := core.Run(c.kern, c.a, c.matrix, p)
		wall := time.Since(t0).Seconds()
		if err != nil || !res.Verified {
			rec.fail("%s on %s: verify: %v", c.kern.Name(), c.matrix, err)
			continue
		}
		if c.matrix == "cant" && c.kern.Name() == "csr-omp" {
			// Run = prepare + warm-up + reps + verification; what is left
			// after the first three is B generation, the COO reference
			// multiply and the comparison.
			rec.set("core.verify_ms", 1e3*(wall-res.FormatSeconds-2*res.AvgSeconds), 1)
		}
	}
	rec.spans.end(vs, "")

	reportSweep(rec, cells, pool, triad)
	probeExtend(rec, cells[0].a, o.seed, root)
	// The resident cost of the sweep: all 24 prepared formats and operands.
	rec.set("process.live_heap_mb", liveHeapMB(), 1)
	runtime.KeepAlive(cells)
	return nil
}

// reportSweep turns the cells' timings into the end-to-end values and the
// formats / kernels / parallel rows of the ledger.
func reportSweep(rec *recorder, cells []*sweepCell, pool *parallel.Pool, triadGBs float64) {
	var gflops, p50, rate, slowdown []float64
	passes := make([][]float64, segments)
	calls := 0
	byFormat := map[string][]*sweepCell{}
	modeAllocs, modeCalls := map[string]float64{}, map[string]float64{}
	for _, c := range cells {
		g := c.flops() / median(c.calls) / 1e9
		gflops = append(gflops, g)
		p50 = append(p50, 1e6*median(c.calls))
		for _, call := range c.calls {
			slowdown = append(slowdown, call/median(c.calls))
		}
		rate = append(rate, 1/mean(c.calls))
		for i, m := range c.passMedian {
			passes[i] = append(passes[i], c.flops()/m/1e9)
		}
		calls += len(c.calls)
		byFormat[c.format] = append(byFormat[c.format], c)
		modeAllocs[c.mode] += float64(c.allocs)
		modeCalls[c.mode] += float64(len(c.calls))
		rec.set(fmt.Sprintf("kernels.gflops.%s.%s-%s", c.matrix, c.format, c.mode), g, len(c.calls))
	}
	var passGflops []float64
	for _, p := range passes {
		passGflops = append(passGflops, geomean(p))
	}
	rec.setSamples("spmm_gflops", geomean(gflops), passGflops, calls)
	rec.set("multiply_p50_us", geomean(p50), calls)
	// A cell has a few dozen calls, too few for a tail of its own: the tail
	// is taken over every call of the sweep, each as a multiple of its
	// cell's median, and applied to the geomean median.
	rec.set("client.multiply_p90_us", geomean(p50)*percentile(slowdown, 0.90), calls)
	rec.set("multiply_rps", geomean(rate), calls)
	rec.set("client.samples", float64(calls), calls)
	rec.set("client.failed_frac", float64(rec.failed)/float64(len(cells)), len(cells))
	for _, mode := range sweepModes {
		rec.set("kernels.calc_allocs."+mode, modeAllocs[mode]/modeCalls[mode], int(modeCalls[mode]))
	}

	for format, fc := range byFormat {
		var convertMs, bytes, nnz float64
		var ai, frac, speedup []float64
		serial := map[string]float64{}
		for _, c := range fc {
			convertMs += c.prepare.Seconds() * 1e3
			moved := computedBytes(c.kern.Bytes(), c.a.Rows, c.a.Cols, c.p.K)
			if c.mode == "serial" {
				bytes += float64(c.kern.Bytes())
				nnz += float64(c.a.NNZ())
				ai = append(ai, c.flops()/moved)
				serial[c.matrix] = median(c.calls)
			} else {
				frac = append(frac, moved/median(c.calls)/1e9)
			}
		}
		for _, c := range fc {
			if c.mode == "omp" {
				speedup = append(speedup, serial[c.matrix]/median(c.calls))
			}
		}
		rec.set("formats.convert_ms."+format, convertMs, len(fc))
		rec.set("formats.bytes_per_nnz."+format, bytes/nnz, len(fc)/2)
		rec.set("kernels.ai_flop_per_byte."+format, geomean(ai), len(ai))
		if triadGBs > 0 {
			rec.set("kernels.roofline_frac."+format, geomean(frac)/triadGBs, len(frac))
		}
		rec.set("parallel.speedup."+format, geomean(speedup), len(speedup))
	}

	// Fork-join cost of one parallel region: an empty body over nproc
	// chunks on the pool the omp cells use.
	region := make([]float64, 2000)
	for i := range region {
		t0 := time.Now()
		pool.Run(pool.Workers(), pool.Workers(), func(lo, hi, worker int) {})
		region[i] = 1e6 * time.Since(t0).Seconds()
	}
	rec.set("parallel.region_us", median(region), len(region))
}

// mutationBatch draws one batch of ops over an rows x cols matrix: four in
// five set a value, one in five deletes — the mix cmd/spmmload sends.
func mutationBatch(rng *rand.Rand, rows, cols, n int) []delta.Op {
	ops := make([]delta.Op, n)
	for i := range ops {
		ops[i] = delta.Op{Row: int32(rng.Intn(rows)), Col: int32(rng.Intn(cols))}
		if rng.Float64() < 0.2 {
			ops[i].Del = true
		} else {
			ops[i].Val = rng.NormFloat64()
		}
	}
	return ops
}

const mutateOps = 8 // ops per mutation batch, every workload

// probeExtend is the mutation layer with no server in the path: a batch is
// visible once Overlay.Extend returns. Five overlays over cant each take 200
// batches; the value is the median of the five p50s.
func probeExtend(rec *recorder, base *matrix.COO[float64], seed int64, parent int) {
	sp := rec.spans.begin("delta.extend", parent, 0)
	defer rec.spans.end(sp, "")
	rng := rand.New(rand.NewSource(seed))
	var p50s []float64
	const batches = 200
	for rep := 0; rep < segments; rep++ {
		var ov *delta.Overlay
		us := make([]float64, 0, batches)
		for i := 0; i < batches; i++ {
			ops := mutationBatch(rng, base.Rows, base.Cols, mutateOps)
			t0 := time.Now()
			next, err := ov.Extend(base, ops)
			us = append(us, 1e6*time.Since(t0).Seconds())
			if err != nil {
				rec.fail("overlay extend: %v", err)
				return
			}
			ov = next
		}
		p50s = append(p50s, median(us))
	}
	rec.setMedian("delta.extend_us", p50s, segments*batches)
}
