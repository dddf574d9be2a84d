// Package parallel is the suite's CPU threading substrate, standing in for
// the OpenMP runtime the thesis uses. It provides OpenMP-style loop
// scheduling with an explicit thread count that — exactly like
// omp_set_num_threads — may exceed the number of physical cores. The
// oversubscribed regime is what lets the suite reproduce the thesis'
// hyperthreading observations (Studies 3 and 3.1).
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxThreads returns the suite's view of available hardware parallelism.
func MaxThreads() int { return runtime.GOMAXPROCS(0) }

// ChunkBounds returns the half-open range [lo, hi) of the i-th of `chunks`
// near-equal contiguous chunks of [0, n), distributing the remainder over
// the leading chunks as OpenMP static scheduling does.
func ChunkBounds(n, chunks, i int) (lo, hi int) {
	if chunks <= 0 {
		panic(fmt.Sprintf("parallel: ChunkBounds with %d chunks", chunks))
	}
	base := n / chunks
	rem := n % chunks
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// For executes body over [0, n) split into `threads` contiguous chunks, one
// goroutine per chunk (OpenMP "schedule(static)"). threads < 1 is treated as
// 1.
//
// Worker-id contract: body receives its chunk bounds and a worker id that is
// the *chunk index*, in [0, min(threads, n)) — when threads exceeds n the
// thread count is clamped to n and ids stay dense. Every loop runner in this
// package (For, ForDynamic, Pool.Run, Pool.RunBounds, ForBounds, Exec.Run)
// follows the same contract, so per-worker scratch indexed by the id is safe
// regardless of the machinery; the id is never a pool-goroutine identity.
func For(n, threads int, body func(lo, hi, worker int)) {
	body = traceBody(body)
	if threads < 1 {
		threads = 1
	}
	if threads > n {
		threads = max(n, 1)
	}
	countRegion(obsRegionsStatic, threads, n)
	if threads == 1 {
		body(0, n, 0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(threads)
	for w := 0; w < threads; w++ {
		go func(w int) {
			defer wg.Done()
			lo, hi := ChunkBounds(n, threads, w)
			if lo < hi {
				body(lo, hi, w)
			}
		}(w)
	}
	wg.Wait()
}

// ForDynamic executes body over [0, n) using self-scheduled chunks of the
// given size (OpenMP "schedule(dynamic, chunk)"). It balances irregular row
// costs better than For at the price of an atomic fetch per chunk.
func ForDynamic(n, threads, chunk int, body func(lo, hi, worker int)) {
	body = traceBody(body)
	if threads < 1 {
		threads = 1
	}
	if chunk < 1 {
		chunk = 1
	}
	countRegion(obsRegionsDynamic, (n+chunk-1)/chunk, n)
	if threads == 1 {
		body(0, n, 0)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(threads)
	for w := 0; w < threads; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := min(lo+chunk, n)
				body(lo, hi, w)
			}
		}(w)
	}
	wg.Wait()
}

// Pool is a persistent worker pool — a warmed OpenMP thread team. A
// campaign keeps one pool per process so repeated kernel invocations reuse
// the same goroutines instead of paying spawn plus WaitGroup churn per
// Calculate call, which dominates at small k and in best-thread sweeps.
//
// Dispatch is allocation-free: chunks travel to workers as plain structs
// over a buffered channel and the fork/join WaitGroup lives in the pool, so
// the only steady-state heap traffic of a pooled kernel call is the caller's
// own body closure. Run serialises concurrent callers (one fork/join region
// at a time), matching the single OpenMP team the thesis' suite uses.
type Pool struct {
	workers  int
	tasks    chan poolTask
	mu       sync.Mutex     // serialises Run/RunBounds
	joinWG   sync.WaitGroup // completion of the current region's chunks
	workerWG sync.WaitGroup // worker goroutine lifetimes
	closed   atomic.Bool
}

// poolTask is one chunk of a fork/join region.
type poolTask struct {
	lo, hi, worker int
	body           func(lo, hi, worker int)
}

// NewPool starts a pool of the given number of worker goroutines.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		workers: workers,
		tasks:   make(chan poolTask, workers),
	}
	p.workerWG.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.workerWG.Done()
			for t := range p.tasks {
				t.body(t.lo, t.hi, t.worker)
				p.joinWG.Done()
			}
		}()
	}
	return p
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.workers }

// Run executes body over [0, n) in `threads` static chunks using pool
// workers. If threads exceeds the pool size, the extra chunks queue behind
// the busy workers — the same oversubscription behaviour as For, with reuse
// of the warmed goroutines. Worker ids follow the For contract: the chunk
// index in [0, min(threads, n)), not a pool-goroutine identity.
func (p *Pool) Run(n, threads int, body func(lo, hi, worker int)) {
	body = traceBody(body)
	if threads < 1 {
		threads = 1
	}
	if threads > n {
		threads = max(n, 1)
	}
	countRegion(obsRegionsPool, threads, n)
	if threads == 1 {
		body(0, n, 0)
		return
	}
	p.dispatch(n, threads, nil, body)
}

// RunBounds executes body over the precomputed chunks (for example from
// BalancedBounds) on pool workers. body's worker id is the chunk index.
func (p *Pool) RunBounds(bounds []int, body func(lo, hi, worker int)) {
	body = traceBody(body)
	chunks := len(bounds) - 1
	if chunks <= 0 {
		return
	}
	countRegion(obsRegionsPool, chunks, boundsItems(bounds))
	if chunks == 1 {
		body(bounds[0], bounds[1], 0)
		return
	}
	p.dispatch(0, chunks, bounds, body)
}

// dispatch queues one fork/join region of `chunks` chunks and waits for the
// join. With nil bounds the region is the static partition of [0, n); with
// bounds set they hold the precomputed splits. The pool-level mutex keeps
// regions from interleaving so the shared join WaitGroup stays coherent, and
// nothing here reaches the heap — chunks are plain struct sends.
func (p *Pool) dispatch(n, chunks int, bounds []int, body func(lo, hi, worker int)) {
	if p.closed.Load() {
		panic("parallel: Run on closed Pool")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.joinWG.Add(chunks)
	for w := 0; w < chunks; w++ {
		var lo, hi int
		if bounds != nil {
			lo, hi = bounds[w], bounds[w+1]
		} else {
			lo, hi = ChunkBounds(n, chunks, w)
		}
		if lo >= hi {
			p.joinWG.Done()
			continue
		}
		p.tasks <- poolTask{lo: lo, hi: hi, worker: w, body: body}
	}
	p.joinWG.Wait()
}

// Close shuts the pool down and waits for the workers to exit. Run must not
// be called after Close.
func (p *Pool) Close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.tasks)
	}
	p.workerWG.Wait()
}
