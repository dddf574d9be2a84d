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
// Worker-id contract: body receives a range and a worker id in
// [0, min(threads, n)) — when threads exceeds n the thread count is clamped
// to n and ids stay dense — and no two bodies running at the same time share
// an id. Here and in ForBounds the id is the chunk index and each id runs
// once. On the pool (Pool.Run, Pool.RunBounds) the id is the participant
// index: one participant may run many pieces of the region, in sequence,
// and a participant may run none. Under ForDynamic it is the claiming
// goroutine's index in [0, threads), which also runs many chunks in
// sequence. So per-worker scratch indexed by the id is safe under every
// runner; the id is never a pool-goroutine identity.
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
// A region's caller does not wait while the team works: it is participant
// 0, and up to `chunks`−1 pool workers join it. The region's chunks are cut
// into piecesPerChunk pieces each, and every participant claims the next
// piece from one counter until none are left, so a participant slowed by
// another goroutine on its core hands its share to whoever is free instead
// of holding the join.
//
// Dispatch is allocation-free: the region's state lives in the pool, the
// workers are woken by their participant index over a buffered channel,
// and the join WaitGroup lives in the pool, so the only steady-state heap
// traffic of a pooled kernel call is the caller's own body closure. Regions
// are serialised on one mutex (one fork/join region at a time), matching
// the single OpenMP team the thesis' suite uses.
type Pool struct {
	workers  int
	wake     chan int       // participant index of each joining worker
	mu       sync.Mutex     // serialises regions
	joinWG   sync.WaitGroup // the current region's joined workers
	workerWG sync.WaitGroup // worker goroutine lifetimes
	closed   atomic.Bool

	// The current region, written under mu before any worker is woken and
	// read only by its participants.
	body   func(lo, hi, worker int)
	n      int          // static partition of [0, n), when bounds is nil
	chunks int          // chunks in the region
	bounds []int        // precomputed chunk bounds, or nil
	next   atomic.Int64 // the next unclaimed piece
}

// piecesPerChunk is how many pieces each chunk of a pooled region is cut
// into: enough that a participant slowed for part of a region can hand
// most of its chunk over, few enough that a claim (one atomic add) stays
// far below a piece's work. DESIGN §5 has the 1-, 4- and 16-piece
// measurements.
const piecesPerChunk = 16

// NewPool starts a pool of the given number of worker goroutines.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	// A region wakes at most `workers` workers, and each has received its
	// index before the region returns, so the sends never block.
	p := &Pool{
		workers: workers,
		wake:    make(chan int, workers),
	}
	p.workerWG.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.workerWG.Done()
			for id := range p.wake {
				p.claim(id)
				p.joinWG.Done()
			}
		}()
	}
	return p
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.workers }

// Run executes body over [0, n), the static partition of min(threads, n)
// chunks, shared out in pieces among the caller and up to min(threads, n)−1
// pool workers. threads may exceed the pool size: the region then has more
// chunks than participants, and the participants run them all. Worker ids
// are participant indices in [0, min(threads, n)) — see the contract on
// For — never a pool-goroutine identity.
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
// BalancedBounds), each split into pieces by count and shared out as Run
// shares its chunks. body's worker id is the participant index in
// [0, len(bounds)-1).
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

// dispatch runs one region of `chunks` chunks: it publishes the region,
// wakes min(chunks, Workers()+1)−1 workers as participants 1…, claims
// pieces itself as participant 0, and returns once every woken worker has
// found the pieces gone. With nil bounds the chunks are the static
// partition of [0, n).
func (p *Pool) dispatch(n, chunks int, bounds []int, body func(lo, hi, worker int)) {
	if p.closed.Load() {
		panic("parallel: Run on closed Pool")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.body, p.n, p.chunks, p.bounds = body, n, chunks, bounds
	p.next.Store(0)
	helpers := min(chunks, p.workers+1) - 1
	p.joinWG.Add(helpers)
	for id := 1; id <= helpers; id++ {
		p.wake <- id
	}
	// The runtime queues the last worker woken to run next on this P, where
	// it would wait for another P to steal it (about 70 µs on a 2 vCPU
	// host). Yielding runs it here now; the caller resumes on the next free
	// P and claims beside it.
	runtime.Gosched()
	p.claim(0)
	p.joinWG.Wait()
	p.body, p.bounds = nil, nil
}

// claim runs the current region's unclaimed pieces as participant id until
// none are left. Piece i is the (i mod piecesPerChunk)-th count split of
// chunk i / piecesPerChunk; empty pieces of a chunk shorter than
// piecesPerChunk are skipped.
func (p *Pool) claim(id int) {
	pieces := int64(p.chunks * piecesPerChunk)
	for {
		i := int(p.next.Add(1) - 1)
		if int64(i) >= pieces {
			return
		}
		c := i / piecesPerChunk
		var lo, hi int
		if p.bounds != nil {
			lo, hi = p.bounds[c], p.bounds[c+1]
		} else {
			lo, hi = ChunkBounds(p.n, p.chunks, c)
		}
		plo, phi := ChunkBounds(hi-lo, piecesPerChunk, i%piecesPerChunk)
		if plo < phi {
			p.body(lo+plo, lo+phi, id)
		}
	}
}

// Close shuts the pool down and waits for the workers to exit. Run must not
// be called after Close.
func (p *Pool) Close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.wake)
	}
	p.workerWG.Wait()
}
