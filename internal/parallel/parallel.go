// Package parallel is the suite's CPU threading substrate, standing in for
// the OpenMP runtime the thesis uses. Its one fork/join is the Pool, a
// persistent team: a region has an explicit thread count that — exactly like
// omp_set_num_threads — may exceed the number of physical cores, and that
// count fixes the region's chunks (the static partition, or precomputed
// bounds) whatever the team's size. A caller that brings no pool of its own
// runs on Default, the process pool.
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

// Pool is a persistent worker pool — a warmed OpenMP thread team, and the
// package's only fork/join. Repeated kernel invocations reuse the same
// goroutines instead of paying spawn plus WaitGroup churn per Calculate
// call, which dominates at small k and in best-thread sweeps.
//
// A region's caller does not wait while the team works: it is participant
// 0, and up to `chunks`−1 pool workers join it. The region's chunks are cut
// into piecesPerChunk pieces each, and every participant claims the next
// piece from one counter until none are left, so a participant slowed by
// another goroutine on its core hands its share to whoever is free instead
// of holding the join.
//
// Worker-id contract: body receives a range and a worker id, the index of
// the participant running it, in [0, min(threads, n)) for Run (when threads
// exceeds n the thread count is clamped to n and ids stay dense) and
// [0, len(bounds)-1) for RunBounds. One participant may run many pieces of
// a region, in sequence, and a participant may run none; no two bodies
// running at the same time share an id. So per-worker scratch indexed by the
// id is safe; the id is never a pool-goroutine identity.
//
// A panic in body does not escape its participant: the first one is
// recorded, the others stop claiming, and once every woken worker has
// joined the region re-raises it on the caller. The pool stays usable.
//
// Dispatch is allocation-free: the region's state lives in the pool, the
// workers are woken by their participant index over a buffered channel,
// and the join WaitGroup lives in the pool, so the only steady-state heap
// traffic of a pooled kernel call is the caller's own body: a closure, or
// the one value a Body is. Regions
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
	body   Body
	n      int                 // static partition of [0, n), when bounds is nil
	chunks int                 // chunks in the region
	bounds []int               // precomputed chunk bounds, or nil
	next   atomic.Int64        // the next unclaimed piece
	fault  atomic.Pointer[any] // the first panic a participant recovered
}

// piecesPerChunk is how many pieces each chunk of a pooled region is cut
// into: enough that a participant slowed for part of a region can hand
// most of its chunk over, few enough that a claim (one atomic add) stays
// far below a piece's work. DESIGN §5 has the 1-, 4- and 16-piece
// measurements.
const piecesPerChunk = 16

// defaultPool is Default's pool, started on first use.
var defaultPool = sync.OnceValue(func() *Pool { return NewPool(MaxThreads()) })

// Default returns the process pool: MaxThreads() workers, started on first
// use and never closed. Every parallel call that brings no pool of its own
// runs on it.
func Default() *Pool { return defaultPool() }

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
				p.participate(id)
				p.joinWG.Done()
			}
		}()
	}
	return p
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.workers }

// Body is a region's work as a value: Range(lo, hi, worker) is what Run's
// function is called with. A caller whose work carries state from one
// region to the next implements it on a type of its own and hands the pool
// that one value, where a closure over changing state would cost a second
// heap object; Func makes a function a Body.
type Body interface{ Range(lo, hi, worker int) }

// Func is a function as a Body.
type Func func(lo, hi, worker int)

// Range calls f.
func (f Func) Range(lo, hi, worker int) { f(lo, hi, worker) }

// Run executes body over [0, n), the static partition of min(threads, n)
// chunks, shared out in pieces among the caller and up to min(threads, n)−1
// pool workers. threads may exceed the pool size: the region then has more
// chunks than participants, and the participants run them all. threads < 1
// is treated as 1, and a one-chunk region runs on the caller alone.
func (p *Pool) Run(n, threads int, body func(lo, hi, worker int)) {
	p.Region(n, threads, nil, Func(body))
}

// RunBounds executes body over the precomputed chunks (for example from
// BalancedBounds), each split into pieces by count and shared out as Run
// shares its chunks. body's worker id is the participant index in
// [0, len(bounds)-1).
func (p *Pool) RunBounds(bounds []int, body func(lo, hi, worker int)) {
	if len(bounds) > 1 {
		p.Region(0, 0, bounds, Func(body))
	}
}

// Region is Run over [0, n) in threads chunks when bounds is nil, else
// RunBounds over bounds (none with fewer than two), with the work a Body.
func (p *Pool) Region(n, threads int, bounds []int, body Body) {
	body = traceBody(body)
	if bounds != nil {
		threads, n = len(bounds)-1, boundsItems(bounds)
		if threads <= 0 {
			return
		}
	} else {
		threads = min(max(threads, 1), max(n, 1))
	}
	countRegion(threads, n)
	if threads == 1 {
		lo := 0
		if bounds != nil {
			lo = bounds[0]
		}
		body.Range(lo, lo+n, 0)
		return
	}
	p.dispatch(n, threads, bounds, body)
}

// dispatch runs one region of `chunks` chunks: it publishes the region,
// wakes min(chunks, Workers()+1)−1 workers as participants 1…, claims
// pieces itself as participant 0, and returns once every woken worker has
// found the pieces gone, re-raising the first panic a participant
// recovered. With nil bounds the chunks are the static partition of [0, n).
func (p *Pool) dispatch(n, chunks int, bounds []int, body Body) {
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
	// it would wait for another P to steal it. Yielding runs it here now;
	// the caller resumes on the next free P and claims beside it. Back to
	// back that P is awake and both claim within about 12 µs; after the
	// process went idle it must be woken first: 30–45 µs at p50, and a p90
	// from 60 µs to 0.6 ms, by which time the helper has run most of a 1 ms
	// region alone (BenchmarkRegionAfterIdle, 2 vCPU host).
	runtime.Gosched()
	p.participate(0)
	p.joinWG.Wait()
	p.body, p.bounds = nil, nil
	if f := p.fault.Swap(nil); f != nil {
		panic(*f)
	}
}

// participate claims pieces as participant id. A panic in body is recorded
// rather than propagated, so the participant still reaches the join.
func (p *Pool) participate(id int) {
	defer func() {
		if r := recover(); r != nil {
			p.fail(r)
		}
	}()
	p.claim(id)
}

// fail records r if it is the region's first panic and leaves no piece for
// the other participants to claim.
func (p *Pool) fail(r any) {
	p.fault.CompareAndSwap(nil, &r)
	p.next.Store(int64(p.chunks * piecesPerChunk))
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
			p.body.Range(lo+plo, lo+phi, id)
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
