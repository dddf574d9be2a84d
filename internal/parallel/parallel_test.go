package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestChunkBoundsCoverExactly(t *testing.T) {
	f := func(nRaw, chunksRaw uint16) bool {
		n := int(nRaw % 1000)
		chunks := 1 + int(chunksRaw%64)
		prev := 0
		for i := 0; i < chunks; i++ {
			lo, hi := ChunkBounds(n, chunks, i)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return prev == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChunkBoundsBalanced(t *testing.T) {
	// No chunk may be more than one element larger than another.
	for _, n := range []int{0, 1, 7, 100, 101} {
		for chunks := 1; chunks <= 9; chunks++ {
			minSz, maxSz := n+1, -1
			for i := 0; i < chunks; i++ {
				lo, hi := ChunkBounds(n, chunks, i)
				sz := hi - lo
				minSz = min(minSz, sz)
				maxSz = max(maxSz, sz)
			}
			if maxSz-minSz > 1 {
				t.Fatalf("n=%d chunks=%d: sizes range [%d, %d]", n, chunks, minSz, maxSz)
			}
		}
	}
}

func sumVia(run func(n int, body func(lo, hi, w int)), n int) int64 {
	var total atomic.Int64
	run(n, func(lo, hi, _ int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		total.Add(s)
	})
	return total.Load()
}

func expectedSum(n int) int64 { return int64(n) * int64(n-1) / 2 }

func TestPoolRun(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	// threads <= 0 runs the whole range as one chunk; threads > n clamps.
	for _, threads := range []int{-1, 0, 1, 2, 4, 7, 9, 64, 100} {
		for _, n := range []int{0, 1, 5, 1234} {
			got := sumVia(func(n int, body func(lo, hi, w int)) {
				p.Run(n, threads, body)
			}, n)
			if got != expectedSum(n) {
				t.Fatalf("Pool.Run(n=%d, threads=%d): sum %d, want %d", n, threads, got, expectedSum(n))
			}
		}
	}
}

func TestPoolOversubscription(t *testing.T) {
	// More chunks than workers must still complete (no deadlock) and
	// cover the range exactly once.
	p := NewPool(2)
	defer p.Close()
	n := 100
	hits := make([]atomic.Int32, n)
	p.Run(n, 50, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d hit %d times", i, hits[i].Load())
		}
	}
}

func TestPoolSequentialReuse(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	for rep := 0; rep < 20; rep++ {
		if got := sumVia(func(n int, body func(lo, hi, w int)) {
			p.Run(n, 3, body)
		}, 64); got != expectedSum(64) {
			t.Fatalf("rep %d: wrong sum %d", rep, got)
		}
	}
}

func TestPoolWorkers(t *testing.T) {
	p := NewPool(0) // clamped to 1
	defer p.Close()
	if p.Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1", p.Workers())
	}
}

func TestMaxThreadsPositive(t *testing.T) {
	if MaxThreads() < 1 {
		t.Fatal("MaxThreads must be >= 1")
	}
}
