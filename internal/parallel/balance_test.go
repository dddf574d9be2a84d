package parallel

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// rowptrFromNNZ builds a CSR-style prefix sum from per-row counts.
func rowptrFromNNZ(nnz []int32) []int32 {
	rp := make([]int32, len(nnz)+1)
	for i, c := range nnz {
		rp[i+1] = rp[i] + c
	}
	return rp
}

func TestBalancedBoundsPartitionProperty(t *testing.T) {
	f := func(seed int64, nRaw, chunksRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 500)
		chunks := 1 + int(chunksRaw%64)
		nnz := make([]int32, n)
		for i := range nnz {
			// Mix of empty rows and power-law-ish heavy rows.
			switch rng.Intn(4) {
			case 0: // empty
			case 1:
				nnz[i] = int32(rng.Intn(4))
			default:
				nnz[i] = int32(rng.Intn(200))
			}
		}
		rp := rowptrFromNNZ(nnz)
		bounds := BalancedBounds(rp, chunks)
		if err := ValidateBounds(bounds, n); err != nil {
			t.Log(err)
			return false
		}
		return len(bounds)-1 <= max(chunks, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBalancedBoundsChunkLoad(t *testing.T) {
	// Every chunk carries at most a fair share of nonzeros plus one row's
	// worth — the standard guarantee of prefix-sum splitting.
	rng := rand.New(rand.NewSource(7))
	n := 2000
	nnz := make([]int32, n)
	var maxRow int64
	for i := range nnz {
		nnz[i] = int32(rng.Intn(50))
		if rng.Intn(100) == 0 {
			nnz[i] = int32(1000 + rng.Intn(5000)) // heavy hub rows
		}
		maxRow = max(maxRow, int64(nnz[i]))
	}
	rp := rowptrFromNNZ(nnz)
	total := int64(rp[n])
	for _, chunks := range []int{2, 4, 8, 16, 64} {
		bounds := BalancedBounds(rp, chunks)
		fair := total/int64(chunks) + 1
		for i := 0; i+1 < len(bounds); i++ {
			load := int64(rp[bounds[i+1]] - rp[bounds[i]])
			if load > fair+maxRow {
				t.Fatalf("chunks=%d: chunk %d holds %d nnz, limit %d",
					chunks, i, load, fair+maxRow)
			}
		}
	}
}

func TestBalancedBoundsHeavyRowIsolated(t *testing.T) {
	// One row holding 90%% of the nonzeros must end up alone in its chunk
	// (for chunks >= 3) so the remaining rows can still spread out.
	nnz := make([]int32, 100)
	for i := range nnz {
		nnz[i] = 1
	}
	nnz[40] = 900
	rp := rowptrFromNNZ(nnz)
	bounds := BalancedBounds(rp, 8)
	if err := ValidateBounds(bounds, 100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i] <= 40 && 40 < bounds[i+1] {
			if sz := bounds[i+1] - bounds[i]; sz != 1 {
				t.Fatalf("heavy row shares a chunk of %d rows: bounds %v", sz, bounds)
			}
			return
		}
	}
	t.Fatalf("heavy row not covered: bounds %v", bounds)
}

func TestBalancedBoundsEmptyMatrix(t *testing.T) {
	// total == 0 degenerates to the static partition so row-wise work
	// (zeroing C) still spreads over workers.
	rp := make([]int32, 101) // 100 rows, 0 nnz
	bounds := BalancedBounds(rp, 4)
	if err := ValidateBounds(bounds, 100); err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 5 {
		t.Fatalf("want 4 static chunks, got bounds %v", bounds)
	}
}

func TestBalancedBoundsDegenerate(t *testing.T) {
	if got := BalancedBounds([]int32{0}, 4); len(got) != 1 || got[0] != 0 {
		t.Fatalf("0-row matrix: bounds %v", got)
	}
	if got := BalancedBounds([]int32{0, 5}, 8); len(got) != 2 || got[1] != 1 {
		t.Fatalf("1-row matrix: bounds %v", got)
	}
}

// TestWorkerIDContract pins the contract documented on Pool: Run passes
// body a worker id dense in [0, min(threads, n)), even when threads exceeds
// n or the pool has fewer goroutines than chunks — on a pool of the caller's
// and on the process pool a kernel without one runs on. The id is the
// participant index, which may run many pieces, so the test asks that every
// item runs exactly once and that no two bodies run at once under one id.
func TestWorkerIDContract(t *testing.T) {
	pool := NewPool(2) // smaller than every thread count below
	defer pool.Close()

	runners := map[string]func(n, threads int, body func(lo, hi, w int)){
		"Pool.Run":      pool.Run,
		"Default().Run": Default().Run,
	}
	for name, run := range runners {
		for _, tc := range []struct{ n, threads int }{
			{5, 32},   // threads >> n: ids clamp to [0, n)
			{100, 7},  // rows >> threads
			{1, 16},   // serial degenerate
			{16, 16},  // exact
			{100, 50}, // chunks >> pool workers
		} {
			want := min(tc.threads, tc.n)
			busy := make([]atomic.Int32, want)
			hits := make([]atomic.Int32, tc.n)
			run(tc.n, tc.threads, func(lo, hi, w int) {
				if w < 0 || w >= want {
					t.Errorf("%s(n=%d, threads=%d): worker id %d outside [0, %d)",
						name, tc.n, tc.threads, w, want)
					return
				}
				if busy[w].Add(1) != 1 {
					t.Errorf("%s(n=%d, threads=%d): two bodies at once under worker id %d",
						name, tc.n, tc.threads, w)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
				busy[w].Add(-1)
			})
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("%s(n=%d, threads=%d): item %d ran %d times, want 1",
						name, tc.n, tc.threads, i, hits[i].Load())
				}
			}
		}
	}
}

func TestPoolRunBounds(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	bounds := []int{0, 1, 2, 640, 1000}
	hits := make([]atomic.Int32, 1000)
	p.RunBounds(bounds, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("RunBounds: index %d hit %d times, want 1", i, hits[i].Load())
		}
	}
	// Degenerate single chunk runs inline.
	ran := false
	p.RunBounds([]int{0, 10}, func(lo, hi, w int) {
		ran = lo == 0 && hi == 10 && w == 0
	})
	if !ran {
		t.Fatal("single-chunk RunBounds did not run inline with worker 0")
	}
	// Empty bounds are a no-op.
	p.RunBounds(nil, func(lo, hi, w int) { t.Fatal("body ran for nil bounds") })
}

func TestPoolConcurrentRegions(t *testing.T) {
	// Concurrent Run calls must serialise, not corrupt the shared join
	// WaitGroup. Exercised under -race in check.sh.
	p := NewPool(4)
	defer p.Close()
	done := make(chan int64)
	for g := 0; g < 8; g++ {
		go func() {
			var total atomic.Int64
			p.Run(300, 4, func(lo, hi, _ int) {
				var s int64
				for i := lo; i < hi; i++ {
					s += int64(i)
				}
				total.Add(s)
			})
			done <- total.Load()
		}()
	}
	for g := 0; g < 8; g++ {
		if got := <-done; got != expectedSum(300) {
			t.Fatalf("concurrent region sum %d, want %d", got, expectedSum(300))
		}
	}
}
