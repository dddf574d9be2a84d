package kernels

import (
	"testing"

	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// The zero-allocation audit: steady-state Calculate must not touch the
// heap. Serial kernels (below and above the tile width) must be exactly
// 0 allocs/op; the pooled parallel path is allowed only the
// caller's body closure. testing.AllocsPerRun pins both so any slice-header
// or closure escape that creeps into the hot loops fails the build — under
// the scalar inner and the vector one, whose float64 dispatch must not box.

func allocFixtures(tb testing.TB, k int) (*matrix.COO[float64], *formats.CSR[float64], *formats.ELL[float64], *formats.BCSR[float64], *matrix.Dense[float64], *matrix.Dense[float64]) {
	coo := powerLawCOO(300, 100, 9)
	csr := formats.CSRFromCOO(coo)
	ell := formats.ELLFromCOO(coo, formats.RowMajor)
	bcsr, err := formats.BCSRFromCOO(coo, 4, 4)
	if err != nil {
		tb.Fatal(err)
	}
	b := matrix.NewDenseRand[float64](100, k, 5)
	c := matrix.NewDense[float64](300, k)
	return coo, csr, ell, bcsr, b, c
}

func TestSerialCalculateZeroAlloc(t *testing.T) { eachInner(t, serialCalculateZeroAlloc) }

// All six formats: every one hands the row entry slices of its own arrays —
// a run, pairs a stride apart, or a block lane — and nothing may box them.
func serialCalculateZeroAlloc(t *testing.T) {
	for _, k := range []int{1, 128, 336} { // a vector, a single panel, tiled
		coo, csr, ell, bcsr, b, c := allocFixtures(t, k)
		ellCM := formats.ELLFromCOO(coo, formats.ColMajor)
		bell, err := formats.BELLFromCOO(coo, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		sell, err := formats.SELLCSFromCOO(coo, 8, 64)
		if err != nil {
			t.Fatal(err)
		}
		for name, run := range map[string]func(){
			"coo":      func() { _ = COO(coo, b, c, k, Spec{}) },
			"csr":      func() { _ = CSR(csr, b, c, k, Spec{}) },
			"ell":      func() { _ = ELL(ell, b, c, k, Spec{}) },
			"ell-colm": func() { _ = ELL(ellCM, b, c, k, Spec{}) },
			"bcsr":     func() { _ = BCSR(bcsr, b, c, k, Spec{}) },
			"bell":     func() { _ = BELL(bell, b, c, k, Spec{}) },
			"sellcs":   func() { _ = SELLCS(sell, b, c, k, Spec{}) },
		} {
			if n := testing.AllocsPerRun(10, run); n != 0 {
				t.Errorf("%s serial k=%d: %.0f allocs/op, want 0", name, k, n)
			}
		}
	}
}

// TestFixedKCalculateZeroAlloc runs the serial audit at the k values the
// retired fixed-k family specialised, where the row entry runs its vector
// tiles without a remainder, and at two full panels.
func TestFixedKCalculateZeroAlloc(t *testing.T) { eachInner(t, fixedKCalculateZeroAlloc) }

func fixedKCalculateZeroAlloc(t *testing.T) {
	for _, k := range []int{8, 16, 32, 64, 256} {
		coo, csr, ell, bcsr, b, c := allocFixtures(t, k)
		for name, run := range map[string]func(){
			"coo":  func() { _ = COO(coo, b, c, k, Spec{}) },
			"csr":  func() { _ = CSR(csr, b, c, k, Spec{}) },
			"ell":  func() { _ = ELL(ell, b, c, k, Spec{}) },
			"bcsr": func() { _ = BCSR(bcsr, b, c, k, Spec{}) },
		} {
			if n := testing.AllocsPerRun(10, run); n != 0 {
				t.Errorf("%s k=%d: %.0f allocs/op, want 0", name, k, n)
			}
		}
	}
}

// TestSerialCalculateZeroAllocTracerInstalled re-runs the serial audit with
// a disabled tracer installed both as the parallel package hook and in the
// Start/End bracket pattern the pipeline uses — the tracer's "disabled is
// free" contract, pinned where it matters (the acceptance criterion of the
// observability layer: 0 allocs/op with tracing disabled on serial
// CSR/ELL/BCSR Calculate).
func TestSerialCalculateZeroAllocTracerInstalled(t *testing.T) {
	tr := trace.New(4, 64) // constructed but never enabled
	parallel.SetTracer(tr)
	defer parallel.SetTracer(nil)
	const k = 128
	_, csr, ell, bcsr, b, c := allocFixtures(t, k)
	for name, run := range map[string]func(){
		"csr":  func() { s := tr.Start(); _ = CSR(csr, b, c, k, Spec{}); tr.End(0, trace.PhaseCalculate, s, 0) },
		"ell":  func() { s := tr.Start(); _ = ELL(ell, b, c, k, Spec{}); tr.End(0, trace.PhaseCalculate, s, 0) },
		"bcsr": func() { s := tr.Start(); _ = BCSR(bcsr, b, c, k, Spec{}); tr.End(0, trace.PhaseCalculate, s, 0) },
	} {
		if n := testing.AllocsPerRun(10, run); n != 0 {
			t.Errorf("%s serial with disabled tracer: %.0f allocs/op, want 0", name, n)
		}
	}
	if tr.Len() != 0 {
		t.Errorf("disabled tracer recorded %d spans", tr.Len())
	}

	// The parallel path must stay within its closure-only budget when the
	// hook holds a disabled tracer, on a pool of the caller's and on the
	// process pool a nil Spec.Pool means.
	pool := parallel.NewPool(4)
	defer pool.Close()
	for name, s := range map[string]Spec{
		"own pool":     {Threads: 4, Pool: pool, Trace: tr},
		"process pool": {Threads: 4, Trace: tr},
	} {
		if n := testing.AllocsPerRun(10, func() { _ = CSR(csr, b, c, k, s) }); n > 3 {
			t.Errorf("csr parallel on the %s with disabled tracer: %.0f allocs/op, want <= 3", name, n)
		}
	}
}

func TestPooledBalancedCalculateAllocBound(t *testing.T) {
	eachInner(t, pooledBalancedCalculateAllocBound)
}

func pooledBalancedCalculateAllocBound(t *testing.T) {
	// The pooled balanced path may allocate only the entry's own body
	// closure (the partition is memoized, the pool dispatch is struct
	// sends, the join WaitGroup lives in the pool; measured: 1 alloc/op for
	// CSR/ELL/BCSR, 3 for COO's two closures and triplet bounds, before and
	// after the Spec refactor). Two allocs of headroom
	// keep the bound robust across compiler versions while still catching
	// per-chunk or per-row escapes.
	const k, threads = 128, 4
	pool := parallel.NewPool(threads)
	defer pool.Close()
	coo, csr, ell, bcsr, b, c := allocFixtures(t, k)
	s := Spec{Threads: threads, Schedule: ScheduleBalanced, Pool: pool}
	csr.BalancedBounds(threads) // warm, as Prepare does
	bcsr.BalancedBounds(threads)
	for name, run := range map[string]func(){
		"csr":  func() { _ = CSR(csr, b, c, k, s) },
		"ell":  func() { _ = ELL(ell, b, c, k, s) },
		"bcsr": func() { _ = BCSR(bcsr, b, c, k, s) },
		"coo":  func() { _ = COO(coo, b, c, k, s) },
	} {
		if n := testing.AllocsPerRun(10, run); n > 3 {
			t.Errorf("%s pooled balanced: %.0f allocs/op, want <= 3", name, n)
		}
	}
}

// TestMultiplyVecAllocBound: a vector call costs its two one-column Dense
// headers and nothing else — x and y are viewed, never copied.
func TestMultiplyVecAllocBound(t *testing.T) { eachInner(t, multiplyVecAllocBound) }

func multiplyVecAllocBound(t *testing.T) {
	coo, csr, ell, bcsr, _, _ := allocFixtures(t, 1)
	x, y := make([]float64, 100), make([]float64, 300)
	for name, a := range map[string]formats.Sparse{"coo": coo, "csr": csr, "ell": ell, "bcsr": bcsr} {
		if n := testing.AllocsPerRun(10, func() { _ = MultiplyVec(a, x, y, Spec{}) }); n > 2 {
			t.Errorf("%s: %.0f allocs/op, want <= 2", name, n)
		}
	}
}
