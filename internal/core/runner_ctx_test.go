package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// flakyThreadsKernel fails Calculate for the thread counts in failOn — the
// shape of a real sweep failure (e.g. oversubscription tripping a kernel's
// internal limits) that BestThreads must survive.
type flakyThreadsKernel struct {
	failOn map[int]bool
}

func (f *flakyThreadsKernel) Name() string   { return "flaky-omp" }
func (f *flakyThreadsKernel) Format() string { return "coo" }
func (f *flakyThreadsKernel) Mode() Mode     { return Parallel }
func (f *flakyThreadsKernel) Bytes() int     { return 1 }
func (f *flakyThreadsKernel) Prepare(a *matrix.COO[float64], p Params) error {
	return nil
}
func (f *flakyThreadsKernel) Calculate(_, c *matrix.Dense[float64], p Params) error {
	if f.failOn[p.Threads] {
		return fmt.Errorf("flaky: refusing to run with %d threads", p.Threads)
	}
	return nil
}

func sweepParams(list ...int) Params {
	p := smallParams()
	p.ThreadList = list
	p.Verify = false
	return p
}

func TestBestThreadsSurvivesOneFailure(t *testing.T) {
	a := testCOO(10, 50, 50, 200)
	k := &flakyThreadsKernel{failOn: map[int]bool{3: true}}
	best, all, err := BestThreads(k, a, "t", sweepParams(1, 3, 5))
	if err != nil {
		t.Fatalf("one failing count aborted the sweep: %v", err)
	}
	if len(all) != 3 {
		t.Fatalf("got %d results, want 3 (failed counts must keep their slot)", len(all))
	}
	if all[1].Err == "" || all[1].Threads != 3 {
		t.Fatalf("failed count not recorded: %+v", all[1])
	}
	if !strings.Contains(all[1].Err, "3 threads") {
		t.Fatalf("recorded error %q lost the cause", all[1].Err)
	}
	if best == 1 {
		t.Fatal("failed count picked as winner")
	}
	if all[best].Err != "" {
		t.Fatalf("winner %d carries an error: %q", best, all[best].Err)
	}
}

func TestBestThreadsAllFailing(t *testing.T) {
	a := testCOO(11, 50, 50, 200)
	k := &flakyThreadsKernel{failOn: map[int]bool{1: true, 2: true, 4: true}}
	_, all, err := BestThreads(k, a, "t", sweepParams(1, 2, 4))
	if err == nil {
		t.Fatal("all-failing sweep reported success")
	}
	if !strings.Contains(err.Error(), "all 3 thread counts failed") {
		t.Fatalf("error %v does not say every count failed", err)
	}
	if len(all) != 3 {
		t.Fatalf("got %d results, want 3", len(all))
	}
	for i, r := range all {
		if r.Err == "" {
			t.Fatalf("result %d has no recorded error", i)
		}
	}
}

func TestRunCtxCancelledBeforeStart(t *testing.T) {
	a := testCOO(12, 30, 30, 100)
	k, err := New("csr-serial", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, k, a, "t", smallParams()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
}

func TestRunNilContextCompletes(t *testing.T) {
	a := testCOO(13, 30, 30, 100)
	k, err := New("coo-omp", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The zero Params.Ctx must behave exactly as before the context plumbing.
	r, err := Run(k, a, "t", smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Fatal("run with nil context skipped verification")
	}
}

// countdownCtx reports nil from its first n Err calls and context.Canceled
// from every later one: a cancellation at a known point of the run's check
// sequence, with no timing involved.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRunCtxInterruptsELLMidCalculate: a per-run deadline must be able to
// cut a kernel short inside Calculate for every format, not only CSR and
// COO. The countdown passes the runner's entry check and the first checks
// of the warm-up Calculate, then cancels — so the error must come out of a
// Calculate call, not out of the runner's between-repetition check.
func TestRunCtxInterruptsELLMidCalculate(t *testing.T) {
	const rows = 8 * 1024 // several cancellation strides per worker
	a := matrix.NewCOO[float64](rows, rows, rows)
	for i := 0; i < rows; i++ {
		a.Append(int32(i), int32(i), 1)
	}
	k, err := New("ell-omp", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(3)
	_, err = RunCtx(ctx, k, a, "diag", smallParams())
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "calculate") {
		t.Fatalf("RunCtx returned %v, want context.Canceled out of a Calculate call", err)
	}
}

// regions reads spmm_parallel_regions_total.
func regions(t *testing.T) float64 {
	t.Helper()
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const series = "spmm_parallel_regions_total "
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series); ok {
			var v float64
			if _, err := fmt.Sscan(rest, &v); err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not exported", series)
	return 0
}

// TestRunCtxKeepsScheduleAndPool: a context must not change which machinery
// runs. Every harness campaign goes through RunCtx, so a run asking for the
// balanced schedule on a pool has to dispatch on that pool — and produce the
// bits csr-serial does.
func TestRunCtxKeepsScheduleAndPool(t *testing.T) {
	a := testCOO(14, 300, 200, 4000)
	pool := parallel.NewPool(4)
	defer pool.Close()
	p := smallParams()
	p.Schedule = kernels.ScheduleBalanced
	p.Pool = pool

	serial, err := New("csr-serial", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.Prepare(a, p); err != nil {
		t.Fatal(err)
	}
	b := matrix.NewDenseRand[float64](a.Cols, p.K, p.Seed)
	want := matrix.NewDense[float64](a.Rows, p.K)
	if err := serial.Calculate(b, want, p); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"csr-omp", "coo-omp"} {
		k, err := New(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		before := regions(t)
		r, err := RunCtx(context.Background(), k, a, "t", p)
		if err != nil || !r.Verified {
			t.Fatalf("%s: %+v, %v", name, r, err)
		}
		if got := regions(t); got <= before {
			t.Errorf("%s: no region ran on the pool under a ctx (spmm_parallel_regions_total stayed %v)", name, got)
		}

		q := p
		q.Ctx = context.Background()
		got := matrix.NewDense[float64](a.Rows, p.K)
		if err := k.Calculate(b, got, q); err != nil {
			t.Fatal(err)
		}
		if !got.EqualTol(want, 0) {
			t.Errorf("%s under ctx + balanced + pool is not bitwise equal to csr-serial", name)
		}
	}
}
