package kernels

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// countdownCtx is a context whose first n Err calls report nil and every
// later one context.Canceled: a cancellation that lands at a known point of
// a kernel's check sequence, with no timing involved.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func countdown(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCtxEverywhere runs every cancellable lattice point — every format,
// serial and parallel, every schedule — under three contexts. The fixture
// has one nonzero per row and column, block edge 1 and slice height 1, so
// every format's loop unit (row, block row, slice, triplet) is one output
// row and "work done" can be read off C: a row the kernel reached no longer
// holds the poison value.
func TestCtxEverywhere(t *testing.T) {
	const n, k, threads = 6*cancelStride + 17, 8, 3
	coo := matrix.NewCOO[float64](n, n, n)
	for i := 0; i < n; i++ {
		coo.Append(int32(i), int32((i*7)%n), float64(1+i%5))
	}
	coo.SortRowMajor()
	pool := parallel.NewPool(threads)
	defer pool.Close()
	in := NewVariantInput(coo, k, threads, 1, 3)
	in.Pool = pool
	sell, err := formats.SELLCSFromCOO(coo, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	in.Formats = map[string]formats.Sparse{"sellcs": sell}

	const poison = 1e301
	out := matrix.NewDense[float64](n, k)
	reached := func() (rows int) {
		for i := 0; i < n; i++ {
			if out.At(i, 0) != poison {
				rows++
			}
		}
		return rows
	}
	want := matrix.NewDense[float64](n, k)

	points := 0
	for _, v := range Variants() {
		if !v.Ctx {
			continue
		}
		points++
		a, err := in.Prepare(v)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		run := func(ctx context.Context, c *matrix.Dense[float64]) error {
			for i := range c.Data {
				c.Data[i] = poison
			}
			s := v.spec(in)
			s.Ctx = ctx
			return Multiply(a, in.B, c, k, s)
		}

		// A nil ctx is the unchanged path; a live ctx must not change a bit.
		if err := run(nil, want); err != nil {
			t.Fatalf("%s: nil ctx: %v", v.Name, err)
		}
		if err := run(context.Background(), out); err != nil {
			t.Fatalf("%s: live ctx: %v", v.Name, err)
		}
		if !out.EqualTol(want, 0) {
			t.Errorf("%s: live ctx changed the result", v.Name)
		}

		// Cancelled before the call: no row runs.
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if err := run(cancelled, out); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: pre-cancelled ctx returned %v, want context.Canceled", v.Name, err)
		}
		if got := reached(); got != 0 {
			t.Errorf("%s: %d rows ran under a pre-cancelled ctx", v.Name, got)
		}

		// Cancelled mid-run: every piece of work follows a check that
		// passed, and a piece is at most cancelStride units, so the rows
		// reached are bounded by the checks the countdown let through.
		const checks = 4
		if err := run(countdown(checks), out); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: mid-run cancellation returned %v, want context.Canceled", v.Name, err)
		}
		if got := reached(); got > checks*cancelStride || got == n {
			t.Errorf("%s: %d of %d rows ran after %d passed checks (bound %d)",
				v.Name, got, n, checks, checks*cancelStride)
		}
	}
	if points != 17 {
		t.Fatalf("%d cancellable lattice points enumerated, want 17 (half of the 34)", points)
	}
}
