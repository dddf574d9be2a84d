package kernels

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// This file is the execution half of the format × execution lattice. Every
// format has one exported entry taking a Spec; the entry validates and hands
// its range function to run — the single place that chooses between the
// caller's goroutine and a pool region over the static partition or
// precomputed bounds, and the single place that steps a range in
// cancelStride pieces under a context.
// The range functions themselves (csrRows, ellRows, ...) are the paper's
// subject and stay one separate loop nest each; the slab walk (slab.go) runs
// each once per pass over A's columns. There is one inner loop per
// format, the row entry, and one k loop: k is a runtime bound, and a
// compile-time k would leave the row entry nothing to remove but its
// remainder tiles (Study 9).

// Schedule selects how a parallel kernel partitions its rows over workers.
type Schedule int

const (
	// ScheduleStatic splits rows into equal-count contiguous chunks —
	// OpenMP schedule(static), the thesis' baseline. Best when row lengths
	// are uniform (ELL-friendly matrices).
	ScheduleStatic Schedule = iota
	// ScheduleBalanced splits rows into equal-nonzero contiguous chunks
	// read off the format's prefix-sum array (merge-path style). Best for
	// skewed (power-law) matrices whose heavy rows serialise a static
	// partition. The split is memoized on the format, so steady-state
	// calls pay nothing for it. Formats whose static partition already is
	// nonzero-balanced (COO, ELL, BELL) accept it and run static.
	ScheduleBalanced
)

// String returns the flag spelling of the schedule.
func (s Schedule) String() string {
	if s == ScheduleBalanced {
		return "balanced"
	}
	return "static"
}

// Inner selects how a simulated kernel reads B: the two loop nests Study 8
// compares. It is an argument of the simulators (machine.Simulate,
// gpusim.SpMM) only; every host kernel reads B row by row.
type Inner uint8

const (
	// InnerTiled is the runtime-k loop: B read row by row, the k columns
	// walked by the row entry's tile ladder in one call per C row. The name
	// is kept: the simulators, the studies and their golden tables spell it.
	InnerTiled Inner = iota
	// InnerTransB is the Study 8 variant: the dense operand is Bᵀ (kb×n).
	InnerTransB
)

// Spec says how one SpMM call executes. The zero value is the plain serial
// kernel; every field is one axis of the lattice Variants enumerates.
type Spec struct {
	// Threads is the worker count. At 1 or below the whole range runs on
	// the caller's goroutine with no parallel machinery (and, without Ctx,
	// no allocation); Schedule, Pool and Trace then have no effect.
	Threads int
	// Schedule is the work partition of a parallel run.
	Schedule Schedule
	// Pool is the worker pool a parallel run's chunks are shared out on;
	// nil means parallel.Default(), the process pool.
	Pool *parallel.Pool
	// Ctx, when non-nil, cancels cooperatively: serial and parallel runs
	// alike check it every cancelStride rows (block rows, slices, COO
	// triplets) and return ctx.Err() early, leaving C partially written.
	Ctx context.Context
	// Trace, when non-nil and enabled, receives one "kernel" span per
	// parallel dispatch (lane 0, detail = format, arg = thread count): one
	// per pass of the slab walk, so one for a walk that does not slab.
	// Per-worker chunk spans come from internal/parallel's own hook.
	Trace *trace.Tracer
}

// Name is the machinery half of a variant name ("<format>/<machinery>"):
// what the Spec's axes spell, with the context reduced to present/absent
// and the pool left out (every parallel run is on one). ParseVariant is its
// inverse.
func (s Spec) Name() string {
	return Variant{Parallel: s.Threads > 1, Schedule: s.Schedule, Ctx: s.Ctx != nil}.machinery()
}

// direct reports whether the call is the allocation-free serial path: the
// slab walk then calls the range function itself, which is what keeps
// serial Calculate at 0 allocs/op.
func (s Spec) direct() bool { return s.Threads <= 1 && s.Ctx == nil }

// ErrSpec is returned by the simulators (machine.Simulate, gpusim.SpMM,
// vendorlib.SpMM) for a format, schedule or inner loop they do not model.
// Every host entry accepts every Spec.
var ErrSpec = errors.New("kernels: spec not supported by this format")

// row is one format's line of the lattice: the axes its entry accepts
// beyond the serial and static parallel points every format has, each
// range of its loop owning disjoint C rows. Adding a format is one
// formats.FromCOO case, one range function, and one row here.
type row struct {
	format string // its upper-case spelling names the exported entry
	// balanced: a nonzero-balanced partition distinct from the static one
	// exists. Rows without it accept ScheduleBalanced and run static.
	balanced bool
	// colMajor: the format has a second, column-major storage layout
	// (formats.Params.Layout) the same entry runs on.
	colMajor bool

	dispatches *obs.Counter
}

func (r *row) register() *row {
	r.dispatches = obs.NewCounter(fmt.Sprintf("spmm_kernels_dispatch_total{format=%q}", r.format),
		"Parallel kernel dispatches (fork/join regions) by format.")
	return r
}

var (
	rowCOO    = (&row{format: "coo"}).register()
	rowCSR    = (&row{format: "csr", balanced: true}).register()
	rowELL    = (&row{format: "ell", colMajor: true}).register()
	rowBCSR   = (&row{format: "bcsr", balanced: true}).register()
	rowBELL   = (&row{format: "bell"}).register()
	rowSELLCS = (&row{format: "sellcs", balanced: true}).register()

	lattice = []*row{rowCOO, rowCSR, rowELL, rowBCSR, rowBELL, rowSELLCS}
)

// run executes body over [0, n) as s says, as one dispatch of r's format:
// on the caller's goroutine, or as one region on s.Pool (parallel.Default()
// when nil). bounds, when non-nil, are the precomputed chunk bounds of a
// balanced (or row-aligned) partition; otherwise the region is the static
// partition into s.Threads chunks.
func run(s Spec, r *row, n int, bounds []int, body parallel.Body) error {
	ctx := s.Ctx
	if s.Threads <= 1 {
		return step(ctx, 0, n, 0, body)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk := body
		body = parallel.Func(func(lo, hi, worker int) { _ = step(ctx, lo, hi, worker, chunk) })
	}
	pool := s.Pool
	if pool == nil {
		pool = parallel.Default()
	}
	r.dispatches.Inc()
	obsRows.Add(int64(n))
	span := s.Trace.Start()
	pool.Region(n, s.Threads, bounds, body)
	s.Trace.EndDetail(0, trace.PhaseKernel, r.format, span, int64(s.Threads))
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// step runs body over [lo, hi) in cancelStride pieces, checking ctx before
// each; a nil ctx is one piece.
func step(ctx context.Context, lo, hi, worker int, body parallel.Body) error {
	if ctx == nil {
		body.Range(lo, hi, worker)
		return nil
	}
	for l := lo; l < hi; l += cancelStride {
		if err := ctx.Err(); err != nil {
			return err
		}
		body.Range(l, min(l+cancelStride, hi), worker)
	}
	return ctx.Err()
}

// Multiply computes C[:, :k] = A × B[:, :k] for a prepared float64 matrix
// in any format, dispatching on a's concrete type to the format's entry.
func Multiply(a formats.Sparse, b, c *matrix.Dense[float64], k int, s Spec) error {
	switch a := a.(type) {
	case *matrix.COO[float64]:
		return COO(a, b, c, k, s)
	case *formats.CSR[float64]:
		return CSR(a, b, c, k, s)
	case *formats.ELL[float64]:
		return ELL(a, b, c, k, s)
	case *formats.BCSR[float64]:
		return BCSR(a, b, c, k, s)
	case *formats.BELL[float64]:
		return BELL(a, b, c, k, s)
	case *formats.SELLCS[float64]:
		return SELLCS(a, b, c, k, s)
	}
	return fmt.Errorf("kernels: no SpMM kernel for %T", a)
}

// MultiplyVec computes y = A × x: Multiply at k = 1 over the caller's
// slices, viewed without copying as one-column panels, so a vector gets
// every format and every Spec the lattice has. A len(x) or len(y) that
// does not match A's shape is ErrShape, as for any panel.
func MultiplyVec(a formats.Sparse, x, y []float64, s Spec) error {
	b := &matrix.Dense[float64]{Rows: len(x), Cols: 1, Stride: 1, Data: x}
	c := &matrix.Dense[float64]{Rows: len(y), Cols: 1, Stride: 1, Data: y}
	return Multiply(a, b, c, 1, s)
}
