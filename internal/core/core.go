// Package core is the benchmark suite itself — the Go analogue of the
// thesis' C++ core library (§4.1). It defines the Kernel interface every
// format implementation satisfies (the "class" a custom format extends),
// the runtime parameters the CLI exposes, the benchmark runner with
// warm-up, repetition, COO-based verification and FLOPS reporting, and the
// best-thread-count sweep added for Study 3.1.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// ErrUnknownKernel is returned when a kernel name is not registered.
var ErrUnknownKernel = errors.New("core: unknown kernel")

// ErrNotPrepared is returned when Calculate runs before Prepare.
var ErrNotPrepared = errors.New("core: kernel not prepared")

// ErrVerify is returned when a kernel's output disagrees with the COO
// reference.
var ErrVerify = errors.New("core: verification failed")

// Mode classifies a kernel's execution environment.
type Mode uint8

const (
	Serial Mode = iota
	Parallel
	GPU
)

func (m Mode) String() string {
	switch m {
	case Parallel:
		return "omp" // the thesis labels CPU-parallel kernels "OMP"
	case GPU:
		return "gpu"
	default:
		return "serial"
	}
}

// Params are the suite's runtime parameters, mirroring the thesis CLI
// (§4.3): repetition count, thread count, block size, k-loop length, the
// thread-list sweep of Study 3.1, and a debug flag.
type Params struct {
	// Reps is the number of timed calculation calls ("-n").
	Reps int
	// Threads is the CPU-parallel thread count ("-t").
	Threads int
	// BlockSize is the BCSR/BELL block edge ("-b").
	BlockSize int
	// K is the k-loop length: how many columns of B/C are computed ("-k").
	K int
	// ThreadList, when non-empty, is the thread counts the best-thread
	// sweep tries (Study 3.1 feature).
	ThreadList []int
	// Verify compares the result against the COO reference kernel.
	Verify bool
	// Debug enables verbose reporting.
	Debug bool
	// Seed drives the deterministic generation of the dense B operand.
	Seed int64
	// Schedule selects the work partition of the CPU-parallel kernels:
	// ScheduleStatic (equal rows per worker — OpenMP static, the thesis'
	// baseline) or ScheduleBalanced (equal nonzeros per worker, for skewed
	// matrices). Serial and GPU kernels ignore it.
	Schedule kernels.Schedule
	// Pool is the persistent worker pool the CPU-parallel kernels run on. A
	// campaign creates one pool up front and every run reuses its warmed
	// workers; nil means parallel.Default(), the process pool.
	Pool *parallel.Pool
	// Ctx, when non-nil, cancels a run cooperatively: the runner checks it
	// between repetitions and around Prepare/verify, and every CPU kernel
	// checks it inside its row loop, serial or parallel, whatever the
	// schedule and pool. It rides in Params because the Kernel interface's
	// Calculate signature is fixed; nil means run to completion.
	Ctx context.Context
	// Trace, when non-nil and enabled, receives pipeline spans from the
	// runner (prepare/warmup/calculate/verify on lane 0) and is forwarded
	// to the parallel CPU kernels for per-dispatch spans. Nil is a valid,
	// free no-op — see internal/trace.
	Trace *trace.Tracer
}

// Context returns p.Ctx, or context.Background() when unset.
func (p Params) Context() context.Context {
	if p.Ctx == nil {
		return context.Background()
	}
	return p.Ctx
}

// DefaultParams returns the evaluation defaults of §5.1: k=128, 32 threads,
// BCSR block size 4.
func DefaultParams() Params {
	return Params{Reps: 5, Threads: 32, BlockSize: 4, K: 128, Verify: true, Seed: 1}
}

// Validate reports parameter problems.
func (p Params) Validate() error {
	if p.Reps < 1 {
		return fmt.Errorf("core: reps %d < 1", p.Reps)
	}
	if p.Threads < 1 {
		return fmt.Errorf("core: threads %d < 1", p.Threads)
	}
	if p.BlockSize < 1 {
		return fmt.Errorf("core: block size %d < 1", p.BlockSize)
	}
	if p.K < 0 {
		return fmt.Errorf("core: k %d < 0", p.K)
	}
	for _, t := range p.ThreadList {
		if t < 1 {
			return fmt.Errorf("core: thread list entry %d < 1", t)
		}
	}
	return nil
}

// Kernel is the interface every benchmarked kernel implements — the Go
// rendering of the thesis' C++ class whose "formatting and calculation
// functions ... will be specific to every format". A custom format plugs in
// by implementing this interface and registering a constructor.
type Kernel interface {
	// Name is the unique registry name, e.g. "csr-omp".
	Name() string
	// Format is the sparse format family: "coo", "csr", "ell", "bcsr", ...
	Format() string
	// Mode reports the execution environment.
	Mode() Mode
	// Transposed reports whether the kernel consumes Bᵀ (Study 8).
	Transposed() bool
	// Prepare converts the COO base representation into the kernel's
	// format (the per-format "formatting function"). It must be called
	// before Calculate and may be called again with a new matrix.
	Prepare(a *matrix.COO[float64], p Params) error
	// Bytes reports the formatted matrix's memory footprint
	// (future-work §6.3.5), valid after Prepare.
	Bytes() int
	// Calculate computes C[:, :k] = A × B[:, :k] (for transposed kernels
	// B is the kb×n transpose). It overwrites C's first k columns.
	Calculate(b, c *matrix.Dense[float64], p Params) error
}

// ModelTimed is implemented by kernels whose Calculate is a simulation
// (the GPU kernels): the runner reports the modelled seconds of the last
// Calculate call instead of host wall time.
type ModelTimed interface {
	ModelSeconds() float64
}

// Result is one benchmark outcome — the row the suite reports.
type Result struct {
	Kernel  string
	Format  string
	Mode    string
	Matrix  string
	K       int
	Threads int
	Block   int

	// FormatSeconds is the Prepare (formatting) time.
	FormatSeconds float64
	// AvgSeconds and MinSeconds summarise the timed Calculate calls.
	AvgSeconds float64
	MinSeconds float64
	// MFLOPS is 2*nnz*k / AvgSeconds / 1e6, the thesis' primary metric.
	MFLOPS float64
	// FormatBytes is the formatted matrix footprint.
	FormatBytes int
	// Verified is set when verification ran and passed.
	Verified bool
	// MaxAbsDiff is the worst deviation from the COO reference (when
	// verification ran).
	MaxAbsDiff float64
	// Err records a per-run failure message when a sweep or campaign keeps
	// going past an error (BestThreads, the harness journal); empty on
	// success.
	Err string
}
