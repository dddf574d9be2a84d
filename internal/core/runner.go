package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Run benchmarks one kernel on one matrix: Prepare is timed as the
// formatting cost, the calculation runs once untimed as warm-up and then
// p.Reps timed repetitions, the result is verified against the COO
// reference kernel when p.Verify is set, and FLOPS are derived from the
// logical nonzero count exactly as the thesis' suite reports them (§4.3).
//
// The dense B operand is generated deterministically from p.Seed, matching
// the suite's auto-generated B. Transposed kernels receive Bᵀ, and the
// transposition is performed inside every timed repetition — Study 8
// explicitly charges the transpose against the kernel.
func Run(k Kernel, a *matrix.COO[float64], matrixName string, p Params) (Result, error) {
	if p.K == 0 {
		p.K = DefaultParams().K
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if err := a.Validate(); err != nil {
		return Result{}, fmt.Errorf("core: input matrix: %w", err)
	}
	if err := p.Context().Err(); err != nil {
		return Result{}, fmt.Errorf("core: %s: %w", k.Name(), err)
	}

	obsRuns.Inc()
	res := Result{
		Kernel:  k.Name(),
		Format:  k.Format(),
		Mode:    k.Mode().String(),
		Matrix:  matrixName,
		K:       p.K,
		Threads: p.Threads,
		Block:   p.BlockSize,
	}

	span := p.Trace.Start()
	start := time.Now()
	if err := k.Prepare(a, p); err != nil {
		return Result{}, fmt.Errorf("core: %s: prepare: %w", k.Name(), err)
	}
	p.Trace.EndDetail(0, trace.PhasePrepare, k.Name(), span, int64(a.NNZ()))
	res.FormatSeconds = time.Since(start).Seconds()
	res.FormatBytes = k.Bytes()

	b := matrix.NewDenseRand[float64](a.Cols, p.K, p.Seed)
	c := matrix.NewDense[float64](a.Rows, p.K)

	operand := b
	if k.Transposed() {
		operand = b.Transpose()
	}

	model, isModel := k.(ModelTimed)
	reps := p.Reps
	if isModel {
		// Simulated kernels are deterministic: one execution is the
		// measurement; warm-up and repetition would only burn host time.
		reps = 1
	} else {
		// Warm-up (untimed), also surfacing calculation errors early.
		span = p.Trace.Start()
		if err := k.Calculate(operand, c, p); err != nil {
			return Result{}, fmt.Errorf("core: %s: calculate: %w", k.Name(), err)
		}
		p.Trace.EndDetail(0, trace.PhaseWarmup, k.Name(), span, 0)
	}

	var total, minSec float64
	for rep := 0; rep < reps; rep++ {
		if err := p.Context().Err(); err != nil {
			return Result{}, fmt.Errorf("core: %s: rep %d: %w", k.Name(), rep, err)
		}
		var secs float64
		span = p.Trace.Start()
		if k.Transposed() {
			// The transpose is part of the measured work.
			t0 := time.Now()
			operand = b.Transpose()
			if err := k.Calculate(operand, c, p); err != nil {
				return Result{}, fmt.Errorf("core: %s: calculate: %w", k.Name(), err)
			}
			secs = time.Since(t0).Seconds()
		} else {
			t0 := time.Now()
			if err := k.Calculate(operand, c, p); err != nil {
				return Result{}, fmt.Errorf("core: %s: calculate: %w", k.Name(), err)
			}
			secs = time.Since(t0).Seconds()
		}
		p.Trace.EndDetail(0, trace.PhaseCalculate, k.Name(), span, int64(rep))
		if isModel {
			secs = model.ModelSeconds()
		}
		obsReps.Inc()
		obsCalcSeconds.Observe(secs)
		total += secs
		if rep == 0 || secs < minSec {
			minSec = secs
		}
	}
	res.AvgSeconds = total / float64(reps)
	res.MinSeconds = minSec
	res.MFLOPS = metrics.MFLOPS(kernels.SpMMFlops(a.NNZ(), p.K), res.AvgSeconds)

	if p.Verify {
		if err := p.Context().Err(); err != nil {
			return Result{}, fmt.Errorf("core: %s: verify: %w", k.Name(), err)
		}
		span = p.Trace.Start()
		defer func() { p.Trace.EndDetail(0, trace.PhaseVerify, k.Name(), span, 0) }()
		// The reference takes row-sorted triplets; a converter that does not
		// sort a in place (BCSR's, say) leaves it as it was read.
		sorted := a
		if !a.IsSortedRowMajor() {
			sorted = a.Clone()
			sorted.SortRowMajor()
		}
		ref := matrix.NewDense[float64](a.Rows, p.K)
		if err := kernels.COO(sorted, b, ref, p.K, kernels.Spec{Ctx: p.Ctx}); err != nil {
			return Result{}, fmt.Errorf("core: reference kernel: %w", err)
		}
		diff, err := c.MaxAbsDiff(ref)
		if err != nil {
			return Result{}, fmt.Errorf("core: verification: %w", err)
		}
		res.MaxAbsDiff = diff
		if !c.EqualTol(ref, matrix.DefaultTol[float64]()) {
			obsVerifyFailures.Inc()
			return res, fmt.Errorf("%w: %s on %s: max abs diff %g",
				ErrVerify, k.Name(), matrixName, diff)
		}
		res.Verified = true
	}
	return res, nil
}

// RunCtx is Run with a context governing the whole benchmark: the runner
// checks ctx between repetitions and around Prepare/verify, and the CPU
// kernels check it inside their row loops. The returned
// error wraps ctx.Err() when the run was cut short.
func RunCtx(ctx context.Context, k Kernel, a *matrix.COO[float64], matrixName string, p Params) (Result, error) {
	p.Ctx = ctx
	return Run(k, a, matrixName, p)
}

// BestThreads runs a parallel kernel once per entry of p.ThreadList and
// returns the per-count results plus the index of the winner (highest
// MFLOPS) — the Study 3.1 sweep feature. An empty ThreadList is an error.
//
// One failing thread count does not abort the sweep: the failure is
// recorded in that entry's Result.Err and the remaining counts still run.
// The winner is picked among the successful counts; only when every count
// fails does BestThreads return an error (joining the per-count causes).
func BestThreads(k Kernel, a *matrix.COO[float64], matrixName string, p Params) (best int, all []Result, err error) {
	if len(p.ThreadList) == 0 {
		return 0, nil, fmt.Errorf("core: BestThreads needs a non-empty ThreadList")
	}
	all = make([]Result, 0, len(p.ThreadList))
	best = -1
	var errs []error
	for i, threads := range p.ThreadList {
		q := p
		q.Threads = threads
		r, runErr := Run(k, a, matrixName, q)
		if runErr != nil {
			errs = append(errs, fmt.Errorf("threads=%d: %w", threads, runErr))
			r = Result{Kernel: k.Name(), Format: k.Format(), Mode: k.Mode().String(),
				Matrix: matrixName, K: q.K, Threads: threads, Block: q.BlockSize,
				Err: runErr.Error()}
			all = append(all, r)
			continue
		}
		all = append(all, r)
		if best < 0 || r.MFLOPS > all[best].MFLOPS {
			best = i
		}
	}
	if best < 0 {
		return 0, all, fmt.Errorf("core: BestThreads: all %d thread counts failed: %w",
			len(p.ThreadList), errors.Join(errs...))
	}
	return best, all, nil
}
