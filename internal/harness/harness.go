package harness

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config controls a campaign's resilience features. The zero value runs
// with everything disabled — no timeout, no retries, no budget, no journal
// — which makes the harness behave like a panic-contained core.Run loop.
type Config struct {
	// Timeout bounds each attempt; 0 disables. Cancellation-aware kernels
	// (CSR, COO) stop cooperatively; others are abandoned after a short
	// grace period and their goroutine drains in the background.
	Timeout time.Duration
	// Retries is the number of extra attempts granted to transient
	// failures. Deterministic failures (panic, verify, timeout) and
	// simulated kernels (core.ModelTimed) are never retried.
	Retries int
	// Backoff shapes the retry delays; the zero value means
	// DefaultBackoff.
	Backoff Backoff
	// MemBudget is the per-run formatted-footprint budget in bytes;
	// 0 disables the guard. Over-budget formats degrade along
	// Fallback's chain (padded/blocked → csr → coo) before failing.
	MemBudget int64
	// Journal is the JSONL checkpoint path; "" disables journaling.
	Journal string
	// JournalNoSync skips the per-append journal fsync (crash-durable by
	// default; opt out on fsync-bound disks).
	JournalNoSync bool
	// Resume skips (and replays from the journal) runs already recorded.
	Resume bool
	// Seed drives backoff jitter deterministically.
	Seed int64
	// Injector injects test faults; nil in production.
	Injector *Injector
	// Logger, when non-nil, receives structured progress records (the
	// CLIs pass their -log-format/-log-level logger here); nil discards
	// them.
	Logger *slog.Logger
	// Trace, when non-nil and enabled, receives recovery-machinery spans
	// (attempt/backoff intervals, retry/degrade/skip instants on lane 0)
	// and is forwarded to core.Params so the benchmark phases of
	// harness-driven runs land in the same trace.
	Trace *trace.Tracer
}

// Spec identifies one run of a campaign plan.
type Spec struct {
	// Kernel is the registry kernel name.
	Kernel string
	// Matrix is the display/journal name of the matrix.
	Matrix string
	// Load produces the COO matrix. The harness caches the result per
	// Matrix name, so cross products over kernels pay the load once.
	Load func() (*matrix.COO[float64], error)
	// Opts carries kernel construction options (GPU device, ELL layout).
	Opts core.Options
	// Params are the benchmark parameters for this run.
	Params core.Params
}

// id builds the campaign-unique run identity. It includes the matrix's
// dimensions and nonzero count so the same name at a different scale never
// aliases in the journal.
func (s Spec) id(m *matrix.COO[float64]) string {
	p := s.Params
	return fmt.Sprintf("%s|%s|%dx%d+%d|k%d|t%d|b%d|n%d|s%d",
		s.Kernel, s.Matrix, m.Rows, m.Cols, m.NNZ(),
		p.K, p.Threads, p.BlockSize, p.Reps, p.Seed)
}

// Outcome is the harness's per-run verdict.
type Outcome struct {
	Spec Spec
	// ID is the journal identity of the run ("" if the matrix failed to
	// load before an ID could be formed).
	ID string
	// Status is one of StatusOK, StatusDegraded, StatusFailed,
	// StatusSkipped.
	Status string
	// RanKernel is the kernel actually executed (differs from Spec.Kernel
	// after degradation).
	RanKernel string
	// Result is valid when Status is ok/degraded, or skipped with a
	// journaled result.
	Result core.Result
	// Err is the final *RunError for failed runs.
	Err error
	// Attempts is how many attempts were made (0 for skipped runs).
	Attempts int
}

// Harness executes campaign plans with per-run containment and recovery.
type Harness struct {
	cfg Config
	// Campaign tallies, in the order Counters reports them. Per harness:
	// the process-wide view is the spmm_harness_* series in obs.go.
	ok, retried, degraded, skipped, failed atomic.Int64

	journal  *Journal
	done     map[string]Record
	rng      *rand.Rand
	matrices map[string]*matrix.COO[float64]
	// log is the structured progress logger; nil discards records.
	log *slog.Logger
	// sleep is time.Sleep, replaceable by tests.
	sleep func(time.Duration)
}

// New builds a harness, loading the journal's completed runs when resuming.
func New(cfg Config) (*Harness, error) {
	h := &Harness{
		cfg:      cfg,
		log:      cfg.Logger,
		done:     map[string]Record{},
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		matrices: map[string]*matrix.COO[float64]{},
		sleep:    time.Sleep,
	}
	if cfg.Resume && cfg.Journal != "" {
		recs, torn, err := ReadJournalTorn(cfg.Journal)
		if err != nil {
			return nil, err
		}
		if torn && h.log != nil {
			h.log.Warn("journal: skipped torn trailing record on resume",
				slog.String("path", cfg.Journal))
		}
		h.done = CompletedIDs(recs)
	}
	if cfg.Journal != "" {
		j, err := OpenJournalOpts(cfg.Journal, JournalOpts{NoSync: cfg.JournalNoSync, Log: h.log, Injector: cfg.Injector})
		if err != nil {
			return nil, err
		}
		h.journal = j
	}
	return h, nil
}

// Close releases the journal.
func (h *Harness) Close() error {
	if h.journal != nil {
		return h.journal.Close()
	}
	return nil
}

// Counters reports the campaign tallies in rendering order.
func (h *Harness) Counters() []metrics.CounterValue {
	return []metrics.CounterValue{
		{Name: "ok", Value: h.ok.Load()},
		{Name: "retried", Value: h.retried.Load()},
		{Name: "degraded", Value: h.degraded.Load()},
		{Name: "skipped", Value: h.skipped.Load()},
		{Name: "failed", Value: h.failed.Load()},
	}
}

// logInfo and logWarn emit one structured progress record; both are no-ops
// without a configured logger. ctx may carry campaign attributes installed
// with obs.WithLogAttrs.
func (h *Harness) logInfo(ctx context.Context, msg string, args ...any) {
	if h.log != nil {
		h.log.InfoContext(ctx, msg, args...)
	}
}

func (h *Harness) logWarn(ctx context.Context, msg string, args ...any) {
	if h.log != nil {
		h.log.WarnContext(ctx, msg, args...)
	}
}

// Execute runs the whole plan sequentially — timed runs must not overlap —
// and never aborts the campaign for a single run's failure. ctx cancels the
// campaign between runs, and (combined with the per-run timeout) inside
// them. The outcomes collected so far are returned alongside ctx.Err().
func (h *Harness) Execute(ctx context.Context, plan []Spec) ([]Outcome, error) {
	outs := make([]Outcome, 0, len(plan))
	for _, s := range plan {
		if err := ctx.Err(); err != nil {
			return outs, err
		}
		outs = append(outs, h.RunOne(ctx, s))
	}
	return outs, nil
}

// matrixFor loads (or returns the cached) matrix of a spec.
func (h *Harness) matrixFor(s Spec) (*matrix.COO[float64], error) {
	if m, ok := h.matrices[s.Matrix]; ok {
		return m, nil
	}
	if s.Load == nil {
		return nil, fmt.Errorf("harness: spec %s/%s has no matrix loader", s.Kernel, s.Matrix)
	}
	m, err := s.Load()
	if err != nil {
		return nil, err
	}
	h.matrices[s.Matrix] = m
	return m, nil
}

// RunOne executes a single spec with the full recovery pipeline: resume
// skip, budget degradation, panic containment, timeout, retry with
// backoff, journaling and counting.
func (h *Harness) RunOne(ctx context.Context, s Spec) Outcome {
	m, err := h.matrixFor(s)
	if err != nil {
		out := Outcome{Spec: s, Status: StatusFailed, RanKernel: s.Kernel, Attempts: 1,
			Err: &RunError{RunID: s.Kernel + "|" + s.Matrix, Class: ClassFatal, Attempt: 1, Err: err}}
		h.record(out)
		return out
	}
	return h.runLoaded(ctx, s, m)
}

// runLoaded is RunOne past the matrix-loading step.
func (h *Harness) runLoaded(ctx context.Context, s Spec, m *matrix.COO[float64]) Outcome {
	id := s.id(m)
	if s.Params.Trace == nil {
		s.Params.Trace = h.cfg.Trace
	}
	ctx = obs.WithLogAttrs(ctx,
		slog.String("kernel", s.Kernel), slog.String("matrix", s.Matrix))

	if rec, ok := h.done[id]; ok {
		h.skipped.Add(1)
		countOutcome(StatusSkipped)
		h.cfg.Trace.Instant(0, trace.PhaseSkip, id, 0)
		h.logInfo(ctx, "skip: already journaled", "run", id, "status", rec.Status)
		out := Outcome{Spec: s, ID: id, Status: StatusSkipped, RanKernel: rec.Kernel}
		if rec.Substituted != "" {
			out.RanKernel = rec.Substituted
		}
		if rec.Result != nil {
			out.Result = *rec.Result
		}
		return out
	}

	kernelName, degraded, budgetErr := h.applyBudget(s, m)
	if budgetErr != nil {
		out := Outcome{Spec: s, ID: id, Status: StatusFailed, RanKernel: s.Kernel, Attempts: 1,
			Err: &RunError{RunID: id, Class: ClassOverBudget, Attempt: 1, Err: budgetErr}}
		h.record(out)
		return out
	}

	maxAttempts := 1 + max(0, h.cfg.Retries)
	var lastErr error
	attempts := 0
	for attempts < maxAttempts {
		attempts++
		k, err := core.New(kernelName, s.Opts)
		if err != nil {
			lastErr = err
			break
		}
		// Simulated kernels are deterministic: a failure cannot be
		// transient, so retrying only burns host time (see DESIGN.md).
		_, isModel := k.(core.ModelTimed)
		k = h.cfg.Injector.Wrap(id, k)

		span := h.cfg.Trace.Start()
		res, err := h.safeRun(ctx, k, m, s.Matrix, s.Params)
		h.cfg.Trace.EndDetail(0, trace.PhaseAttempt, id, span, int64(attempts))
		if err == nil {
			status := StatusOK
			if degraded {
				status = StatusDegraded
			}
			out := Outcome{Spec: s, ID: id, Status: status, RanKernel: kernelName,
				Result: res, Attempts: attempts}
			h.record(out)
			return out
		}
		lastErr = err
		class := Classify(err)
		h.logWarn(ctx, "attempt failed", "run", id,
			"attempt", attempts, "max", maxAttempts, "class", class.String(), "err", err)
		if !class.Retryable() || isModel || attempts >= maxAttempts {
			break
		}
		if attempts == 1 {
			h.retried.Add(1)
		}
		obsRetries.Inc()
		h.cfg.Trace.Instant(0, trace.PhaseRetry, class.String(), int64(attempts))
		delay := h.cfg.Backoff.Delay(attempts, h.rng)
		obsBackoffSeconds.Observe(delay.Seconds())
		span = h.cfg.Trace.Start()
		h.sleep(delay)
		h.cfg.Trace.End(0, trace.PhaseBackoff, span, int64(attempts))
	}

	out := Outcome{Spec: s, ID: id, Status: StatusFailed, RanKernel: kernelName,
		Attempts: attempts, Err: h.asRunError(id, attempts, lastErr)}
	h.record(out)
	return out
}

// applyBudget walks the degradation chain until the estimated footprint
// fits. It returns the kernel to run, whether a substitution happened, and
// an error when even COO would not fit.
func (h *Harness) applyBudget(s Spec, m *matrix.COO[float64]) (string, bool, error) {
	kernelName := s.Kernel
	if h.cfg.MemBudget <= 0 {
		return kernelName, false, nil
	}
	props := metrics.Compute(m)
	format := FormatOf(kernelName)
	degraded := false
	for {
		est := EstimateBytes(format, props, s.Params.BlockSize)
		if est <= h.cfg.MemBudget {
			break
		}
		fb, ok := Fallback(format)
		if !ok {
			return kernelName, degraded, fmt.Errorf("%w: %s on %s needs ~%s, budget %s, no fallback left",
				ErrOverBudget, format, s.Matrix, FormatBytesHuman(est), FormatBytesHuman(h.cfg.MemBudget))
		}
		next := fallbackKernel(kernelName, format, fb)
		obsDegrades.Inc()
		h.cfg.Trace.Instant(0, trace.PhaseDegrade, format+"->"+fb, 0)
		h.logInfo(context.Background(), "degrade: format over budget",
			"kernel", s.Kernel, "matrix", s.Matrix, "format", format,
			"estimate", FormatBytesHuman(est),
			"budget", FormatBytesHuman(h.cfg.MemBudget), "fallback", next)
		kernelName, format, degraded = next, fb, true
	}
	return kernelName, degraded, nil
}

// safeRun executes one attempt with panic containment and the per-attempt
// timeout. The benchmark runs in its own goroutine; on deadline the harness
// waits a short grace period for the cooperative cancellation checks to
// fire, then abandons the goroutine (it parks on a buffered channel and
// exits on its own once the kernel returns).
func (h *Harness) safeRun(ctx context.Context, k core.Kernel, m *matrix.COO[float64],
	matrixName string, p core.Params) (core.Result, error) {
	runCtx := ctx
	if h.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, h.cfg.Timeout)
		defer cancel()
	}

	type reply struct {
		res core.Result
		err error
	}
	ch := make(chan reply, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- reply{err: &RunError{Class: ClassPanic, Stack: debug.Stack(),
					Err: fmt.Errorf("%v", r)}}
			}
		}()
		res, err := core.RunCtx(runCtx, k, m, matrixName, p)
		ch <- reply{res, err}
	}()

	select {
	case r := <-ch:
		return r.res, r.err
	case <-runCtx.Done():
		grace := time.NewTimer(250 * time.Millisecond)
		defer grace.Stop()
		select {
		case r := <-ch:
			return r.res, r.err
		case <-grace.C:
			h.logWarn(ctx, "abandoning unresponsive run",
				"kernel", k.Name(), "matrix", matrixName, "timeout", h.cfg.Timeout)
			return core.Result{}, &RunError{Class: ClassTimeout, Err: runCtx.Err()}
		}
	}
}

// asRunError normalises a final failure into a *RunError carrying the run
// identity and attempt count.
func (h *Harness) asRunError(id string, attempts int, err error) *RunError {
	var re *RunError
	if errors.As(err, &re) {
		re.RunID = id
		re.Attempt = attempts
		return re
	}
	return &RunError{RunID: id, Class: Classify(err), Attempt: attempts, Err: err}
}

// record journals and counts a terminal outcome.
func (h *Harness) record(out Outcome) {
	// The status counters partition terminal outcomes; "retried" is an
	// orthogonal tally kept by the retry loop.
	switch out.Status {
	case StatusFailed:
		h.failed.Add(1)
	case StatusDegraded:
		h.degraded.Add(1)
	default:
		h.ok.Add(1)
	}
	countOutcome(out.Status)
	if h.journal == nil {
		return
	}
	rec := Record{
		ID:       out.ID,
		Status:   out.Status,
		Kernel:   out.Spec.Kernel,
		Matrix:   out.Spec.Matrix,
		Attempts: out.Attempts,
	}
	if out.RanKernel != out.Spec.Kernel {
		rec.Substituted = out.RanKernel
	}
	if out.Err != nil {
		rec.Error = out.Err.Error()
		rec.Class = Classify(out.Err).String()
	} else {
		res := out.Result
		rec.Result = &res
	}
	if err := h.journal.Append(rec); err != nil {
		h.logWarn(context.Background(), "journal append failed", "err", err)
		return
	}
	lastAppend.Store(time.Now().UnixNano())
}

// Runner returns a drop-in replacement for core.Run for callers that drive
// their own matrix/kernel loop (spmmstudy). Containment, timeout, retry,
// budget degradation and journal replay all apply; unlike Execute, a failed
// run still returns its error, so the caller's own error handling keeps
// working — but a panic arrives as a typed error instead of crashing the
// process, and resumed runs replay instantly from the journal.
func (h *Harness) Runner() func(kernelName string, opts core.Options, m *matrix.COO[float64],
	matrixName string, p core.Params) (core.Result, error) {
	return func(kernelName string, opts core.Options, m *matrix.COO[float64],
		matrixName string, p core.Params) (core.Result, error) {
		// The matrix arrives pre-loaded, so the per-name cache is
		// bypassed: the same name at different scales must not alias.
		out := h.runLoaded(context.Background(), Spec{
			Kernel: kernelName,
			Matrix: matrixName,
			Opts:   opts,
			Params: p,
		}, m)
		if out.Err != nil {
			return out.Result, out.Err
		}
		return out.Result, nil
	}
}
