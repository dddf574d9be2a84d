// Package trace is the suite's observability substrate: a zero-dependency,
// low-overhead span tracer that attributes a campaign's wall time to phases
// (load / prepare / calculate / verify), to harness recovery machinery
// (attempts, retries, backoff, degradation) and to individual parallel
// workers (per-chunk spans, exposing load imbalance visually) — the same
// per-phase attribution a roofline analyzer gives a C kernel, but for the
// whole pipeline.
//
// Design constraints, in order:
//
//   - Disabled tracing must be free: 0 allocs/op and a handful of
//     instructions on the hot path (a nil check or one atomic load). The
//     kernels' zero-allocation audit covers the tracer-disabled paths.
//   - The enabled hot path takes no locks: every span lands in a per-lane
//     ring buffer; a lane is owned by one worker at a time (the worker-id
//     contract of internal/parallel), and slot reservation is a single
//     atomic add, so concurrent lanes never contend.
//   - One schema for real and simulated time: simulator spans (gpusim,
//     machine) carry the Sim mark and their own nanosecond timeline, and
//     export under a separate Chrome-trace process so wall-clock and
//     modelled time never interleave on one timeline.
//
// Spans export as Chrome trace_event JSON (load in chrome://tracing or
// https://ui.perfetto.dev) or aggregate into a flat per-phase Summary.
package trace

import (
	"sort"
	"sync/atomic"
	"time"
)

// Span is one recorded interval (or instant, when Dur is 0 and the name is
// an event name). Times are nanoseconds since the tracer's epoch; simulated
// spans (Sim true) count nanoseconds of modelled time instead.
type Span struct {
	// Name is the phase name — one of the pinned set in Phases for
	// pipeline spans (the golden schema test enforces this).
	Name string
	// Detail refines the name with the concrete subject (kernel name,
	// matrix, error class). Free-form; not part of the pinned schema.
	Detail string
	// Lane is the ring-buffer index the span was recorded on: 0 for the
	// sequential pipeline, 1+w for parallel worker w.
	Lane int
	// Start and Dur are nanoseconds since the tracer epoch (or simulated
	// nanoseconds for Sim spans).
	Start int64
	Dur   int64
	// Arg is an optional numeric payload (rows in a chunk, attempt
	// number, modelled cycles).
	Arg int64
	// Sim marks a simulated-time span (gpusim / machine models).
	Sim bool
}

// Pinned pipeline phase names. Spans wired by this repository use these
// names (plus free-form Detail); the trace-schema golden test fails when a
// new span name ships without being added here.
const (
	PhaseLoad      = "load"       // matrix load/generation (CLI)
	PhasePrepare   = "prepare"    // Kernel.Prepare (format conversion)
	PhaseWarmup    = "warmup"     // untimed warm-up Calculate
	PhaseCalculate = "calculate"  // one timed Calculate repetition
	PhaseVerify    = "verify"     // COO-reference verification
	PhaseKernel    = "kernel"     // one parallel kernels dispatch
	PhaseChunk     = "chunk"      // one parallel worker's chunk
	PhaseAttempt   = "attempt"    // one harness attempt (core.Run inside)
	PhaseBackoff   = "backoff"    // harness retry backoff sleep
	PhaseRetry     = "retry"      // instant: a retry was granted
	PhaseDegrade   = "degrade"    // instant: budget degradation substituted a kernel
	PhaseSkip      = "skip"       // instant: journal resume skipped a run
	PhaseSimKernel = "sim-kernel" // simulated-time kernel execution (gpusim/machine)
	PhaseSimChunk  = "sim-chunk"  // simulated-time per-thread chunk (machine.Multicore)
	PhaseBatch     = "batch"      // one coalesced serving-layer dispatch (internal/serve)

	// Request-scoped phases (distributed tracing, internal/serve +
	// internal/cluster). They appear both on Tracer lanes and in per-request
	// ReqRecord timelines.
	PhaseQueue         = "queue"          // admission-queue wait before a multiply runs
	PhaseAttemptRemote = "attempt-remote" // one router->replica proxy attempt (detail: "replica verdict")
	PhaseRespond       = "respond"        // response encode + write back to the client
	PhaseMutate        = "mutate"         // one applied mutation batch (internal/serve, detail: matrix id)
	PhaseCompact       = "compact"        // one overlay compaction: merge + re-prepare + swap
)

// Phases lists every pinned phase name; the golden schema test pins
// pipeline traces to this set.
func Phases() []string {
	return []string{
		PhaseLoad, PhasePrepare, PhaseWarmup, PhaseCalculate, PhaseVerify,
		PhaseKernel, PhaseChunk, PhaseAttempt, PhaseBackoff, PhaseRetry,
		PhaseDegrade, PhaseSkip, PhaseSimKernel, PhaseSimChunk, PhaseBatch,
		PhaseQueue, PhaseAttemptRemote, PhaseRespond,
		PhaseMutate, PhaseCompact,
	}
}

// lane is one ring buffer. Only one worker writes a lane at a time (the
// worker-id contract), so the atomic counter is for cross-region visibility
// and safe draining, not for write contention.
type lane struct {
	n   atomic.Int64 // spans ever recorded on this lane
	buf []Span
	// pad keeps adjacent lanes' counters off one cache line so workers
	// bumping their own counters never false-share.
	_ [48]byte
}

// Tracer records spans into per-lane ring buffers. The zero value and the
// nil pointer are valid, permanently-disabled tracers: every method is
// nil-safe and free when disabled, so pipeline code holds a *Tracer
// unconditionally and never branches on configuration.
type Tracer struct {
	enabled atomic.Bool
	epoch   time.Time
	lanes   []*lane
	dropped atomic.Int64
	simNow  atomic.Int64 // simulated-time cursor (ns), see SimAdvance
}

// New builds a tracer with the given number of lanes (1 sequential lane +
// one per parallel worker is the usual sizing) and ring capacity per lane.
// The tracer starts disabled; call SetEnabled(true) to record.
func New(lanes, capacity int) *Tracer {
	if lanes < 1 {
		lanes = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	t := &Tracer{epoch: time.Now(), lanes: make([]*lane, lanes)}
	for i := range t.lanes {
		t.lanes[i] = &lane{buf: make([]Span, capacity)}
	}
	return t
}

// SetEnabled switches recording on or off. Spans recorded so far are kept.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Enabled reports whether the tracer records. Nil tracers are disabled.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Now returns nanoseconds since the tracer epoch (0 for nil tracers).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// Start opens a span: it returns the current monotonic offset when the
// tracer records, and 0 when disabled — End treats a 0 token as "nothing
// was started", so the Start/End pair is free end to end when tracing is
// off. The +1 below keeps a span genuinely started at offset 0 (the first
// nanosecond of the epoch) from being confused with the disabled token;
// one nanosecond of skew is far below timer resolution.
func (t *Tracer) Start() int64 {
	if !t.Enabled() {
		return 0
	}
	n := int64(time.Since(t.epoch))
	if n == 0 {
		n = 1
	}
	return n
}

// End closes a span opened by Start, recording it on the lane. A 0 start
// token (disabled at Start time) is a no-op, as is a disabled or nil
// tracer. Lanes out of range count as dropped.
func (t *Tracer) End(laneIdx int, name string, start int64, arg int64) {
	if start == 0 || !t.Enabled() {
		return
	}
	now := int64(time.Since(t.epoch))
	t.push(laneIdx, Span{Name: name, Lane: laneIdx, Start: start, Dur: now - start, Arg: arg})
}

// EndDetail is End with a Detail refinement (kernel name, matrix, class).
func (t *Tracer) EndDetail(laneIdx int, name, detail string, start int64, arg int64) {
	if start == 0 || !t.Enabled() {
		return
	}
	now := int64(time.Since(t.epoch))
	t.push(laneIdx, Span{Name: name, Detail: detail, Lane: laneIdx, Start: start, Dur: now - start, Arg: arg})
}

// Instant records a zero-duration event at the current time.
func (t *Tracer) Instant(laneIdx int, name, detail string, arg int64) {
	if !t.Enabled() {
		return
	}
	now := int64(time.Since(t.epoch))
	t.push(laneIdx, Span{Name: name, Detail: detail, Lane: laneIdx, Start: now, Arg: arg})
}

// Add records a span with explicit timestamps — the escape hatch for
// callers that measured the interval themselves.
func (t *Tracer) Add(laneIdx int, name, detail string, start, dur, arg int64) {
	if !t.Enabled() {
		return
	}
	t.push(laneIdx, Span{Name: name, Detail: detail, Lane: laneIdx, Start: start, Dur: dur, Arg: arg})
}

// AddSim records a simulated-time span with explicit modelled timestamps.
// Simulated spans live on their own timeline (Chrome-trace pid 2), so the
// simulators emit the same schema as real runs without their modelled
// nanoseconds colliding with wall-clock offsets.
func (t *Tracer) AddSim(laneIdx int, name, detail string, start, dur, arg int64) {
	if !t.Enabled() {
		return
	}
	t.push(laneIdx, Span{Name: name, Detail: detail, Lane: laneIdx, Start: start, Dur: dur, Arg: arg, Sim: true})
}

// SimNow returns the simulated-time cursor in nanoseconds. Simulators call
// SimAdvance after each modelled kernel so consecutive simulated spans lay
// out sequentially, mirroring how the modelled executions would follow one
// another on the device.
func (t *Tracer) SimNow() int64 {
	if t == nil {
		return 0
	}
	return t.simNow.Load()
}

// SimAdvance moves the simulated-time cursor forward by dur nanoseconds and
// returns the span's start (the cursor before the advance).
func (t *Tracer) SimAdvance(dur int64) int64 {
	if t == nil {
		return 0
	}
	return t.simNow.Add(dur) - dur
}

// push stores a span on its lane's ring. Slot reservation is one atomic
// add; the ring keeps the most recent `capacity` spans and counts overwrites
// of still-unread history implicitly via the lane counter (Spans reports
// only the surviving window; Dropped counts out-of-range lanes).
func (t *Tracer) push(laneIdx int, s Span) {
	if laneIdx < 0 || laneIdx >= len(t.lanes) {
		t.dropped.Add(1)
		return
	}
	l := t.lanes[laneIdx]
	i := l.n.Add(1) - 1
	l.buf[i%int64(len(l.buf))] = s
}

// Dropped reports spans lost to out-of-range lane indices.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Len reports the number of spans currently held (post-wrap survivors).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, l := range t.lanes {
		n += int(min64(l.n.Load(), int64(len(l.buf))))
	}
	return n
}

// Spans snapshots every recorded span, ordered by start time (wall-clock
// spans first, then simulated). Call it after the traced work has
// quiesced; it is not synchronised against concurrent recording beyond the
// lane counters.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, t.Len())
	for _, l := range t.lanes {
		n := l.n.Load()
		kept := min64(n, int64(len(l.buf)))
		// Oldest surviving span first.
		for i := n - kept; i < n; i++ {
			out = append(out, l.buf[i%int64(len(l.buf))])
		}
	}
	sortSpans(out)
	return out
}

// sortSpans orders wall-clock spans before simulated ones, then by start
// time, then by lane — a stable layout for exporters and tests.
func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Sim != b.Sim {
			return !a.Sim
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Lane != b.Lane {
			return a.Lane < b.Lane
		}
		return a.Dur > b.Dur // parents (longer) before children at equal start
	})
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
