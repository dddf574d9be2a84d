package parallel

import (
	"sync/atomic"

	"repro/internal/trace"
)

// tracer is the package-level span sink. A package-level hook (rather than a
// parameter on Run and RunBounds) keeps the region API unchanged for the
// kernels that call it; the cost when unset or disabled is one atomic load
// per region — not per piece — and zero allocations, preserving the
// kernels' zero-allocation audit.
var tracer atomic.Pointer[trace.Tracer]

// SetTracer installs (or, with nil, removes) the tracer that receives
// per-worker chunk spans from every region a Pool runs. Chunk spans
// land on lane worker+1 (lane 0 belongs to the sequential pipeline) with the
// chunk's iteration count as the span argument, which is what makes load
// imbalance visible as ragged lane ends in the Chrome trace.
func SetTracer(t *trace.Tracer) { tracer.Store(t) }

// traceBody wraps body with chunk-span recording when a tracer is installed
// and enabled; otherwise it returns body untouched (no closure, no alloc).
func traceBody(body func(lo, hi, worker int)) func(lo, hi, worker int) {
	t := tracer.Load()
	if !t.Enabled() {
		return body
	}
	return func(lo, hi, worker int) {
		s := t.Start()
		body(lo, hi, worker)
		t.End(worker+1, trace.PhaseChunk, s, int64(hi-lo))
	}
}
