package serve

import (
	"context"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/matrix"
	"repro/internal/trace"
)

// batcher is one matrix's open batch: the server coalesces concurrent
// multiply requests against the matrix into a single wider-k kernel
// dispatch. SpMM throughput grows with k (the B-panel width) because every
// loaded nonzero of A is reused across all k columns —
// so stacking the B panels of requests that arrive within a short window
// and running one A×[B1|B2|...] multiplies the arithmetic intensity of the
// dispatch at the cost of one panel copy (the gather; results go back as
// column views of the wide C). The window is the classic
// latency/throughput trade: a solo request waits out the window before it
// runs; a loaded server amortizes one kernel launch over the whole batch.
type batcher struct {
	mu       sync.Mutex
	pending  []*batchRequest
	pendingK int
	timer    clock.Timer
}

// batchRequest is one caller's panel waiting in the batch. done is buffered
// so the flusher never blocks on a caller that gave up (deadline expired).
// The whole Serving view travels together: the kernel was prepared under
// exactly that plan version, so a promotion landing mid-batch cannot mix a
// new plan's parameters with an old plan's format — and the epoch + overlay
// pin which mutation state the dispatch computes. b is the batch's own
// reference to the panel: the handler may leave on its deadline mid-dispatch.
type batchRequest struct {
	sv   Serving
	b    *Lease
	k    int
	done chan batchResult
	// req is the caller's request-trace timeline (nil when request tracing
	// is off); joined is the caller's own clock at join time, so the flusher
	// can attribute the batch wait and fan the dispatch's kernel interval
	// out to every member's record.
	req    *trace.Req
	joined int64
}

// batchResult is what a flush hands back to each coalesced caller: c, its
// column view of the dispatch's C, under lease, its reference to that C.
type batchResult struct {
	c     *matrix.Dense[float64]
	lease *Lease
	plan  Plan // the plan the dispatch executed under
	width int  // requests coalesced into the dispatch
	k     int  // total dense columns of the dispatch
	err   error
}

// multiply runs one request through m's batcher. With batching disabled
// (window <= 0) or a panel already at the batch-width cap it dispatches
// immediately; otherwise it joins the open batch (starting the window timer
// if it is the first) and waits for the flush or the caller's deadline,
// whichever comes first.
func (s *Server) multiply(ctx context.Context, m *Matrix, sv Serving, b *Lease, k int, tr *trace.Req) batchResult {
	b.retain()
	req := &batchRequest{sv: sv, b: b, k: k, done: make(chan batchResult, 1), req: tr, joined: tr.Now()}
	if s.cfg.BatchWindow <= 0 || k >= s.cfg.MaxBatchK {
		s.runBatch(m, []*batchRequest{req})
		return <-req.done
	}
	t := &m.batch
	t.mu.Lock()
	// A mutation landing between two joiners' Prepared calls must not let
	// them share one dispatch: same-epoch requests are bitwise-exchangeable,
	// cross-epoch ones are not. Flush the stale-epoch batch immediately and
	// open a fresh one for this request.
	if len(t.pending) > 0 && t.pending[0].sv.Epoch != sv.Epoch {
		stale := t.takeLocked()
		go s.runBatch(m, stale)
	}
	t.pending = append(t.pending, req)
	t.pendingK += k
	if len(t.pending) == 1 {
		// The window timer comes from the server's injectable clock, so
		// tests script the coalescing window instead of sleeping on it.
		t.timer = s.clk.AfterFunc(s.cfg.BatchWindow, func() { s.flushPending(m) })
	}
	var full []*batchRequest
	if t.pendingK >= s.cfg.MaxBatchK {
		full = t.takeLocked()
	}
	t.mu.Unlock()
	if full != nil {
		s.runBatch(m, full)
	}
	select {
	case res := <-req.done:
		return res
	case <-ctx.Done():
		// The batch may still execute and discard this caller's column
		// block; the buffered done channel lets the flusher move on.
		return batchResult{err: ctx.Err()}
	}
}

// takeLocked claims the open batch and disarms its timer. Callers hold t.mu.
func (t *batcher) takeLocked() []*batchRequest {
	batch := t.pending
	t.pending = nil
	t.pendingK = 0
	if t.timer != nil {
		t.timer.Stop()
		t.timer = nil
	}
	return batch
}

// flushPending is the window-timer callback.
func (s *Server) flushPending(m *Matrix) {
	m.batch.mu.Lock()
	batch := m.batch.takeLocked()
	m.batch.mu.Unlock()
	if len(batch) > 0 {
		s.runBatch(m, batch)
	}
}

// runBatch dispatches one batch as a single kernel call — gather B, one
// Calculate, column views of C back to the callers — whatever its width.
func (s *Server) runBatch(m *Matrix, batch []*batchRequest) {
	totalK := 0
	for _, req := range batch {
		totalK += req.k
	}
	rows := m.COO.Rows
	cols := m.COO.Cols
	// The whole batch executes under the first member's Serving view; the
	// epoch-split in multiply() guarantees every member captured the same
	// epoch, so later joiners that captured a different (promoted) plan
	// still get a bitwise-identical result — every servable variant holds
	// the bitwise contract — just attributed to this dispatch's plan.
	sv := batch[0].sv
	kern := sv.Kernel
	plan := sv.Plan

	// dispatchAt anchors the members' request timelines: everything from
	// here to the kernel's return — panel assembly and overlay application
	// included — is the "kernel" phase fanned out to every joined request
	// below.
	dispatchAt := time.Now()
	span := s.tracer.Start()
	// Gather: a lone member's B is the dispatch's B; coalesced members' B
	// panels are stacked side by side into one wide panel. C is leased
	// unzeroed: kernels clear every row they write.
	combB := &batch[0].b.panel
	var gathered *Lease
	if len(batch) > 1 {
		gathered = leasePanel(cols, totalK)
		combB = &gathered.panel
		for i := 0; i < cols; i++ {
			dst := combB.Row(i)
			off := 0
			for _, req := range batch {
				copy(dst[off:off+req.k], req.b.panel.Row(i)[:req.k])
				off += req.k
			}
		}
	}
	wide := leasePanel(rows, totalK)
	combC := &wide.panel
	err := kern.Calculate(combB, combC, s.params(plan, totalK))
	// Mutated matrix: recompute the dirty rows from base + overlay on top of
	// the prepared format's result. On the clean path (nil or empty overlay)
	// this is a single branch — zero allocations, zero work.
	if err == nil && sv.Overlay.NNZ() > 0 {
		applyStart := time.Now()
		sv.Overlay.Apply(combC, combB, totalK)
		applyNs := int64(time.Since(applyStart))
		m.applyNs.Add(applyNs)
		s.applySeconds.Observe(float64(applyNs) / 1e9)
		if s.reg.shouldCompact(m, s.costModel) {
			s.requestCompact(m)
		}
	}
	gathered.Release()
	s.tracer.EndDetail(0, trace.PhaseBatch, plan.Format, span, int64(len(batch)))
	s.countVariant(plan.Variant, int64(len(batch)))
	kernelNs := int64(time.Since(dispatchAt))

	s.batches.Inc()
	s.batchedRequests.Add(int64(len(batch)))
	s.multiplies.Add(int64(len(batch)))
	s.batchWidth.Observe(float64(len(batch)))

	// Fan out: every member gets the dispatch's interval on its timeline and
	// its column block of the dispatch's C as a view — no copy-out. A lone
	// member's view is the whole compact panel, so it leaves the server as
	// its own wire form; a coalesced member's strided view is encoded once,
	// straight to the socket. A kernel error reaches every member through the
	// same loop.
	for range batch[1:] {
		wide.retain()
	}
	off := 0
	for _, req := range batch {
		req.b.Release()
		if req.req != nil {
			at := req.req.At(dispatchAt)
			req.req.AddPhase(trace.PhaseBatch, plan.Format, req.joined, max(at-req.joined, 0), int64(len(batch)))
			req.req.AddPhase(trace.PhaseKernel, plan.Variant, at, kernelNs, int64(totalK))
		}
		res := batchResult{lease: wide, plan: plan, width: len(batch), k: totalK, err: err}
		if err == nil {
			res.c, res.err = combC.View(0, off, rows, req.k)
		}
		off += req.k
		req.done <- res
	}
}
