package serve

import (
	"slices"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/matrix"
	"repro/internal/trace"
)

// batcher is one matrix's dispatch queue: the server coalesces concurrent
// multiply requests against the matrix into a single wider-k kernel
// dispatch. SpMM throughput grows with k (the B-panel width) because every
// loaded nonzero of A is reused across all k columns — so stacking the B
// panels of the requests that are waiting anyway and running one
// A×[B1|B2|...] multiplies the arithmetic intensity of the dispatch at the
// cost of one panel copy (the gather; results go back as column views of the
// wide C). Width follows load, not a clock: a request that finds no dispatch
// in flight dispatches at once, on its own handler goroutine; requests that
// arrive while one is in flight join pending and leave together, led by the
// oldest of them, the moment it returns. The kernel is never idle while a
// request waits, and an idle server adds nothing to a solo request.
type batcher struct {
	mu sync.Mutex
	// inflight counts the dispatches running now. pending is non-empty only
	// while it is positive: every dispatch that finishes claims pending.
	inflight int
	pending  []*batchRequest // oldest first
	pendingK int
	// timer bounds the wait behind a long dispatch (Config.BatchWindow); it
	// is armed exactly while pending is non-empty.
	timer clock.Timer
}

// batchRequest is one caller's panel in a dispatch. The whole Serving view
// travels together: the kernel was prepared under exactly that plan version,
// so a promotion landing mid-batch cannot mix a new plan's parameters with an
// old plan's format — and the epoch + overlay pin which mutation state the
// dispatch computes. b is the dispatch's own reference to the panel: a
// coalesced member's handler may leave on its deadline mid-dispatch.
type batchRequest struct {
	sv Serving
	b  *Lease
	k  int
	// turn is how a waiting member hears from the batcher, once: buffered, so
	// neither a leader nor a finishing dispatch ever blocks on a member that
	// gave up. nil for a request that never waited.
	turn chan batchTurn
	// req is the caller's request-trace timeline (nil when request tracing
	// is off); joined is when the caller started waiting (zero: it never
	// did), so the dispatch can attribute the batch wait and fan its kernel
	// interval out to every member's record.
	req    *trace.Req
	joined time.Time
}

// batchTurn is the one message a waiting member receives: lead, the batch it
// is to dispatch on its own goroutine as the oldest member, or else res, its
// result from the member that did.
type batchTurn struct {
	lead []*batchRequest
	res  batchResult
}

// batchResult is what a dispatch hands each member: c, its column view of
// the dispatch's C, under lease, its reference to that C.
type batchResult struct {
	c     *matrix.Dense[float64]
	lease *Lease
	plan  Plan // the plan the dispatch executed under
	width int  // requests coalesced into the dispatch
	k     int  // total dense columns of the dispatch
	err   error
}

// multiply runs one request through m's batcher. With batching disabled
// (window <= 0), a panel already at the batch-width cap, or no dispatch in
// flight it dispatches alone and takes the result by value; otherwise it
// joins pending and waits for its turn — to lead the batch or to be handed
// its result — or the caller's deadline, whichever comes first. Only a
// request that joins and finds no turn waiting arms the deadline.
func (s *Server) multiply(d *deadline, m *Matrix, sv Serving, b *Lease, k int, tr *trace.Req) batchResult {
	b.retain()
	lone := []*batchRequest{{sv: sv, b: b, k: k, req: tr}}
	if s.cfg.BatchWindow <= 0 || k >= s.cfg.MaxBatchK {
		return s.runBatch(m, lone)
	}
	t := &m.batch
	t.mu.Lock()
	if t.inflight == 0 {
		t.inflight = 1
		t.mu.Unlock()
		return s.lead(m, lone)
	}
	req := &batchRequest{sv: sv, b: b, k: k, turn: make(chan batchTurn, 1), req: tr, joined: time.Now()}
	// A mutation landing between two joiners' Prepared calls must not let
	// them share one dispatch: same-epoch requests are bitwise-exchangeable,
	// cross-epoch ones are not. The stale-epoch batch leaves at once and this
	// request opens a fresh one.
	if len(t.pending) > 0 && t.pending[0].sv.Epoch != sv.Epoch {
		t.leadLocked()
	}
	t.pending = append(t.pending, req)
	t.pendingK += k
	if len(t.pending) == 1 {
		// The batcher's only timer, armed only behind a dispatch already in
		// flight. It comes from the server's injectable clock, so tests
		// script the bound instead of sleeping on it.
		t.timer = s.clk.AfterFunc(s.cfg.BatchWindow, func() {
			t.mu.Lock()
			t.leadLocked()
			t.mu.Unlock()
		})
	}
	if t.pendingK >= s.cfg.MaxBatchK {
		t.leadLocked()
	}
	t.mu.Unlock()

	// The cap above may already have made this request the leader.
	select {
	case turn := <-req.turn:
		return s.take(m, turn)
	default:
	}
	ctx := d.wait()
	select {
	case turn := <-req.turn:
		return s.take(m, turn)
	case <-ctx.Done():
	}
	t.mu.Lock()
	left := t.removeLocked(req)
	t.mu.Unlock()
	if left {
		// Nobody will gather these columns: the batch's reference to B goes
		// with the caller.
		b.Release()
		return batchResult{err: ctx.Err()}
	}
	// A dispatch claimed the request before it could leave. If that made it
	// the leader its batch-mates are waiting on it, and if its result is in
	// it may as well have it: either turn was sent before this select. Else
	// its columns are being computed and it abandons them.
	select {
	case turn := <-req.turn:
		return s.take(m, turn)
	default:
		return batchResult{err: ctx.Err()}
	}
}

// take acts on a waiting member's turn: its result, or the batch it leads.
func (s *Server) take(m *Matrix, turn batchTurn) batchResult {
	if turn.lead == nil {
		return turn.res
	}
	return s.lead(m, turn.lead)
}

// lead runs one of the batcher's in-flight dispatches on the goroutine of
// its oldest member.
func (s *Server) lead(m *Matrix, batch []*batchRequest) batchResult {
	defer m.batch.retire()
	return s.runBatch(m, batch)
}

// retire ends one in-flight dispatch and hands whatever joined behind it on
// as the next.
func (t *batcher) retire() {
	t.mu.Lock()
	t.inflight--
	t.leadLocked()
	t.mu.Unlock()
}

// leadLocked claims pending as one dispatch, disarms the timer and wakes the
// oldest member to run it. Callers hold t.mu.
func (t *batcher) leadLocked() {
	batch := t.pending
	if len(batch) == 0 {
		return
	}
	t.pending = nil
	t.pendingK = 0
	t.timer.Stop()
	t.timer = nil
	t.inflight++
	batch[0].turn <- batchTurn{lead: batch}
}

// removeLocked takes a departing waiter out of pending, reporting whether it
// was still there (false: a dispatch has claimed it). Callers hold t.mu.
func (t *batcher) removeLocked(req *batchRequest) bool {
	i := slices.Index(t.pending, req)
	if i < 0 {
		return false
	}
	t.pending = slices.Delete(t.pending, i, i+1)
	t.pendingK -= req.k
	if len(t.pending) == 0 {
		t.timer.Stop()
		t.timer = nil
	}
	return true
}

// runBatch dispatches one batch as a single kernel call — gather B, one
// Calculate, column views of C back to the callers — whatever its width. It
// runs on the goroutine of batch[0], whose result it returns; the others get
// theirs on their turn channels.
func (s *Server) runBatch(m *Matrix, batch []*batchRequest) batchResult {
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
	// unzeroed: kernels write every row whole, an empty one as zeros.
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
	// its column block of the dispatch's C — no copy-out. A lone member gets
	// the compact panel itself, which is its own wire form; a coalesced
	// member gets a strided view, encoded once, straight to the socket. A kernel error reaches every member through the
	// same loop.
	for range batch[1:] {
		wide.retain()
	}
	var own batchResult
	off := 0
	for i, req := range batch {
		req.b.Release()
		var wait time.Duration
		if !req.joined.IsZero() {
			wait = dispatchAt.Sub(req.joined)
		}
		s.batchWait.Observe(wait.Seconds())
		if req.req != nil {
			// Batch runs on the request's chain from its prepare step to
			// the dispatch, kernel from there to the dispatch's end.
			at := req.req.At(dispatchAt)
			req.req.StepTo(trace.PhaseBatch, plan.Format, at, int64(len(batch)))
			req.req.StepTo(trace.PhaseKernel, plan.Variant, at+kernelNs, int64(totalK))
		}
		res := batchResult{lease: wide, plan: plan, width: len(batch), k: totalK, err: err}
		switch {
		case err != nil:
		case len(batch) == 1:
			res.c = combC // a lone member's columns are the whole panel
		default:
			res.c, res.err = combC.View(0, off, rows, req.k)
		}
		off += req.k
		if i == 0 {
			own = res
		} else {
			req.turn <- batchTurn{res: res}
		}
	}
	return own
}
