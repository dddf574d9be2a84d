package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrOverloaded is returned (and mapped to 429 + Retry-After) when the
// admission queue is full. Shedding at the door instead of queueing without
// bound keeps tail latency bounded: a request the server cannot start
// within its deadline is cheaper to reject immediately.
var ErrOverloaded = errors.New("serve: overloaded, request shed")

// admission is the server's concurrency gate: at most inFlight requests
// execute at once, at most queueDepth more wait for a slot, and everything
// beyond that is shed. Waiting is deadline-aware — a request whose context
// expires in the queue leaves without executing, the cooperative-
// cancellation contract the campaign harness established. admitted and
// executing go down as well as up: they are the gate's control state, read
// at scrape time (queued), not metrics.
type admission struct {
	sem        chan struct{}
	inFlight   int64
	queueDepth int64
	admitted   atomic.Int64 // waiting + executing
	executing  atomic.Int64
	shed       obs.Counter
	timeouts   obs.Counter
}

func newAdmission(inFlight, queueDepth int) *admission {
	if inFlight < 1 {
		inFlight = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	return &admission{
		sem:        make(chan struct{}, inFlight),
		inFlight:   int64(inFlight),
		queueDepth: int64(queueDepth),
	}
}

// acquire claims an execution slot. It fails fast with ErrOverloaded when
// the queue is full, and with ctx.Err() when the deadline expires while
// waiting. On success the caller must release().
func (a *admission) acquire(ctx context.Context) error {
	return a.admit(&deadline{ctx: ctx})
}

// admit is acquire under a deadline that is still a value: a free slot is
// taken without looking at it, and only a request that has to queue arms the
// timer it queues under.
func (a *admission) admit(d *deadline) error {
	if a.admitted.Add(1) > a.inFlight+a.queueDepth {
		a.admitted.Add(-1)
		a.shed.Inc()
		return ErrOverloaded
	}
	select {
	case a.sem <- struct{}{}:
		a.executing.Add(1)
		return nil
	default:
	}
	ctx := d.wait()
	select {
	case a.sem <- struct{}{}:
		a.executing.Add(1)
		return nil
	case <-ctx.Done():
		a.admitted.Add(-1)
		a.timeouts.Inc()
		return ctx.Err()
	}
}

// release returns an execution slot.
func (a *admission) release() {
	<-a.sem
	a.admitted.Add(-1)
	a.executing.Add(-1)
}

// queued is the number of admitted requests still waiting for a slot.
func (a *admission) queued() int64 {
	q := a.admitted.Load() - a.executing.Load()
	if q < 0 {
		q = 0
	}
	return q
}

// deadline is one request's absolute deadline, kept as a value until
// something has to wait on it. A context.WithDeadline costs a timer, its
// heap insert and delete, the parent's children map and, on the first
// Done, a channel; a request that finds a free slot, a prepared format and
// no dispatch in flight waits on nothing, so it pays none of them. Each wait
// point (admission, a pending prepare, a batch join) first tries without
// waiting and calls wait only when it must block. A deadline belongs to one
// goroutine, the handler's.
type deadline struct {
	parent context.Context
	at     time.Time
	// ctx is the context wait built (or the caller's own, when a deadline
	// wraps one); cancel is non-nil only for one built here.
	ctx    context.Context
	cancel context.CancelFunc
}

// wait returns the context to block on, building it at the first call.
func (d *deadline) wait() context.Context {
	if d.ctx == nil {
		d.ctx, d.cancel = context.WithDeadline(d.parent, d.at)
	}
	return d.ctx
}

// stop releases the timer wait armed, if it armed one.
func (d *deadline) stop() {
	if d.cancel != nil {
		d.cancel()
	}
}
