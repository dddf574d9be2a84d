package serve

import (
	"context"
	"errors"
	"sync/atomic"

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
	if a.admitted.Add(1) > a.inFlight+a.queueDepth {
		a.admitted.Add(-1)
		a.shed.Inc()
		return ErrOverloaded
	}
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
