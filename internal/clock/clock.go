// Package clock is the suite's injectable time source. Tests script time
// instead of sleeping on real timers, and a bare func() time.Time cannot
// script timer callbacks, which is exactly what the serving batcher (its
// coalescing window is a timer) and the cluster health prober (its probe
// cadence and probe timeouts are timers) hang off. This package generalizes
// the seam:
// a Clock hands out the current instant and timer callbacks, the Real
// implementation delegates to package time, and the Fake implementation
// lets a test advance a virtual now and fire every due callback
// synchronously, in deadline order — so a batch window "elapsing" or a
// health probe "timing out" is one deterministic Advance call, not a sleep
// racing the scheduler.
package clock

import (
	"sort"
	"sync"
	"time"
)

// Timer is a stoppable pending callback, the subset of *time.Timer the
// suite needs.
type Timer interface {
	// Stop cancels the callback, reporting whether it was still pending.
	Stop() bool
}

// Clock is an injectable time source: the current instant plus deferred
// callbacks. Implementations must be safe for concurrent use.
type Clock interface {
	Now() time.Time
	// AfterFunc schedules f to run after d. f runs on an unspecified
	// goroutine for the real clock and synchronously inside Advance for
	// the fake one, so it must not block.
	AfterFunc(d time.Duration, f func()) Timer
}

// Real returns the wall clock: time.Now and time.AfterFunc.
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time                            { return time.Now() }
func (realClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Fake is a deterministic test clock. Time stands still until Advance is
// called; Advance moves the virtual now forward, firing every callback
// whose deadline it crosses in (deadline, scheduling) order before it
// returns. Callbacks run with no lock held, so they may schedule further
// timers (a self-rescheduling prober works unmodified).
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	seq    int
	timers map[int]*fakeTimer
}

type fakeTimer struct {
	f    *Fake
	id   int
	seq  int
	when time.Time
	fn   func()
}

// NewFake returns a fake clock starting at a fixed, arbitrary epoch.
func NewFake() *Fake {
	return &Fake{
		now:    time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		timers: map[int]*fakeTimer{},
	}
}

// Now returns the current virtual time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Pending reports how many timers are scheduled and not yet fired — the
// synchronization hook tests use to know a timer-guarded operation (a probe
// with a timeout, a batch window) is in flight before advancing past it.
func (f *Fake) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.timers)
}

// AfterFunc schedules fn at now+d. A non-positive d fires on the next
// Advance call (never synchronously inside AfterFunc).
func (f *Fake) AfterFunc(d time.Duration, fn func()) Timer {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	t := &fakeTimer{f: f, id: f.seq, seq: f.seq, when: f.now.Add(d), fn: fn}
	f.timers[t.id] = t
	return t
}

func (t *fakeTimer) Stop() bool {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	if _, ok := t.f.timers[t.id]; !ok {
		return false
	}
	delete(t.f.timers, t.id)
	return true
}

// Advance moves the clock forward by d, firing due callbacks synchronously
// in (deadline, scheduling) order. Each callback sees Now() at its own
// deadline, and callbacks scheduled by callbacks fire too if they land
// inside the same window.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	target := f.now.Add(d)
	for {
		var next *fakeTimer
		for _, t := range f.timers {
			if t.when.After(target) {
				continue
			}
			if next == nil || t.when.Before(next.when) ||
				(t.when.Equal(next.when) && t.seq < next.seq) {
				next = t
			}
		}
		if next == nil {
			break
		}
		delete(f.timers, next.id)
		if next.when.After(f.now) {
			f.now = next.when
		}
		f.mu.Unlock()
		next.fn()
		f.mu.Lock()
	}
	f.now = target
	f.mu.Unlock()
}

// sortedDeadlines is a test helper: the pending deadlines in firing order.
func (f *Fake) sortedDeadlines() []time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]time.Time, 0, len(f.timers))
	for _, t := range f.timers {
		out = append(out, t.when)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}
