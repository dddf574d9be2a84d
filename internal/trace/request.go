package trace

import (
	"io"
	"sync"
	"time"
)

// Request-scoped tracing: while the Tracer attributes a *process's* time to
// phases on per-lane rings, a ReqRecord attributes one *request's* latency to
// phases as it crosses admission, batching, preparation, the kernel, and (in
// a cluster) router failover attempts. Records are correlated across
// processes by a request ID minted at the edge and propagated on the wire
// (X-Spmm-Request-Id), so a router can stitch its own attempt spans together
// with the winning replica's queue/batch/kernel spans into one timeline.
//
// The contract matches the Tracer's: a nil *Requests ring is a permanently
// disabled recorder, Begin on it returns a nil *Req, and every *Req method is
// nil-safe and allocation-free — instrumented hot paths hold the pointers
// unconditionally and pay only nil checks when request tracing is off.

// ReqSpan is one phase interval inside a request timeline. Start and Dur are
// nanoseconds relative to the request's own start (not the tracer epoch), so
// records from different processes can be aligned by shifting a single
// offset.
type ReqSpan struct {
	// Name is a pinned phase name from Phases().
	Name string
	// Detail refines the phase (cache hit/miss, kernel variant,
	// "replica verdict" for attempt-remote spans). Free-form.
	Detail string
	// Start and Dur are nanoseconds since the request began.
	Start int64
	Dur   int64
	// Arg is an optional numeric payload (batch width, attempt number).
	Arg int64
}

// ReqRecord is one finished request timeline.
type ReqRecord struct {
	// ID is the request ID (minted at the edge or client-supplied).
	ID string
	// Subject is what the request operated on (the matrix ID).
	Subject string
	// Start is the wall-clock begin time (informational; alignment across
	// processes uses span offsets, never wall clocks).
	Start time.Time
	// TotalNs is the request's end-to-end duration inside this process.
	TotalNs int64
	// Error holds the failure class when the request did not succeed.
	Error string
	// Spans is the phase breakdown, in recording order.
	Spans []ReqSpan
}

// Req accumulates one in-flight request's spans. Methods are safe for
// concurrent use (the batcher goroutine records kernel spans while the
// handler goroutine may be timing out) and nil-safe (nil = tracing disabled).
type Req struct {
	ring  *Requests
	start time.Time

	mu   sync.Mutex
	done bool
	rec  ReqRecord
	at   int64 // where the next Step starts: the last Mark or Step's end
}

// Now returns nanoseconds since the request began (0 for nil).
func (q *Req) Now() int64 {
	if q == nil {
		return 0
	}
	return int64(time.Since(q.start))
}

// At converts an absolute time into this request's relative offset, clamped
// at 0 (0 for nil). The batcher uses it to fan one dispatch interval out to
// every joined request's timeline.
func (q *Req) At(t time.Time) int64 {
	if q == nil {
		return 0
	}
	d := int64(t.Sub(q.start))
	if d < 0 {
		d = 0
	}
	return d
}

// ID returns the request ID ("" for nil).
func (q *Req) ID() string {
	if q == nil {
		return ""
	}
	return q.rec.ID
}

// Phase records a span from a start offset (a prior Now() value) to now and
// returns its duration in nanoseconds. Nil receivers return 0.
func (q *Req) Phase(name, detail string, start, arg int64) int64 {
	if q == nil {
		return 0
	}
	dur := q.Now() - start
	if dur < 0 {
		dur = 0
	}
	q.AddPhase(name, detail, start, dur, arg)
	return dur
}

// Mark starts a chain of contiguous phases: the next Step begins now.
func (q *Req) Mark() {
	if q == nil {
		return
	}
	now := q.Now()
	q.mu.Lock()
	q.at = now
	q.mu.Unlock()
}

// Step records a span from where the chain stands (the last Mark or Step)
// to now, and that same clock read begins the next Step, so a chain of
// Steps leaves no untimed gap between its spans. Nil receivers no-op.
func (q *Req) Step(name, detail string, arg int64) {
	if q == nil {
		return
	}
	now := q.Now()
	q.mu.Lock()
	start := q.at
	q.at = now
	q.mu.Unlock()
	q.AddPhase(name, detail, start, max(now-start, 0), arg)
}

// AddPhase records a span with an explicitly measured interval — the escape
// hatch for spans measured outside the request goroutine (kernel dispatches
// fanned out by the batcher). After Finish the record is immutable, so late
// spans are dropped rather than racing the ring snapshot.
func (q *Req) AddPhase(name, detail string, start, dur, arg int64) {
	if q == nil {
		return
	}
	q.mu.Lock()
	if !q.done {
		q.rec.Spans = append(q.rec.Spans, ReqSpan{Name: name, Detail: detail, Start: start, Dur: dur, Arg: arg})
	}
	q.mu.Unlock()
}

// SetError tags the record with a failure class.
func (q *Req) SetError(msg string) {
	if q == nil {
		return
	}
	q.mu.Lock()
	if !q.done {
		q.rec.Error = msg
	}
	q.mu.Unlock()
}

// Snapshot copies the record as it stands, with TotalNs set to the current
// elapsed time — used to build the timing header before the response body is
// written. Returns a zero record for nil.
func (q *Req) Snapshot() ReqRecord {
	if q == nil {
		return ReqRecord{}
	}
	q.mu.Lock()
	rec := q.rec
	rec.Spans = append([]ReqSpan(nil), q.rec.Spans...)
	q.mu.Unlock()
	if rec.TotalNs == 0 {
		rec.TotalNs = q.Now()
	}
	return rec
}

// Finish seals the record, stamps its total duration, pushes it onto the
// ring, and returns the finished record. Later Phase/AddPhase calls no-op.
// Finishing twice keeps the first seal.
func (q *Req) Finish() ReqRecord {
	if q == nil {
		return ReqRecord{}
	}
	q.mu.Lock()
	if !q.done {
		q.done = true
		q.rec.TotalNs = q.Now()
		rec := q.rec
		q.mu.Unlock()
		q.ring.push(rec)
		return rec
	}
	rec := q.rec
	q.mu.Unlock()
	return rec
}

// Requests is a bounded ring of recently finished request records. A nil
// ring is a valid, permanently disabled recorder.
type Requests struct {
	mu    sync.Mutex
	buf   []ReqRecord
	total int64
}

// NewRequests builds a ring holding the most recent capacity records.
// capacity <= 0 returns nil — the disabled recorder.
func NewRequests(capacity int) *Requests {
	if capacity <= 0 {
		return nil
	}
	return &Requests{buf: make([]ReqRecord, 0, capacity)}
}

// Enabled reports whether records are kept (false for nil).
func (rr *Requests) Enabled() bool { return rr != nil }

// Begin opens a request timeline. Nil rings return nil — every downstream
// instrumentation call then no-ops for free.
func (rr *Requests) Begin(id, subject string) *Req {
	if rr == nil {
		return nil
	}
	q := &Req{ring: rr, start: time.Now()}
	q.rec = ReqRecord{ID: id, Subject: subject, Start: q.start, Spans: make([]ReqSpan, 0, 8)}
	return q
}

// Total reports how many records have ever been finished into the ring.
func (rr *Requests) Total() int64 {
	if rr == nil {
		return 0
	}
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return rr.total
}

func (rr *Requests) push(rec ReqRecord) {
	if rr == nil {
		return
	}
	rr.mu.Lock()
	if len(rr.buf) < cap(rr.buf) {
		rr.buf = append(rr.buf, rec)
	} else {
		rr.buf[rr.total%int64(cap(rr.buf))] = rec
	}
	rr.total++
	rr.mu.Unlock()
}

// ReqFilter selects records out of the ring. Zero values match everything.
type ReqFilter struct {
	// ID matches exactly when set.
	ID string
	// Subject matches the record's subject (matrix ID) exactly when set.
	Subject string
	// MinDur drops records faster than this when > 0.
	MinDur time.Duration
	// Limit caps the result count when > 0 (newest records win).
	Limit int
}

// Snapshot returns matching records, newest first.
func (rr *Requests) Snapshot(f ReqFilter) []ReqRecord {
	if rr == nil {
		return nil
	}
	rr.mu.Lock()
	n := len(rr.buf)
	recs := make([]ReqRecord, 0, n)
	// Walk newest to oldest: the ring's logical order is total-1 .. total-n.
	for i := int64(0); i < int64(n); i++ {
		idx := (rr.total - 1 - i) % int64(cap(rr.buf))
		if idx < 0 {
			idx += int64(cap(rr.buf))
		}
		recs = append(recs, rr.buf[idx])
	}
	rr.mu.Unlock()
	out := recs[:0]
	for _, rec := range recs {
		if f.ID != "" && rec.ID != f.ID {
			continue
		}
		if f.Subject != "" && rec.Subject != f.Subject {
			continue
		}
		if f.MinDur > 0 && rec.TotalNs < int64(f.MinDur) {
			continue
		}
		out = append(out, rec)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Process is one participant's row in a stitched distributed trace: a name
// ("router", "replica r1") plus its spans with Start offsets already aligned
// onto the stitched timeline (the router's own spans keep their offsets; a
// replica's spans are shifted by the attempt span that carried them).
type Process struct {
	Name  string
	Spans []ReqSpan
}

// WriteStitchedChromeTrace exports one distributed request as Chrome
// trace_event JSON with one process row per participant — the multi-process
// sibling of Tracer.WriteChromeTrace, reusing the same event schema.
func WriteStitchedChromeTrace(w io.Writer, procs []Process) error {
	events := make([]any, 0, len(procs)*4)
	for i, p := range procs {
		pid := i + 1
		events = append(events,
			chromeMeta{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]string{"name": p.Name}},
			chromeMeta{Name: "thread_name", Ph: "M", Pid: pid, Tid: 0, Args: map[string]string{"name": "request"}},
		)
		for _, s := range p.Spans {
			ev := chromeEvent{
				Name: s.Name,
				Ts:   float64(s.Start) / 1e3,
				Pid:  pid,
				Tid:  0,
			}
			if s.Dur > 0 {
				ev.Ph = "X"
				ev.Dur = float64(s.Dur) / 1e3
			} else {
				ev.Ph = "i"
				ev.S = "t"
			}
			if s.Detail != "" || s.Arg != 0 {
				ev.Args = map[string]any{}
				if s.Detail != "" {
					ev.Args["detail"] = s.Detail
				}
				if s.Arg != 0 {
					ev.Args["arg"] = s.Arg
				}
			}
			events = append(events, ev)
		}
	}
	return writeChromeEnvelope(w, events)
}
