package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Request-scoped tracing glue: request-ID minting, the X-Spmm-Timing header
// codec, the JSON wire shape of trace.ReqRecord, and the /v1/trace/requests
// endpoint. The cluster router reuses all of it (same IDs, same header, same
// wire records) so one request reads identically on every hop.

// reqIDPrefix makes IDs minted by different processes collide-free without
// any hot-path randomness: the prefix is drawn once at startup, and each
// mint is one atomic increment.
var (
	reqIDPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Fall back to the startup time; uniqueness within the process
			// still holds via the counter.
			return fmt.Sprintf("t%x", time.Now().UnixNano()&0xffffffff)
		}
		return hex.EncodeToString(b[:])
	}()
	reqIDSeq atomic.Uint64
)

// MintRequestID returns a process-unique request ID ("<prefix>-<seq>"). The
// edge of a request's path mints one when the client did not supply
// X-Spmm-Request-Id; every later hop propagates it unchanged.
func MintRequestID() string {
	return reqIDPrefix + "-" + strconv.FormatUint(reqIDSeq.Add(1), 10)
}

// TimingPhase is one aggregated phase of an X-Spmm-Timing header.
type TimingPhase struct {
	Phase string
	Ms    float64
}

// Timing is the parsed X-Spmm-Timing breakdown: per-phase milliseconds in
// server recording order plus the request total at header-write time.
type Timing struct {
	Phases  []TimingPhase
	TotalMs float64
}

// Ms returns one phase's milliseconds (0 when absent).
func (t Timing) Ms(phase string) float64 {
	for _, p := range t.Phases {
		if p.Phase == phase {
			return p.Ms
		}
	}
	return 0
}

// SumMs totals the per-phase milliseconds (excluding the total entry).
func (t Timing) SumMs() float64 {
	var sum float64
	for _, p := range t.Phases {
		sum += p.Ms
	}
	return sum
}

// Valid reports whether the header carried any phases.
func (t Timing) Valid() bool { return len(t.Phases) > 0 }

// FormatTiming renders a record as an X-Spmm-Timing value: same-named spans
// are summed (a request that prepared twice still reads one "prepare" entry),
// phases keep first-recorded order, and "total" closes the list:
//
//	queue=0.012;prepare=0.001;batch=0.850;kernel=1.254;total=2.202
//
// extraPhase/extraNs append one more (possibly still-open) phase — the
// multiply handler uses it to include the response encode it has just
// measured before the header must be flushed.
//
// Every entry is whole microseconds, and the phases are rounded
// cumulatively: phase i is the rounded sum of phases 1..i less the rounded
// sum of phases 1..i-1. So the phases add up to their rounded sum exactly,
// each is within 1 µs of its own time, and, since rounding is monotone, a
// breakdown that covers no more than the total never lists more than it.
func FormatTiming(rec trace.ReqRecord, extraPhase string, extraNs int64) string {
	type agg struct {
		name string
		ns   int64
	}
	order := make([]agg, 0, len(rec.Spans)+1)
	add := func(name string, ns int64) {
		for i := range order {
			if order[i].name == name {
				order[i].ns += ns
				return
			}
		}
		order = append(order, agg{name, ns})
	}
	for _, sp := range rec.Spans {
		add(sp.Name, sp.Dur)
	}
	if extraPhase != "" {
		add(extraPhase, extraNs)
	}
	var b []byte
	var cumNs, cumUs int64
	for _, a := range order {
		cumNs += a.ns
		us := roundUs(cumNs)
		b = append(appendMs(append(append(b, a.name...), '='), us-cumUs), ';')
		cumUs = us
	}
	return string(appendMs(append(b, "total="...), roundUs(rec.TotalNs)))
}

// roundUs rounds ns to the nearest microsecond.
func roundUs(ns int64) int64 { return int64(math.Round(float64(ns) / 1e3)) }

// appendMs appends us microseconds as milliseconds with three decimals.
func appendMs(b []byte, us int64) []byte { return strconv.AppendFloat(b, float64(us)/1e3, 'f', 3, 64) }

// ParseTiming decodes an X-Spmm-Timing value. ok is false when the value is
// empty or malformed.
func ParseTiming(s string) (Timing, bool) {
	if s == "" {
		return Timing{}, false
	}
	var t Timing
	for _, part := range strings.Split(s, ";") {
		name, val, found := strings.Cut(part, "=")
		if !found {
			return Timing{}, false
		}
		ms, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return Timing{}, false
		}
		if name == "total" {
			t.TotalMs = ms
			continue
		}
		t.Phases = append(t.Phases, TimingPhase{Phase: name, Ms: ms})
	}
	return t, len(t.Phases) > 0 || t.TotalMs > 0
}

// RequestTracePhase is the JSON wire shape of one trace.ReqSpan.
type RequestTracePhase struct {
	Phase   string  `json:"phase"`
	Detail  string  `json:"detail,omitempty"`
	StartMs float64 `json:"start_ms"`
	Ms      float64 `json:"ms"`
	Arg     int64   `json:"arg,omitempty"`
}

// RequestTraceRecord is the JSON wire shape of one trace.ReqRecord, served
// by GET /v1/trace/requests on both spmmserve and spmmrouter.
type RequestTraceRecord struct {
	ID      string              `json:"id"`
	Matrix  string              `json:"matrix"`
	Start   time.Time           `json:"start"`
	TotalMs float64             `json:"total_ms"`
	Error   string              `json:"error,omitempty"`
	Phases  []RequestTracePhase `json:"phases"`
}

// TraceRecordWire converts a finished record to its wire shape. Every
// offset is wireMs of its nanoseconds and a phase's ms is its end's less its
// start's, so the phases of a record whose spans tile it from 0 add up, in
// float64 and in any order, to exactly its total_ms.
func TraceRecordWire(rec trace.ReqRecord) RequestTraceRecord {
	out := RequestTraceRecord{
		ID: rec.ID, Matrix: rec.Subject, Start: rec.Start,
		TotalMs: wireMs(rec.TotalNs), Error: rec.Error,
		Phases: make([]RequestTracePhase, 0, len(rec.Spans)),
	}
	for _, sp := range rec.Spans {
		start := wireMs(sp.Start)
		out.Phases = append(out.Phases, RequestTracePhase{
			Phase: sp.Name, Detail: sp.Detail,
			StartMs: start, Ms: wireMs(sp.Start+sp.Dur) - start,
			Arg: sp.Arg,
		})
	}
	return out
}

// wireMs is ns in milliseconds on a binary grid of 2^-20 ms, finer than a
// nanosecond. It is monotone in ns, and its values, their differences and
// their sums are exact in float64, so a wire record's times add up as its
// spans do; nsOf takes them back to the same nanoseconds.
func wireMs(ns int64) float64 { return math.Round(float64(ns)/1e6*(1<<20)) / (1 << 20) }

// nsOf is the inverse of wireMs.
func nsOf(ms float64) int64 { return int64(math.Round(ms * 1e6)) }

// ReqSpans converts a wire record back into span form (ns offsets) — the
// router's stitcher pulls replica records over HTTP and aligns these onto
// its own timeline.
func (r RequestTraceRecord) ReqSpans() []trace.ReqSpan {
	spans := make([]trace.ReqSpan, 0, len(r.Phases))
	for _, p := range r.Phases {
		start := nsOf(p.StartMs)
		spans = append(spans, trace.ReqSpan{
			Name: p.Phase, Detail: p.Detail,
			Start: start, Dur: nsOf(p.StartMs+p.Ms) - start,
			Arg: p.Arg,
		})
	}
	return spans
}

// TraceRequestsQuery evaluates a /v1/trace/requests query against a ring:
// ?id= exact request ID, ?matrix= exact matrix ID, ?min_ms= minimum total
// duration, ?n= result cap (default 64). Newest records first.
func TraceRequestsQuery(rr *trace.Requests, q url.Values) ([]RequestTraceRecord, error) {
	f := trace.ReqFilter{ID: q.Get("id"), Subject: q.Get("matrix"), Limit: 64}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			return nil, fmt.Errorf("serve: bad min_ms %q", v)
		}
		f.MinDur = time.Duration(ms * float64(time.Millisecond))
	}
	if v := q.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("serve: bad n %q", v)
		}
		f.Limit = n
	}
	recs := rr.Snapshot(f)
	out := make([]RequestTraceRecord, 0, len(recs))
	for _, rec := range recs {
		out = append(out, TraceRecordWire(rec))
	}
	return out, nil
}

// handleTraceRequests serves the bounded ring of recent request records.
func (s *Server) handleTraceRequests(w http.ResponseWriter, r *http.Request) {
	recs, err := TraceRequestsQuery(s.reqs, r.URL.Query())
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	WriteJSON(w, http.StatusOK, recs)
}

// RequestTraces exposes the request-record ring (nil when request tracing is
// disabled) — tests and the in-process cluster harness read it directly.
func (s *Server) RequestTraces() *trace.Requests { return s.reqs }

// beginRequest opens a request timeline for a multiply. When request tracing
// is enabled it adopts the client-supplied ID or mints one; when disabled it
// returns ("", nil) and every downstream instrumentation call no-ops.
func (s *Server) beginRequest(r *http.Request, subject string) (string, *trace.Req) {
	if !s.reqs.Enabled() {
		return "", nil
	}
	rid := r.Header.Get(HeaderRequestID)
	if rid == "" {
		rid = MintRequestID()
	}
	return rid, s.reqs.Begin(rid, subject)
}

// failRequest seals a traced request that ended in an error.
func (s *Server) failRequest(req *trace.Req, err error) {
	if req == nil {
		return
	}
	if err != nil {
		req.SetError(err.Error())
	}
	s.finishRequest(req, "")
}

// finishRequest seals a traced request, its chain closed by phase last when
// that is non-empty (trace.Req.Finish): the record lands in the ring, its
// phases feed the spmm_serve_phase_seconds histograms, and a request slower
// than Config.SlowRequest emits one request-ID-correlated slog line.
func (s *Server) finishRequest(req *trace.Req, last string) {
	if req == nil {
		return
	}
	rec := req.Finish(last)
	s.observePhaseSeconds(rec)
	if s.cfg.SlowRequest > 0 && s.log != nil && time.Duration(rec.TotalNs) >= s.cfg.SlowRequest {
		s.log.Warn("slow request", slowAttrs(rec)...)
	}
}

// slowAttrs flattens a record into slog attributes: request identity, total,
// and one "<phase>_ms" attribute per aggregated phase.
func slowAttrs(rec trace.ReqRecord) []any {
	attrs := []any{"rid", rec.ID, "matrix", rec.Subject,
		"total_ms", float64(rec.TotalNs) / 1e6}
	sums := map[string]int64{}
	var order []string
	for _, sp := range rec.Spans {
		if _, ok := sums[sp.Name]; !ok {
			order = append(order, sp.Name)
		}
		sums[sp.Name] += sp.Dur
	}
	sort.Strings(order)
	for _, name := range order {
		attrs = append(attrs, name+"_ms", float64(sums[name])/1e6)
	}
	if rec.Error != "" {
		attrs = append(attrs, "err", rec.Error)
	}
	return attrs
}
