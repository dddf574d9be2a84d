package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/trace"
)

// stackStats is the servers' own counters summed over the nodes.
type stackStats struct {
	batches, batchedRequests, shed, timeouts int64
	hits, misses                             int64
	compactions                              int64
}

func (st *stack) stats() (stackStats, error) {
	var sum stackStats
	for i, n := range st.nodes {
		s, err := st.clients[0].direct[i].Stats()
		if err != nil {
			return sum, fmt.Errorf("stats of %s: %w", n.name, err)
		}
		sum.batches += s.Batches
		sum.batchedRequests += s.BatchedRequests
		sum.shed += s.Shed
		sum.timeouts += s.Timeouts
		sum.hits += s.Cache.Hits
		sum.misses += s.Cache.Misses
		if s.Delta != nil {
			sum.compactions += s.Delta.Compactions
		}
	}
	return sum, nil
}

// sub is the counters' growth since an earlier reading.
func (s stackStats) sub(o stackStats) stackStats {
	return stackStats{
		batches: s.batches - o.batches, batchedRequests: s.batchedRequests - o.batchedRequests,
		shed: s.shed - o.shed, timeouts: s.timeouts - o.timeouts,
		hits: s.hits - o.hits, misses: s.misses - o.misses,
		compactions: s.compactions - o.compactions,
	}
}

// setupStack is one timed set-up: everything from an empty process to a
// warmed system. The caller closes the stack.
func setupStack(wl *serveWorkload, o options, traced bool, rec *recorder, parent int) (*stack, time.Duration, error) {
	sp := rec.spans.begin("setup", parent, 0)
	defer rec.spans.end(sp, "")
	t0 := time.Now()
	st, err := startStack(wl, o, traced)
	return st, time.Since(t0), err
}

// measured is a run of segments and what the servers counted over them.
type measured struct {
	segs     []segment
	counters stackStats
}

// measure runs n closed-loop segments and brackets them with the servers'
// counters. A discarded lead-in of a third of a segment comes first: set-up's
// 20 requests per client make the cache resident, but the first second of
// sustained load still runs ~10% slower than the rest (heap and connection
// buffers settling), and that is not the steady state the metrics describe.
func measure(l *load, n int, d time.Duration, name string, parent int) (measured, error) {
	var m measured
	l.run(d/3, "lead-in", parent)
	before, err := l.st.stats()
	if err != nil {
		return m, err
	}
	for i := 0; i < n; i++ {
		m.segs = append(m.segs, l.run(d, fmt.Sprintf("%s-%d", name, i), parent))
	}
	after, err := l.st.stats()
	m.counters = after.sub(before)
	return m, err
}

// perSegment maps every segment to one value.
func (m measured) perSegment(f func(segment) float64) []float64 {
	out := make([]float64, len(m.segs))
	for i, s := range m.segs {
		out[i] = f(s)
	}
	return out
}

func (m measured) multiplies() (n int) {
	for _, s := range m.segs {
		n += s.multiplies
	}
	return n
}

// p50 is the median of the segments' median latencies.
func (m measured) p50() float64 {
	return median(m.perSegment(func(s segment) float64 { return s.p50 }))
}

func (m measured) acks() (all []float64) {
	for _, s := range m.segs {
		all = append(all, s.ackUs...)
	}
	return all
}

func runServe(wl *serveWorkload, o options, rec *recorder, w io.Writer) error {
	root := rec.spans.begin(wl.name, -1, 0)
	defer func() { rec.spans.end(root, "") }()

	// Set-up runs several times in an untraced run so setup_s is a median —
	// at least five times, and for up to a second and a half when one
	// set-up is a few milliseconds; the last stack is the one measured.
	var st *stack
	var setupS []float64
	repeat := !o.trace && o.shrink == 1
	for start := time.Now(); ; {
		if st != nil {
			st.close()
		}
		var took time.Duration
		var err error
		if st, took, err = setupStack(wl, o, false, rec, root); err != nil {
			return err
		}
		setupS = append(setupS, took.Seconds())
		if n := len(setupS); !repeat || n >= 40 || (n >= 5 && time.Since(start) > 1500*time.Millisecond) {
			break
		}
	}
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	rec.setMedian("setup_s", setupS, len(setupS))

	l := newLoad(st, rec, o)
	segs := segments
	if o.trace {
		// A traced run splits its time: two untraced segments give the
		// base the tracing overhead is read against, three traced ones
		// give the phases.
		segs = 2
	}
	m, err := measure(l, segs, o.segment(), "segment", root)
	if err != nil {
		return err
	}
	reportEndToEnd(rec, st, m)
	reportCounters(rec, st, l, m)
	if !o.trace {
		return nil
	}

	baseP50 := m.p50()
	if err := probeLayers(wl, o, rec, l, baseP50, root, w); err != nil {
		return err
	}

	// The traced segments run on a second stack, identical but for request
	// tracing: ReqTraceRing is fixed when a server is built.
	st.close()
	if st, _, err = setupStack(wl, o, true, rec, root); err != nil {
		return err
	}
	tl := newLoad(st, rec, o)
	tm, err := measure(tl, segments-segs, o.segment(), "traced-segment", root)
	if err != nil {
		return err
	}
	reportPhases(rec, st, tl, tm, baseP50)
	return nil
}

// reportEndToEnd turns the measured segments into the end-to-end metrics:
// each is the median of its per-segment values.
func reportEndToEnd(rec *recorder, st *stack, m measured) {
	n := m.multiplies()
	var nnz float64
	for _, sh := range st.shards {
		nnz += float64(sh.nnz) / float64(len(st.shards))
	}
	rps := m.perSegment(func(s segment) float64 { return float64(s.multiplies) / s.elapsed.Seconds() })
	rec.setMedian("multiply_p50_us", m.perSegment(func(s segment) float64 { return s.p50 }), n)
	rec.setMedian("client.multiply_p90_us", m.perSegment(func(s segment) float64 { return s.p90 }), n)
	rec.setMedian("multiply_rps", rps, n)
	// Useful work delivered to the callers: 2*nnz*k flop per multiply.
	gflops := make([]float64, len(rps))
	for i, r := range rps {
		gflops[i] = 2 * nnz * float64(st.wl.k) * r / 1e9
	}
	rec.setMedian("spmm_gflops", gflops, n)
	rec.setMedian("bytes_per_req", m.perSegment(func(s segment) float64 { return float64(s.mem.Bytes) / float64(max(s.completed(), 1)) }), n)
	rec.setMedian("allocs_per_req", m.perSegment(func(s segment) float64 { return float64(s.mem.Objects) / float64(max(s.completed(), 1)) }), n)
	if acks := m.acks(); len(acks) > 0 {
		// Acks are one request in ten of one client: too few per segment
		// for a per-segment median, so the run's acks are pooled.
		rec.setSamples("client.mutate_ack_p50_us", median(acks), m.perSegment(func(s segment) float64 { return median(s.ackUs) }), len(acks))
		rec.set("client.mutate_ack_p99_us", percentile(acks, 0.99), len(acks))
	}
}

// reportCounters reads the ledger rows that come from the load itself and
// from the servers' public counters over the measured segments.
func reportCounters(rec *recorder, st *stack, l *load, m measured) {
	n := m.multiplies()
	d := m.counters
	rec.setMedian("client.multiply_p99_us", m.perSegment(func(s segment) float64 { return s.p99 }), n)
	rec.set("client.samples", float64(n), n)
	rec.set("client.failed_frac", float64(rec.failed)/float64(max(rec.attempt, 1)), rec.attempt)
	rec.set("admission.shed", float64(d.shed), n)
	rec.set("admission.timeouts", float64(d.timeouts), n)
	rec.set("batcher.dispatches", float64(d.batches), n)
	if d.batches > 0 {
		rec.set("batcher.mean_width", float64(d.batchedRequests)/float64(d.batches), int(d.batches))
	}
	if d.hits+d.misses > 0 {
		rec.set("registry.cache_hit_frac", float64(d.hits)/float64(d.hits+d.misses), int(d.hits+d.misses))
	}
	rec.set("process.live_heap_mb", median(m.perSegment(func(s segment) float64 { return s.liveHeapMB })), len(m.segs))
	if st.wl.mutateEvery > 0 {
		rec.set("delta.compactions", float64(d.compactions), len(m.acks()))
		rec.set("delta.overlay_nnz_peak", float64(l.mut.overlayPeak), len(m.acks()))
		rec.check("delta.compactions>=1", d.compactions >= 1,
			"%d background compactions while multiplies were served", d.compactions)
	} else {
		rec.check("registry.cache_hit_frac=1", d.misses == 0, "%d hits, %d misses in steady state", d.hits, d.misses)
	}
	if st.wl.window == 0 {
		rec.check("batcher.mean_width=1", d.batches == d.batchedRequests, "%d requests in %d dispatches", d.batchedRequests, d.batches)
	}
}

// idleAcks measures mutation acks on a workload that never mutates under
// load: after the timed segments client 0 alone sends batches to shard 0,
// in as many groups as there are segments. It is the unloaded ack of this
// server configuration (in memory, or through the router's fan-out); the
// loaded, durable ack is serve-mutate's.
func idleAcks(rec *recorder, l *load) {
	const perGroup = 30
	var p50s []float64
	n := 0
	for g := 0; g < segments; g++ {
		var us []float64
		for i := 0; i < perGroup; i++ {
			rec.count(1)
			ack, err := l.mut.send(l.st.clients[0].api, l.st.shards[0])
			if err != nil {
				rec.fail("%s: idle mutate: %v", l.st.wl.name, err)
				continue
			}
			us = append(us, 1e6*ack.Seconds())
		}
		n += len(us)
		p50s = append(p50s, median(us))
	}
	rec.setMedian("client.mutate_ack_p50_us", p50s, n)
}

// reportPhases reads the traced segments: the server's own X-Spmm-Timing
// phases, the router's attempt spans, and what tracing cost.
func reportPhases(rec *recorder, st *stack, l *load, m measured, untracedP50 float64) {
	for _, phase := range []string{trace.PhaseQueue, trace.PhaseLoad, trace.PhasePrepare,
		trace.PhaseBatch, trace.PhaseKernel, trace.PhaseRespond} {
		if s := l.phases[phase]; len(s) > 0 {
			rec.set("phase."+phase+"_us", median(s), len(s))
		}
	}
	if st.wl.replicas > 0 {
		recs, err := st.clients[0].api.TraceRequests("", "", 0, traceRing)
		if err != nil {
			rec.fail("router trace records: %v", err)
		}
		var us []float64
		for _, r := range recs {
			for _, p := range r.Phases {
				if p.Phase == trace.PhaseAttemptRemote {
					us = append(us, 1e3*p.Ms)
				}
			}
		}
		if len(us) > 0 {
			rec.set("phase."+trace.PhaseAttemptRemote+"_us", median(us), len(us))
		}
	}
	if untracedP50 > 0 {
		rec.set("trace.overhead_frac", m.p50()/untracedP50-1, m.multiplies())
	}
}
