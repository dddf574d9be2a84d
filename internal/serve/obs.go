package serve

import (
	"repro/internal/obs"
	"repro/internal/trace"
)

// servePhases are the request-trace phases the server times, in the order
// of Server.phaseSeconds: one spmm_serve_phase_seconds series each.
var servePhases = [...]string{
	trace.PhaseQueue, trace.PhaseLoad, trace.PhasePrepare, trace.PhaseBatch,
	trace.PhaseKernel, trace.PhaseRespond, trace.PhaseMutate, trace.PhaseCompact,
}

// phaseHistogram returns the server's latency histogram for one phase, nil
// (a no-op to Observe) for a phase the server does not time — e.g.
// attempt-remote, which only a router records.
func (s *Server) phaseHistogram(phase string) *obs.Histogram {
	for i, p := range servePhases {
		if p == phase {
			return &s.phaseSeconds[i]
		}
	}
	return nil
}

// observePhaseSeconds feeds one finished request record into the per-phase
// histograms.
func (s *Server) observePhaseSeconds(rec trace.ReqRecord) {
	for _, sp := range rec.Spans {
		s.phaseHistogram(sp.Name).Observe(float64(sp.Dur) / 1e9)
	}
}

// ExportMetrics names this server's metrics — its own, its admission
// gate's, its registry's, its durability store's and its tuner's — in r.
// This is the serving layer's only name/help table: the values are the
// fields /v1/stats reads, and everything that is state held elsewhere (queue
// depth, cache bytes, WAL length, pending overlay) is computed at scrape.
// A server without a data dir or a tuner exports no series for them.
// cmd/spmmserve calls it once with obs.Default; exporting a second server
// into the same registry panics on the first counter, before any gauge
// function could be replaced.
func (s *Server) ExportMetrics(r *obs.Registry) {
	r.AttachCounter("spmm_serve_requests_total",
		"HTTP requests received by the serving layer.", &s.requests)
	r.AttachCounter("spmm_serve_multiplies_total",
		"Multiply requests completed (each coalesced request counts once).", &s.multiplies)
	r.AttachCounter("spmm_serve_batches_total",
		"Kernel dispatches issued by the batcher (a width-w batch is one).", &s.batches)
	r.AttachCounter("spmm_serve_batched_requests_total",
		"Multiply requests that travelled through a batch dispatch.", &s.batchedRequests)
	r.AttachHistogram("spmm_serve_batch_width",
		"Requests coalesced per dispatch.", &s.batchWidth)
	r.AttachHistogram("spmm_serve_batch_wait_seconds",
		"Per-request wait behind an in-flight dispatch, join to dispatch (0: none was in flight).", &s.batchWait)
	r.AttachHistogram("spmm_serve_request_seconds",
		"Multiply request latency, admission to response write.", &s.requestSeconds)
	// Per-phase multiply latency, labelled with the request-trace phase
	// vocabulary (labels ride in the registration name, the registry's
	// convention). Only mutate and compact are fed with request tracing off.
	for i, phase := range servePhases {
		r.AttachHistogram(`spmm_serve_phase_seconds{phase="`+phase+`"}`,
			"Per-request time spent in the "+phase+" phase of a multiply.", &s.phaseSeconds[i])
	}

	r.AttachCounter("spmm_serve_shed_total",
		"Requests shed with 429 because the admission queue was full.", &s.adm.shed)
	r.AttachCounter("spmm_serve_timeouts_total",
		"Requests whose deadline expired while queued for admission.", &s.adm.timeouts)
	r.NewGaugeFunc("spmm_serve_queue_depth",
		"Admitted requests currently waiting for an execution slot.",
		func() float64 { return float64(s.adm.queued()) })
	r.NewGaugeFunc("spmm_serve_in_flight",
		"Requests currently holding an execution slot.",
		func() float64 { return float64(s.adm.executing.Load()) })

	r.AttachCounter("spmm_serve_cache_hits_total",
		"Multiplies served from an already-prepared format.", &s.reg.hits)
	r.AttachCounter("spmm_serve_cache_misses_total",
		"Multiplies that found no prepared format resident.", &s.reg.misses)
	r.AttachCounter("spmm_serve_cache_prepares_total",
		"Format preparations performed by the cache.", &s.reg.prepares)
	r.AttachCounter("spmm_serve_cache_evictions_total",
		"Prepared formats evicted to fit the cache byte budget.", &s.reg.evictions)
	r.NewGaugeFunc("spmm_serve_cache_bytes",
		"Bytes of prepared formats currently resident.",
		func() float64 { return float64(s.reg.Stats().Bytes) })

	// The panel pool is the process's, not this server's: a client or router
	// in the same process leases from, and counts in, the same classes.
	const gets = "Panel-pool leases by outcome: a hit reused recycled storage, a miss allocated its class."
	r.AttachCounter(`spmm_serve_panel_pool_gets_total{result="hit"}`, gets, &panels.hits)
	r.AttachCounter(`spmm_serve_panel_pool_gets_total{result="miss"}`, gets, &panels.misses)
	r.AttachCounter("spmm_serve_panel_pool_bytes_recycled_total",
		"Bytes of panel storage returned to the pool by a last release.", &panels.recycled)

	// Dynamic matrices: the mutation API, delta-COO overlays, and the
	// background compactor. overlay_apply_seconds is the per-dispatch tax a
	// dirty matrix pays; the compactor exists to drive it back to zero.
	r.AttachCounter("spmm_delta_mutations_total",
		"Mutation batches applied and acked.", &s.mutations)
	r.AttachCounter("spmm_delta_ops_total",
		"Canonicalized mutation ops applied across all batches.", &s.mutOps)
	r.AttachHistogram("spmm_delta_overlay_apply_seconds",
		"Per-dispatch overlay application latency on mutated matrices.", &s.applySeconds)
	r.AttachCounter("spmm_delta_compactions_total",
		"Overlay compactions completed (merge + re-prepare + atomic swap).", &s.compactions)
	r.AttachCounter("spmm_delta_compaction_errors_total",
		"Compactions whose re-prepare failed (the merged base still swapped in).", &s.compactionErrors)
	r.AttachHistogram("spmm_delta_compaction_seconds",
		"Compaction latency: merge, journal, re-prepare, swap.", &s.compactionSeconds)
	r.NewGaugeFunc("spmm_delta_overlay_nnz",
		"Pending delta-overlay entries across all matrices, awaiting compaction.",
		func() float64 {
			_, nnz := s.reg.deltaTotals()
			return float64(nnz)
		})

	// Durability: the registry WAL, its snapshot compactor, and startup
	// recovery. wal_fsync_seconds is the price of the ack-after-durable
	// contract; BenchmarkWALAppend pins it, and it must never appear on
	// the multiply path.
	if st := s.store; st != nil {
		r.AttachCounter("spmm_serve_wal_appends_total",
			"Registration records durably appended to the write-ahead log.", &st.wal.appends)
		r.AttachCounter("spmm_serve_wal_append_errors_total",
			"WAL appends that failed (write or fsync); the registration was not acked.", &st.appendErrors)
		r.AttachHistogram("spmm_serve_wal_fsync_seconds",
			"Per-append WAL fsync latency.", &st.wal.fsyncSeconds)
		r.NewGaugeFunc("spmm_serve_wal_bytes",
			"Current write-ahead-log length in bytes.",
			func() float64 { return float64(st.wal.size()) })
		r.AttachCounter("spmm_serve_snapshots_total",
			"Registry snapshots published (each truncates the covered WAL prefix).", &st.snapshots)
		r.AttachCounter("spmm_serve_snapshot_errors_total",
			"Snapshot attempts that failed; the WAL keeps growing until one lands.", &st.snapshotFailures)
		r.AttachHistogram("spmm_serve_snapshot_seconds",
			"Snapshot write + WAL truncate latency.", &st.snapshotSeconds)
		r.NewGaugeFunc("spmm_serve_recovery_seconds",
			"Duration of the last startup registry recovery (snapshot + WAL replay).",
			func() float64 { return st.recoverySeconds })
		r.NewGaugeFunc("spmm_serve_recovered_matrices",
			"Registrations restored by the last startup recovery.",
			func() float64 { return float64(st.recovered) })
	}
	if s.tuner != nil {
		s.tuner.ExportMetrics(r)
	}
}
