package serve

import (
	"repro/internal/obs"
	"repro/internal/trace"
)

// Serving-layer metrics, registered into the process-wide registry so a
// `-metrics` monitor (obs.Serve) exposes them next to the kernel and
// scheduling counters. Per-Server totals for /v1/stats live on the Server
// itself; these globals are the Prometheus view.
var (
	obsRequests = obs.NewCounter("spmm_serve_requests_total",
		"HTTP requests received by the serving layer.")
	obsMultiplies = obs.NewCounter("spmm_serve_multiplies_total",
		"Multiply requests completed (each coalesced request counts once).")
	obsBatches = obs.NewCounter("spmm_serve_batches_total",
		"Kernel dispatches issued by the batcher (a width-w batch is one).")
	obsBatchedRequests = obs.NewCounter("spmm_serve_batched_requests_total",
		"Multiply requests that travelled through a batch dispatch.")
	obsBatchWidth = obs.NewHistogram("spmm_serve_batch_width",
		"Requests coalesced per dispatch.")
	obsShed = obs.NewCounter("spmm_serve_shed_total",
		"Requests shed with 429 because the admission queue was full.")
	obsTimeouts = obs.NewCounter("spmm_serve_timeouts_total",
		"Requests whose deadline expired while queued for admission.")
	obsQueueDepth = obs.NewGauge("spmm_serve_queue_depth",
		"Admitted requests currently waiting for an execution slot.")
	obsInflight = obs.NewGauge("spmm_serve_in_flight",
		"Requests currently holding an execution slot.")
	obsRequestSeconds = obs.NewHistogram("spmm_serve_request_seconds",
		"Multiply request latency, admission to response write.")
	obsCacheHits = obs.NewCounter("spmm_serve_cache_hits_total",
		"Multiplies served from an already-prepared format.")
	obsCacheMisses = obs.NewCounter("spmm_serve_cache_misses_total",
		"Multiplies that found no prepared format resident.")
	obsCachePrepares = obs.NewCounter("spmm_serve_cache_prepares_total",
		"Format preparations performed by the cache.")
	obsCacheEvictions = obs.NewCounter("spmm_serve_cache_evictions_total",
		"Prepared formats evicted to fit the cache byte budget.")
	obsCacheBytes = obs.NewGauge("spmm_serve_cache_bytes",
		"Bytes of prepared formats currently resident.")

	// Durability: the registry WAL, its snapshot compactor, and startup
	// recovery. wal_fsync_seconds is the price of the ack-after-durable
	// contract; BenchmarkWALAppend pins it, and it must never appear on
	// the multiply path.
	obsWALAppends = obs.NewCounter("spmm_serve_wal_appends_total",
		"Registration records durably appended to the write-ahead log.")
	obsWALAppendErrors = obs.NewCounter("spmm_serve_wal_append_errors_total",
		"WAL appends that failed (write or fsync); the registration was not acked.")
	obsWALFsyncSeconds = obs.NewHistogram("spmm_serve_wal_fsync_seconds",
		"Per-append WAL fsync latency.")
	obsWALBytes = obs.NewGauge("spmm_serve_wal_bytes",
		"Current write-ahead-log length in bytes.")
	obsSnapshots = obs.NewCounter("spmm_serve_snapshots_total",
		"Registry snapshots published (each truncates the covered WAL prefix).")
	obsSnapshotErrors = obs.NewCounter("spmm_serve_snapshot_errors_total",
		"Snapshot attempts that failed; the WAL keeps growing until one lands.")
	obsSnapshotSeconds = obs.NewHistogram("spmm_serve_snapshot_seconds",
		"Snapshot write + WAL truncate latency.")
	obsRecoverySeconds = obs.NewGauge("spmm_serve_recovery_seconds",
		"Duration of the last startup registry recovery (snapshot + WAL replay).")
	obsRecoveredMatrices = obs.NewGauge("spmm_serve_recovered_matrices",
		"Registrations restored by the last startup recovery.")

	// Dynamic matrices: the mutation API, delta-COO overlays, and the
	// background compactor. overlay_apply_seconds is the per-dispatch tax a
	// dirty matrix pays; the compactor exists to drive it back to zero.
	obsDeltaMutations = obs.NewCounter("spmm_delta_mutations_total",
		"Mutation batches applied and acked.")
	obsDeltaOps = obs.NewCounter("spmm_delta_ops_total",
		"Canonicalized mutation ops applied across all batches.")
	obsDeltaApplySeconds = obs.NewHistogram("spmm_delta_overlay_apply_seconds",
		"Per-dispatch overlay application latency on mutated matrices.")
	obsDeltaCompactions = obs.NewCounter("spmm_delta_compactions_total",
		"Overlay compactions completed (merge + re-prepare + atomic swap).")
	obsDeltaCompactionErrors = obs.NewCounter("spmm_delta_compaction_errors_total",
		"Compactions whose re-prepare failed (the merged base still swapped in).")
	obsDeltaCompactionSeconds = obs.NewHistogram("spmm_delta_compaction_seconds",
		"Compaction latency: merge, journal, re-prepare, swap.")

	// Per-phase multiply latency, labelled with the request-trace phase
	// vocabulary (labels ride in the registration name, the registry's
	// convention). Fed only while request tracing is on — the phases are
	// not measured otherwise.
	obsPhaseSeconds = map[string]*obs.Histogram{
		trace.PhaseQueue:   newPhaseHistogram(trace.PhaseQueue),
		trace.PhaseLoad:    newPhaseHistogram(trace.PhaseLoad),
		trace.PhasePrepare: newPhaseHistogram(trace.PhasePrepare),
		trace.PhaseBatch:   newPhaseHistogram(trace.PhaseBatch),
		trace.PhaseKernel:  newPhaseHistogram(trace.PhaseKernel),
		trace.PhaseRespond: newPhaseHistogram(trace.PhaseRespond),
		trace.PhaseMutate:  newPhaseHistogram(trace.PhaseMutate),
		trace.PhaseCompact: newPhaseHistogram(trace.PhaseCompact),
	}
)

func newPhaseHistogram(phase string) *obs.Histogram {
	return obs.NewHistogram(`spmm_serve_phase_seconds{phase="`+phase+`"}`,
		"Per-request time spent in the "+phase+" phase of a multiply.")
}

// observePhaseSeconds feeds one finished request record into the per-phase
// histograms (unlabelled phases — e.g. attempt-remote on a router — are the
// router's own obs concern and skipped here).
func observePhaseSeconds(rec trace.ReqRecord) {
	for _, sp := range rec.Spans {
		if h, ok := obsPhaseSeconds[sp.Name]; ok {
			h.Observe(float64(sp.Dur) / 1e9)
		}
	}
}
