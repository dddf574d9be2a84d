// Package serve is the suite's network serving layer: SpMM as a service.
// It exposes the existing pipeline — format conversion, advisor-driven
// format selection, the pooled parallel kernels — as a long-running
// HTTP/JSON (+ binary panel payload) service, turning the thesis' central
// economic observation into an architecture: the best format depends on the
// matrix, and preparation cost amortizes only across repeated multiplies,
// so a server that prepares once per registered matrix and multiplies many
// times is exactly where format selection pays.
//
// The server owns four pieces:
//
//   - A matrix registry with content-addressed IDs (upload MatrixMarket
//     text or a generator spec; identical matrices collapse to one entry).
//   - A bytes-bounded LRU cache of prepared formats, chosen per matrix by
//     internal/advisor and warmed (balanced partitions included) so
//     steady-state multiplies perform zero preparation.
//   - A multiply endpoint with request batching: requests that arrive while
//     a dispatch of their matrix is in flight are stacked into one wider-k
//     dispatch through the kernels' Opts layer on the shared parallel.Pool;
//     one that finds none in flight dispatches at once.
//   - Admission control: a bounded in-flight semaphore plus a bounded
//     queue; overload sheds with 429 + Retry-After, deadlines cancel
//     queued requests cooperatively, and shutdown drains in-flight work.
//
// Every stage is instrumented through internal/obs (request, batch,
// queue-depth and cache metrics on the same monitor `spmmbench -serve`
// uses) and internal/trace (one "batch" span per coalesced dispatch).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/matrix"
	"repro/internal/mmio"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/internal/tune"
)

// Config tunes a Server. The zero value is usable: defaults fill in New.
type Config struct {
	// Threads is the kernel thread count per dispatch (default
	// parallel.MaxThreads).
	Threads int
	// CacheBytes bounds the prepared-format cache (<= 0: unbounded).
	CacheBytes int64
	// BatchWindow is the most a request may wait behind a dispatch already
	// in flight against its matrix before it is dispatched beside it. A
	// request that finds none in flight never waits; those that do leave
	// together, as one wide dispatch, when it returns. 0 disables batching
	// (every request dispatches alone).
	BatchWindow time.Duration
	// MaxBatchK caps the total dense columns of one coalesced dispatch
	// (default 512): waiting requests that reach it leave at once, and a
	// single request at or above it never waits.
	MaxBatchK int
	// MaxK caps one request's panel width (default 1024).
	MaxK int
	// MaxInFlight bounds concurrently executing multiplies (default
	// 2×Threads — enough overlap to keep the batcher fed).
	MaxInFlight int
	// QueueDepth bounds admitted-but-waiting multiplies; beyond it the
	// server sheds with 429 (default 4×MaxInFlight).
	QueueDepth int
	// DefaultDeadline applies when a request carries no deadline header
	// (default 30s).
	DefaultDeadline time.Duration
	// Pool, when non-nil, is the worker pool kernels dispatch on; nil
	// makes the server own one sized to Threads.
	Pool *parallel.Pool
	// Tracer receives batch and kernel spans; nil disables tracing.
	Tracer *trace.Tracer
	// ReqTraceRing enables request-scoped tracing: the server keeps this
	// many recent per-request phase records (GET /v1/trace/requests), sets
	// the X-Spmm-Request-Id / X-Spmm-Timing response headers, and feeds the
	// spmm_serve_phase_seconds histograms. 0 disables it entirely — the
	// multiply hot path then pays only nil checks (0 allocs/op).
	ReqTraceRing int
	// SlowRequest, when > 0 with request tracing on, logs one structured
	// line (request ID + per-phase breakdown) for every multiply slower
	// than this threshold.
	SlowRequest time.Duration
	// Log receives serving lifecycle notes; nil discards them.
	Log *slog.Logger
	// Clock drives the BatchWindow timers; nil means the wall clock.
	// Tests inject clock.NewFake() so the bound expiring is a deterministic
	// Advance, not a sleep.
	Clock clock.Clock

	// DataDir enables crash-safe serving: registrations are journaled to
	// a fsynced WAL in this directory before they are acked, compacted
	// into a CRC-guarded snapshot, and replayed on startup. "" keeps the
	// registry purely in memory.
	DataDir string
	// SnapshotEvery compacts the WAL after this many registrations
	// (default 64; < 0 disables automatic snapshots).
	SnapshotEvery int
	// NoFsync skips the per-registration fsync — acks then survive a
	// process crash but not a machine crash.
	NoFsync bool
	// Injector arms durability fault points (tests only).
	Injector *harness.Injector

	// CompactRatio triggers a background overlay compaction once a mutated
	// matrix's pending overlay reaches this fraction of its base nonzeros
	// (default 0.25; negative disables the ratio trigger).
	CompactRatio float64
	// CompactCost is the break-even multiple for the measured trigger: a
	// compaction fires once the accumulated overlay-apply time reaches
	// CompactCost × the last measured base-preparation time (default 1.0;
	// negative disables the measured trigger).
	CompactCost float64

	// Tune, when non-nil, enables the online auto-tuner (internal/tune):
	// live multiplies are shadow-measured on a duty cycle and a measured-
	// faster kernel variant is promoted into the matrix's serving plan.
	// Threads, Promote, Persist and Log are filled by the server; the
	// caller sets policy (Duty, MinSamples, Margin, ...).
	Tune *tune.Config
}

// Server is the SpMM service: registry, cache, batcher and admission gate
// behind an http.Handler.
type Server struct {
	cfg     Config
	reg     *Registry
	adm     *admission
	pool    *parallel.Pool
	ownPool bool
	tracer  *trace.Tracer
	reqs    *trace.Requests
	log     *slog.Logger
	clk     clock.Clock
	store   *Store
	tuner   *tune.Tuner
	// draining flips when shutdown begins: new expensive requests get a
	// clean 503 + Retry-After instead of racing http.Server.Shutdown.
	draining atomic.Bool

	// The background compactor: a single goroutine draining a bounded
	// queue of matrices whose overlay crossed the cost model (each queued
	// at most once, see Matrix.compactQueued); costModel is the configured
	// policy. compactMu orders enqueues against the queue's close.
	costModel     delta.CostModel
	compactCh     chan *Matrix
	compactWG     sync.WaitGroup
	compactMu     sync.Mutex
	compactClosed bool

	// variants counts multiplies served per kernel variant name — the
	// /v1/stats view of which arms actually execute.
	variantMu sync.Mutex
	variants  map[string]int64

	// Metrics. Each fact the server counts is one field here (or on the
	// admission gate, registry, store or WAL it belongs to), incremented at
	// one site; /v1/stats and ExportMetrics (obs.go) are two readers of it.
	requests        obs.Counter
	multiplies      obs.Counter
	batches         obs.Counter
	batchedRequests obs.Counter
	batchWidth      obs.Histogram
	batchWait       obs.Histogram
	requestSeconds  obs.Histogram
	// The mutation subsystem (the /v1/stats Delta section).
	mutations         obs.Counter
	mutOps            obs.Counter
	compactions       obs.Counter
	compactionErrors  obs.Counter
	applySeconds      obs.Histogram
	compactionSeconds obs.Histogram
	phaseSeconds      [len(servePhases)]obs.Histogram
}

// New builds a Server, filling Config defaults. With DataDir set it opens
// the durability store and recovers every previously-acked registration
// (advisor plans included; formats re-prepare lazily on first use) before
// returning.
func New(cfg Config) (*Server, error) {
	if cfg.Threads < 1 {
		cfg.Threads = parallel.MaxThreads()
	}
	if cfg.MaxBatchK < 1 {
		cfg.MaxBatchK = 512
	}
	if cfg.MaxK < 1 {
		cfg.MaxK = 1024
	}
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = 2 * cfg.Threads
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 4 * cfg.MaxInFlight
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 30 * time.Second
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 64
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	if cfg.CompactRatio == 0 {
		cfg.CompactRatio = 0.25
	}
	if cfg.CompactCost == 0 {
		cfg.CompactCost = 1.0
	}
	s := &Server{
		cfg:       cfg,
		reg:       NewRegistry(cfg.CacheBytes, cfg.Threads),
		adm:       newAdmission(cfg.MaxInFlight, cfg.QueueDepth),
		pool:      cfg.Pool,
		tracer:    cfg.Tracer,
		reqs:      trace.NewRequests(cfg.ReqTraceRing),
		log:       cfg.Log,
		clk:       cfg.Clock,
		variants:  map[string]int64{},
		compactCh: make(chan *Matrix, 128),
	}
	s.costModel = delta.CostModel{BreakEven: cfg.CompactCost, MaxRatio: cfg.CompactRatio}
	if cfg.CompactCost < 0 {
		s.costModel.BreakEven = 0
	}
	if cfg.CompactRatio < 0 {
		s.costModel.MaxRatio = 0
	}
	if s.pool == nil {
		s.pool = parallel.NewPool(cfg.Threads)
		s.ownPool = true
	}
	profiles := map[string]*tune.Profile{}
	if cfg.DataDir != "" {
		st, recs, err := OpenStore(cfg.DataDir, StoreOpts{
			SnapshotEvery: cfg.SnapshotEvery,
			NoFsync:       cfg.NoFsync,
			Injector:      cfg.Injector,
			Log:           cfg.Log,
		})
		if err != nil {
			s.closePool()
			return nil, err
		}
		// Recovery is the write path with the journal not yet attached:
		// every record goes through the same apply the live handlers use.
		for i := range recs {
			rec := &recs[i]
			if _, _, _, err := s.reg.transact(rec.ID, func(*state) (*walRecord, error) { return rec, nil }); err != nil {
				// One unrecoverable record must not take the whole registry
				// down with it — skip it loudly.
				if s.log != nil {
					s.log.Warn("skipping unrecoverable record", "seq", rec.Seq, "kind", rec.Kind, "err", err)
				}
				continue
			}
			if rec.Profile != nil {
				profiles[rec.ID] = rec.Profile
			}
		}
		// The registry dump feeding snapshots carries the tuner's learned
		// profiles alongside the registrations, so a compaction that
		// truncates a profile's WAL record preserves it in the snapshot.
		st.dump = func() []walRecord {
			out := s.reg.dumpRecords()
			if s.tuner != nil {
				for _, p := range s.tuner.Profiles() {
					out = append(out, walRecord{Kind: walKindProfile, ID: p.ID, Profile: p})
				}
			}
			return out
		}
		s.reg.journal = st.Append
		s.store = st
	}
	s.compactWG.Add(1)
	go s.compactorLoop()
	if cfg.Tune != nil {
		tc := *cfg.Tune
		if tc.Threads < 1 {
			tc.Threads = cfg.Threads
		}
		if tc.Log == nil {
			tc.Log = cfg.Log
		}
		tc.Promote = func(id string, pr tune.Promotion) (int64, error) {
			plan, err := s.reg.Promote(context.Background(), id, pr.To)
			if err != nil {
				return 0, err
			}
			return plan.Version, nil
		}
		if s.store != nil {
			tc.Persist = s.persistProfile
		}
		s.tuner = tune.New(tc)
		// Warm-start recovered matrices from their newest recovered profile
		// (its plan half was already applied above, tuner or no tuner).
		for _, id := range s.reg.order {
			m := s.reg.matrices[id]
			st, prof := m.st.Load(), profiles[id]
			// A compacted matrix's current base diverged from the original
			// registration the profile (and the registration report) describe:
			// the tuner's lab copy and feature vector must track the CURRENT
			// base — its trials verify bitwise against served results — so the
			// learned profile is dropped and the features recomputed.
			feat := m.Report.Features
			if st.base != m.COO {
				f, err := advisor.Extract(st.base)
				if err != nil {
					// Tracking the stale base would make every shadow trial
					// diverge bitwise; leave the matrix untuned instead.
					if s.log != nil {
						s.log.Warn("feature extraction on recovered compacted base failed; matrix left untuned", "id", m.ID, "err", err)
					}
					continue
				}
				feat = advisor.NewReport(m.ID, f, []advisor.Environment{advisor.ParallelCPU}).Features
				prof = nil
			}
			if err := s.tuner.Restore(m.ID, st.base, st.plan.Block, feat,
				st.plan.Variant, st.plan.Version, prof); err != nil && s.log != nil {
				s.log.Warn("recovered tuning profile rejected; starting cold", "id", m.ID, "err", err)
			}
		}
	}
	return s, nil
}

// persistProfile durably appends a tuner profile record — the tuner's
// learned windows, not per-matrix state: Promote already journaled and
// published the plan the profile names. The commit runs immediately: by the
// time the tuner calls Persist its in-memory state (the source of the
// snapshot dump) already reflects the profile, so the compactor never needs
// to carry it.
func (s *Server) persistProfile(id string, p *tune.Profile) error {
	commit, err := s.reg.journal(&walRecord{Kind: walKindProfile, ID: id, Profile: p})
	if err != nil {
		return err
	}
	commit()
	return nil
}

// Tuner exposes the online auto-tuner (nil when tuning is disabled) — the
// load generator and the benchmarks flush it for deterministic reads.
func (s *Server) Tuner() *tune.Tuner { return s.tuner }

// countVariant attributes n served multiplies to a kernel variant.
func (s *Server) countVariant(variant string, n int64) {
	if variant == "" {
		return
	}
	s.variantMu.Lock()
	s.variants[variant] += n
	s.variantMu.Unlock()
}

// variantCounts snapshots the per-variant multiply counters.
func (s *Server) variantCounts() map[string]int64 {
	s.variantMu.Lock()
	defer s.variantMu.Unlock()
	if len(s.variants) == 0 {
		return nil
	}
	out := make(map[string]int64, len(s.variants))
	for k, v := range s.variants {
		out[k] = v
	}
	return out
}

func (s *Server) closePool() {
	if s.ownPool {
		s.pool.Close()
	}
}

// Registry exposes the matrix registry (the load generator's client and the
// tests inspect cache behaviour through it).
func (s *Server) Registry() *Registry { return s.reg }

// Drain marks the server as shutting down: register and multiply requests
// arriving after Drain get a clean 503 + Retry-After instead of racing the
// HTTP listener teardown, while already-admitted work runs to completion.
// Call it immediately before http.Server.Shutdown.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close releases resources the server owns (its worker pool, the
// durability store). Callers drain in-flight HTTP requests first
// (http.Server.Shutdown); Close does not interrupt running dispatches.
func (s *Server) Close() {
	if s.tuner != nil {
		// Stop the tuner before its Promote/Persist targets go away; Close
		// drains queued trials first.
		s.tuner.Close()
	}
	// Stop the compactor before the store: an in-flight compaction journals
	// through Store.Append and must finish before the WAL closes.
	s.compactMu.Lock()
	if !s.compactClosed {
		s.compactClosed = true
		close(s.compactCh)
	}
	s.compactMu.Unlock()
	s.compactWG.Wait()
	s.closePool()
	if s.store != nil {
		if err := s.store.Close(); err != nil && s.log != nil {
			s.log.Warn("durability store close failed", "err", err)
		}
	}
}

// requestCompact enqueues a background compaction for the matrix, dropping
// the request if one is already queued (the compactor re-evaluates the
// cost model when it runs) or the queue is full (a later trigger retries).
func (s *Server) requestCompact(m *Matrix) {
	if !m.compactQueued.CompareAndSwap(false, true) {
		return
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if !s.compactClosed {
		select {
		case s.compactCh <- m:
			return
		default:
		}
	}
	m.compactQueued.Store(false)
}

// compactorLoop is the background compactor goroutine: it serializes all
// compactions (they are CPU-heavy — a merge plus a format preparation) so
// mutation-heavy workloads cannot saturate the host with concurrent
// re-preparations.
func (s *Server) compactorLoop() {
	defer s.compactWG.Done()
	for m := range s.compactCh {
		m.compactQueued.Store(false)
		s.compactNow(m)
	}
}

// driftKeepWithin is the feature-drift threshold under which a compaction
// carries the tuner's measured arm windows over to the merged base: the
// matrix is still the same shape, so the rankings stay informative.
const driftKeepWithin = 0.25

// compactNow runs one compaction through the registry and settles the
// bookkeeping around it: counters, the compact trace span, and rebasing
// the online tuner onto the merged base (its lab copy must match the
// served base bitwise for shadow trials to verify).
func (s *Server) compactNow(m *Matrix) (bool, error) {
	id := m.ID
	start := time.Now()
	span := s.tracer.Start()
	did, err := s.reg.Compact(id)
	s.tracer.EndDetail(0, trace.PhaseCompact, id, span, 0)
	if err != nil {
		s.compactionErrors.Inc()
		if s.log != nil {
			s.log.Warn("overlay compaction failed", "id", id, "err", err)
		}
	}
	if !did {
		return false, err
	}
	dur := time.Since(start)
	s.compactions.Inc()
	s.compactionSeconds.Observe(dur.Seconds())
	s.phaseHistogram(trace.PhaseCompact).Observe(dur.Seconds())
	if s.log != nil {
		st := m.st.Load()
		s.log.Info("overlay compacted", "id", id, "epoch", st.epoch,
			"hash", st.hash, "seconds", dur.Seconds())
	}
	s.rebaseTuner(m)
	return did, err
}

// rebaseTuner swaps the tuner's lab state onto the matrix's current base
// (after a compaction or a mutated-state import). Measured arm windows
// carry over when the feature drift stays under driftKeepWithin; past it
// the matrix's arms restart cold. A feature-extraction failure untracks
// nothing — the stale state's trials are dropped by plan-version skew, so
// the tuner just stops learning for this matrix until the next rebase.
func (s *Server) rebaseTuner(m *Matrix) {
	if s.tuner == nil {
		return
	}
	st := m.st.Load()
	f, err := advisor.Extract(st.base)
	if err != nil {
		if s.log != nil {
			s.log.Warn("tuner rebase: feature extraction failed", "id", m.ID, "err", err)
		}
		return
	}
	feat := advisor.NewReport(m.ID, f, []advisor.Environment{advisor.ParallelCPU}).Features
	kept := s.tuner.Rebase(m.ID, st.base, st.plan.Block, feat, st.plan.Variant, st.plan.Version, driftKeepWithin)
	if s.log != nil {
		s.log.Info("tuner rebased onto merged base", "id", m.ID, "windows_kept", kept)
	}
}

// params assembles the kernel dispatch parameters for one multiply from its
// serving plan: schedule, block size, the server's pool and the tracer —
// the same Opts path the benchmark pipeline uses.
func (s *Server) params(plan Plan, k int) core.Params {
	return core.Params{
		Reps: 1, Threads: s.cfg.Threads, BlockSize: plan.Block, K: k, Seed: 1,
		Schedule: plan.Schedule, Pool: s.pool, Trace: s.tracer,
	}
}

// Handler returns the service mux:
//
//	POST /v1/matrices              register (JSON in, JSON out)
//	GET  /v1/matrices              list registered matrices
//	GET  /v1/matrices/{id}         one matrix's info
//	GET  /v1/matrices/{id}/export  registry-metadata export (base + pending overlay)
//	POST /v1/matrices/{id}/prepare warm the prepared-format cache
//	POST /v1/matrices/{id}/multiply?k=K   multiply (binary panels)
//	POST /v1/matrices/{id}/mutate  apply one insert/update/delete batch
//	POST /v1/matrices/{id}/compact force a synchronous overlay compaction
//	GET  /v1/stats                 serving counters snapshot
//	GET  /v1/tune                  auto-tuner decision trail
//	GET  /v1/trace/requests        recent per-request phase records
//	GET  /healthz                  liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Every API route counts toward requests here, before its handler runs
	// (so /v1/stats includes the request reading it); /healthz does not.
	counted := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			s.requests.Inc()
			h(w, r)
		})
	}
	counted("POST /v1/matrices", s.handleRegister)
	counted("GET /v1/matrices", s.handleList)
	counted("GET /v1/matrices/{id}", s.handleInfo)
	counted("GET /v1/matrices/{id}/export", s.handleExport)
	counted("POST /v1/matrices/{id}/prepare", s.handlePrepare)
	counted("POST /v1/matrices/{id}/multiply", s.handleMultiply)
	counted("POST /v1/matrices/{id}/mutate", s.handleMutate)
	counted("POST /v1/matrices/{id}/compact", s.handleCompact)
	counted("GET /v1/stats", s.handleStats)
	counted("GET /v1/tune", s.handleTune)
	counted("GET /v1/trace/requests", s.handleTraceRequests)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	return mux
}

// pendingBatch reports how many requests are waiting behind the matrix's
// in-flight dispatches — the synchronization hook tests poll before they
// release a held dispatch or advance the fake clock past BatchWindow.
func (s *Server) pendingBatch(id string) int {
	m, ok := s.reg.Get(id)
	if !ok {
		return 0
	}
	m.batch.mu.Lock()
	defer m.batch.mu.Unlock()
	return len(m.batch.pending)
}

// maxRegisterBody caps a register request body. The WAL's per-record replay
// limit (maxWALRecordBytes) is derived from it, so every registration the
// handler admits is guaranteed journalable and replayable.
const maxRegisterBody = 256 << 20

// ErrNotDurable marks a registration the WAL could not make durable; the
// server maps it to 503 so the client knows to retry, and the matrix is
// never acked or inserted.
var ErrNotDurable = errors.New("serve: registration could not be journaled")

// errDraining is the clean shutdown refusal: the listener is about to
// close, so new expensive work is turned away retryably.
var errDraining = errors.New("serve: draining for shutdown, retry elsewhere")

func isDurabilityErr(err error) bool { return errors.Is(err, ErrNotDurable) }

// WriteJSON writes v as the JSON body of a reply with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteError writes the protocol's error reply. A retryable status carries
// Retry-After, which feeds the client's backoff. The cluster router answers
// through it too, so its own refusals pace a client like a replica's.
func WriteError(w http.ResponseWriter, code int, err error) {
	if RetryableStatus(code) {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, code, ErrorResponse{Error: err.Error()})
}

// Materialize builds the COO matrix a register request describes: generator
// spec, inline MatrixMarket text, or raw triplets. It is exported so the
// cluster router can compute a registration's content-addressed ID (and
// thereby its shard owner) without registering anywhere first.
func Materialize(req RegisterRequest) (*matrix.COO[float64], error) {
	sources := 0
	for _, set := range []bool{req.MTX != "", req.Name != "", req.Triplets()} {
		if set {
			sources++
		}
	}
	if sources > 1 {
		return nil, errors.New("serve: register carries more than one matrix source")
	}
	switch {
	case req.MTX != "":
		return mmio.ReadCOO[float64](strings.NewReader(req.MTX))
	case req.Name != "":
		scale := req.Scale
		if scale == 0 {
			scale = 1
		}
		m, _, err := gen.GenerateScaled(req.Name, scale)
		return m, err
	case req.Triplets():
		m := &matrix.COO[float64]{
			Rows: req.Rows, Cols: req.Cols,
			RowIdx: req.RowIdx, ColIdx: req.ColIdx, Vals: req.Vals,
		}
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("serve: register triplets: %w", err)
		}
		return m, nil
	default:
		return nil, errors.New("serve: register needs a generator spec, MTX text, or triplets")
	}
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	var req RegisterRequest
	body := http.MaxBytesReader(w, r.Body, maxRegisterBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: bad register body: %w", err))
		return
	}
	if req.Import() {
		s.handleImport(w, r, &req)
		return
	}
	coo, err := Materialize(req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	// The WAL append (and its fsync) happens inside RegisterSourced,
	// before the matrix becomes visible — so by the time the 200 below is
	// written, the registration is already durable. A journaling failure
	// is a 503: the input was fine, the disk was not.
	m, existed, err := s.reg.RegisterSourced(coo, RegisterSource{Name: req.Name, Scale: req.Scale})
	if err != nil {
		code := http.StatusBadRequest
		if isDurabilityErr(err) {
			code = http.StatusServiceUnavailable
		}
		WriteError(w, code, err)
		return
	}
	// Warm the prepared format under the admission gate so a registration
	// burst cannot saturate the CPU outside the server's own bounds.
	var formatBytes int
	if err := s.adm.acquire(r.Context()); err == nil {
		sv, _, perr := s.reg.Prepared(r.Context(), m.ID)
		s.adm.release()
		if perr != nil {
			WriteError(w, http.StatusInternalServerError, perr)
			return
		}
		formatBytes = sv.Kernel.Bytes()
	}
	plan := m.Plan()
	advice := m.Report
	if s.tuner != nil {
		s.tuner.Track(m.ID, m.COO, plan.Block, m.Report.Features, plan.Variant, plan.Version)
		// A re-registered matrix that has already been shadow-measured gets
		// the measured rankings alongside the heuristic ones.
		advice.Measured = s.tuner.Measured(m.ID)
	}
	if s.log != nil {
		s.log.Info("matrix registered", "id", m.ID, "rows", m.COO.Rows,
			"nnz", m.COO.NNZ(), "format", plan.Format,
			"schedule", plan.Schedule.String(), "variant", plan.Variant,
			"existed", existed)
	}
	WriteJSON(w, http.StatusOK, RegisterResponse{
		ID: m.ID, Rows: m.COO.Rows, Cols: m.COO.Cols, NNZ: m.COO.NNZ(),
		Format: plan.Format, Schedule: plan.Schedule.String(), Block: plan.Block,
		Variant: plan.Variant, PlanVersion: plan.Version,
		Existed: existed, FormatBytes: formatBytes, Advice: advice,
	})
}

// handleImport is the mutated-state registration path (RegisterRequest
// with ServeID set): the cluster rebalancer shipping a matrix whose served
// state has diverged from its original registration. The receiver adopts
// the exporter's handle, verifies the base hash, installs base + overlay
// bitwise-identical, and points the tuner at the imported base.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request, req *RegisterRequest) {
	if !req.Triplets() {
		WriteError(w, http.StatusBadRequest, errors.New("serve: import needs the base triplets"))
		return
	}
	base := &matrix.COO[float64]{
		Rows: req.Rows, Cols: req.Cols,
		RowIdx: req.RowIdx, ColIdx: req.ColIdx, Vals: req.Vals,
	}
	ops, err := deltaOps(req.OvRowIdx, req.OvColIdx, req.OvVals, req.OvDel)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	m, existed, err := s.reg.ImportMutated(req.ServeID, base,
		RegisterSource{Name: req.Name, Scale: req.Scale},
		req.BaseHash, req.Epoch, req.CompactEpoch, ops)
	if err != nil {
		code := http.StatusBadRequest
		if isDurabilityErr(err) {
			code = http.StatusServiceUnavailable
		}
		WriteError(w, code, err)
		return
	}
	var formatBytes int
	if err := s.adm.acquire(r.Context()); err == nil {
		sv, _, perr := s.reg.Prepared(r.Context(), m.ID)
		s.adm.release()
		if perr != nil {
			WriteError(w, http.StatusInternalServerError, perr)
			return
		}
		formatBytes = sv.Kernel.Bytes()
	}
	if !existed {
		s.rebaseTuner(m)
	}
	st := m.st.Load()
	if s.log != nil {
		s.log.Info("matrix imported", "id", m.ID, "epoch", st.epoch,
			"hash", st.hash, "existed", existed)
	}
	WriteJSON(w, http.StatusOK, RegisterResponse{
		ID: m.ID, Rows: m.COO.Rows, Cols: m.COO.Cols, NNZ: st.base.NNZ(),
		Format: st.plan.Format, Schedule: st.plan.Schedule.String(), Block: st.plan.Block,
		Variant: st.plan.Variant, PlanVersion: st.plan.Version,
		Existed: existed, FormatBytes: formatBytes, Advice: m.Report,
		Epoch: st.epoch, Hash: st.hash,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.reg.List())
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, ok := s.reg.info(id)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: unknown matrix %q", id))
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

// handleExport serves the registry-metadata export: the CURRENT canonical
// base triplets, the pending overlay (epoch-tagged), and the generator-spec
// provenance — enough for any other replica to serve the identical bits at
// the identical epoch. This is the data path of a cluster shard move, and
// it works mid-mutation-stream: the state is captured in one atomic load,
// so the export is always a consistent epoch snapshot.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, ok := s.reg.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: unknown matrix %q", id))
		return
	}
	// The export is the matrix's registration record in wire form, except
	// that the triplets always travel (the receiver needs no generator).
	st := m.st.Load()
	rec := recordFor(m, st)
	w.Header().Set(HeaderEpoch, strconv.FormatInt(st.epoch, 10))
	w.Header().Set(HeaderContentHash, st.hash)
	WriteJSON(w, http.StatusOK, ExportRecord{
		ID: m.ID, Rows: m.COO.Rows, Cols: m.COO.Cols,
		Name: m.Source.Name, Scale: m.Source.Scale,
		RowIdx: st.base.RowIdx, ColIdx: st.base.ColIdx, Vals: st.base.Vals,
		Hash:  st.hash,
		Epoch: rec.Epoch, CompactEpoch: rec.CompactEpoch, BaseHash: rec.BaseHash,
		OvRowIdx: rec.MutRowIdx, OvColIdx: rec.MutColIdx, OvVals: rec.MutVals, OvDel: rec.MutDel,
	})
}

// handleMutate applies one atomic insert/update/delete batch to a served
// matrix. The batch is journaled (durability before visibility, exactly
// like registrations) and the new epoch's overlay installed before the ack;
// every multiply from the ack on reflects the batch, bit-exactly, and the
// response's epoch/hash identify that state.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	start := time.Now()
	id := r.PathValue("id")
	m, ok := s.reg.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: unknown matrix %q", id))
		return
	}
	var req MutateRequest
	body := http.MaxBytesReader(w, r.Body, maxRegisterBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: bad mutate body: %w", err))
		return
	}
	if len(req.Ops) == 0 {
		WriteError(w, http.StatusBadRequest, errors.New("serve: mutate batch carries no ops"))
		return
	}
	ops := make([]delta.Op, len(req.Ops))
	for i, op := range req.Ops {
		ops[i] = delta.Op{Row: op.Row, Col: op.Col, Val: op.Val, Del: op.Del}
	}
	span := s.tracer.Start()
	ms, err := s.reg.Mutate(id, ops)
	s.tracer.EndDetail(0, trace.PhaseMutate, id, span, int64(len(ops)))
	if err != nil {
		code := http.StatusBadRequest
		if isDurabilityErr(err) {
			code = http.StatusServiceUnavailable
		}
		WriteError(w, code, err)
		return
	}
	s.mutations.Inc()
	s.mutOps.Add(int64(len(ops)))
	s.phaseHistogram(trace.PhaseMutate).Observe(time.Since(start).Seconds())
	if s.reg.shouldCompact(m, s.costModel) {
		s.requestCompact(m)
	}
	w.Header().Set(HeaderEpoch, strconv.FormatInt(ms.epoch, 10))
	w.Header().Set(HeaderContentHash, ms.hash)
	WriteJSON(w, http.StatusOK, MutateResponse{
		ID: id, Epoch: ms.epoch, Hash: ms.hash,
		OverlayNNZ: ms.overlay.NNZ(), Applied: len(ops),
	})
}

// handleCompact forces a synchronous overlay compaction — the ops endpoint
// for "merge now, don't wait for the cost model". It shares the background
// compactor's code path (counters, tuner rebase included) and serializes
// with it on the matrix's writer lock.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	id := r.PathValue("id")
	m, ok := s.reg.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: unknown matrix %q", id))
		return
	}
	did, err := s.compactNow(m)
	if err != nil {
		code := http.StatusInternalServerError
		if isDurabilityErr(err) {
			code = http.StatusServiceUnavailable
		}
		WriteError(w, code, err)
		return
	}
	st := m.st.Load()
	WriteJSON(w, http.StatusOK, CompactResponse{
		ID: id, Compacted: did, Epoch: st.epoch, Hash: st.hash,
	})
}

// handlePrepare warms the prepared-format cache for one matrix under the
// admission gate — the cluster rebalancer's pre-cutover step, so the first
// multiply routed to a shard's new owner is a cache hit, not a prepare.
// Idempotent; the response (and the X-Spmm-Cache header) reports whether
// the plan-current format was already resident.
func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	id := r.PathValue("id")
	m, ok := s.reg.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: unknown matrix %q", id))
		return
	}
	if err := s.adm.acquire(r.Context()); err != nil {
		if errors.Is(err, ErrOverloaded) {
			WriteError(w, http.StatusTooManyRequests, err)
		} else {
			WriteError(w, http.StatusServiceUnavailable,
				fmt.Errorf("serve: deadline expired in queue: %w", err))
		}
		return
	}
	sv, hit, err := s.reg.Prepared(r.Context(), id)
	s.adm.release()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	cache := "prepare"
	if hit {
		cache = "hit"
	}
	w.Header().Set(HeaderCache, cache)
	WriteJSON(w, http.StatusOK, PrepareResponse{
		ID: m.ID, Cache: cache, Format: sv.Plan.Format,
		Variant: sv.Plan.Variant, FormatBytes: sv.Kernel.Bytes(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Matrices:        s.reg.Len(),
		Requests:        s.requests.Value(),
		Multiplies:      s.multiplies.Value(),
		Batches:         s.batches.Value(),
		BatchedRequests: s.batchedRequests.Value(),
		Shed:            s.adm.shed.Value(),
		Timeouts:        s.adm.timeouts.Value(),
		InFlight:        s.adm.executing.Load(),
		Queued:          s.adm.queued(),
		Cache:           s.reg.Stats(),
	}
	if s.store != nil {
		resp.Durability = s.store.Stats()
	}
	resp.Variants = s.variantCounts()
	if mutated, ovnnz := s.reg.deltaTotals(); mutated > 0 || s.mutations.Value() > 0 || s.compactions.Value() > 0 {
		resp.Delta = &DeltaStats{
			Mutations:        s.mutations.Value(),
			Ops:              s.mutOps.Value(),
			Mutated:          mutated,
			OverlayNNZ:       ovnnz,
			Compactions:      s.compactions.Value(),
			CompactionErrors: s.compactionErrors.Value(),
		}
	}
	if s.tuner != nil {
		ts := s.tuner.Stats()
		resp.Tune = &TuneSummary{
			Enabled: true, Trials: ts.Trials, Promotions: ts.Promotions,
			Rejects: ts.Rejects, Dropped: ts.Dropped, Stale: ts.Stale,
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleTune serves the auto-tuner's full decision trail: per-matrix arm
// rankings, promotion history and the global counters. With tuning disabled
// it reports {"enabled": false}.
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	if s.tuner == nil {
		WriteJSON(w, http.StatusOK, tune.Stats{})
		return
	}
	WriteJSON(w, http.StatusOK, s.tuner.Stats())
}

// handleMultiply is the data path: admission, panel read, prepared-format
// lookup (cache), batched dispatch, panel write.
func (s *Server) handleMultiply(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	start := time.Now()

	id := r.PathValue("id")
	m, ok := s.reg.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("serve: unknown matrix %q", id))
		return
	}
	k, err := strconv.Atoi(r.URL.Query().Get("k"))
	if err != nil || k < 1 || k > s.cfg.MaxK {
		WriteError(w, http.StatusBadRequest,
			fmt.Errorf("serve: k must be an integer in [1, %d]", s.cfg.MaxK))
		return
	}
	// A declared length that is not exactly the panel is refused here, before
	// it can take a queue slot; an undeclared one (chunked) is held to the
	// same size by the capped read below.
	bodyLen := int64(m.COO.Cols) * int64(k) * 8
	if r.ContentLength >= 0 && r.ContentLength != bodyLen {
		WriteError(w, http.StatusBadRequest,
			fmt.Errorf("serve: multiply body is %d bytes, a %dx%d panel is %d", r.ContentLength, m.COO.Cols, k, bodyLen))
		return
	}

	deadline := s.cfg.DefaultDeadline
	if h := r.Header.Get(HeaderDeadlineMs); h != "" {
		ms, err := strconv.Atoi(h)
		if err != nil || ms < 1 {
			WriteError(w, http.StatusBadRequest,
				fmt.Errorf("serve: bad %s %q", HeaderDeadlineMs, h))
			return
		}
		deadline = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	// The request timeline opens before admission so queue wait is on it.
	// With request tracing off, rid is "" and req is nil — every
	// instrumentation call below is then a free nil check. Its phases are
	// one chain of Steps from here — queue, load, prepare, the batcher's
	// batch and kernel, respond — so they add up to the request's total but
	// for what runs after the respond.
	rid, req := s.beginRequest(r, id)

	// Admission before the body read: overload answers 429 without paying
	// for the payload, and a queued request that times out leaves without
	// executing — the harness' cooperative-cancellation contract.
	if err := s.adm.acquire(ctx); err != nil {
		s.failRequest(req, err)
		if errors.Is(err, ErrOverloaded) {
			WriteError(w, http.StatusTooManyRequests, err)
		} else {
			WriteError(w, http.StatusServiceUnavailable,
				fmt.Errorf("serve: deadline expired in queue: %w", err))
		}
		return
	}
	defer s.adm.release()
	req.Step(trace.PhaseQueue, "", 0)

	// The handler's references to B and its dispatch's C are released on
	// return — unless the tuner sampled the pair for a shadow trial, which
	// then owns them for good (the collector takes the buffers after it).
	b := leasePanel(m.COO.Cols, k)
	var res batchResult
	sampled := false
	defer func() {
		if !sampled {
			b.Release()
			res.lease.Release()
		}
	}()
	if err := fillPanel(http.MaxBytesReader(w, r.Body, bodyLen), &b.panel); err != nil {
		s.failRequest(req, err)
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	req.Step(trace.PhaseLoad, "panel", int64(k))

	sv, hit, err := s.reg.Prepared(ctx, id)
	if err != nil {
		s.failRequest(req, err)
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	cache := "prepare"
	if hit {
		cache = "hit"
	}
	req.Step(trace.PhasePrepare, cache, 0)

	res = s.multiply(ctx, m, sv, b, k, req)
	if res.err != nil {
		s.failRequest(req, res.err)
		code := http.StatusInternalServerError
		if errors.Is(res.err, context.DeadlineExceeded) || errors.Is(res.err, context.Canceled) {
			code = http.StatusServiceUnavailable
		}
		WriteError(w, code, res.err)
		return
	}

	// Hand the request panel and the served result to the tuner (res.c is
	// this request's column view of its dispatch's C). On the duty cycle the
	// pair becomes a shadow trial — off this request's critical path. A
	// matrix with a pending overlay is never offered: shadow trials replay
	// against the base-only prepared formats and would mis-verify.
	if s.tuner != nil && sv.Overlay.NNZ() == 0 {
		sampled = s.tuner.Offer(id, res.plan.Variant, res.plan.Version, &b.panel, res.c, k)
	}

	// One response path, traced or not: headers, then the panel through the
	// codec — one Write from the kernel's own output when the dispatch was
	// this request alone. The timing header has to precede the body, so its
	// respond entry only covers getting this far; the recorded span adds the
	// encode and the socket write.
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(m.COO.Rows*k*8))
	w.Header().Set(HeaderFormat, res.plan.Format)
	w.Header().Set(HeaderVariant, res.plan.Variant)
	// Epoch/hash headers only once the matrix has mutated: at epoch 0 the
	// served hash IS the request path's ID, and the clean multiply path
	// stays at its baseline header (and allocation) budget.
	if sv.Epoch > 0 {
		w.Header().Set(HeaderEpoch, strconv.FormatInt(sv.Epoch, 10))
		w.Header().Set(HeaderContentHash, sv.Hash)
	}
	w.Header().Set(HeaderCache, cache)
	w.Header().Set(HeaderBatchWidth, strconv.Itoa(res.width))
	w.Header().Set(HeaderBatchK, strconv.Itoa(res.k))
	if req != nil {
		snap := req.Snapshot()
		w.Header().Set(HeaderRequestID, rid)
		w.Header().Set(HeaderTiming, FormatTiming(snap, trace.PhaseRespond, snap.TotalNs-req.Pos()))
	}
	if err := WritePanel(w, res.c, k); err != nil && s.log != nil {
		s.log.Warn("multiply response write failed", "id", id, "rid", rid, "err", err)
	}
	s.finishRequest(req, trace.PhaseRespond)
	s.requestSeconds.Observe(time.Since(start).Seconds())
}
