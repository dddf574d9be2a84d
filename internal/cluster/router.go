package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Config parameterizes the router. The zero value of every field has a
// serviceable default; Replicas is the only required input.
type Config struct {
	// Replicas is the initial fleet. More can join at runtime.
	Replicas []JoinRequest
	// VNodes is the ring's virtual-node count (default DefaultVNodes).
	VNodes int
	// ReplicateAfter is the serve-count threshold past which a matrix is
	// considered hot and replicated to a secondary holder; <= 0 disables
	// hot replication. Default 16.
	ReplicateAfter int64
	// MaxHolders caps how many replicas hold one matrix (default 2).
	MaxHolders int
	// SpillMargin is the in-flight-load gap beyond which a multiply
	// spills from the owner to a less-loaded secondary holder (default 2).
	SpillMargin int64
	// ProbeInterval paces the health prober (default 1s). Timers come
	// from Clock, so tests script probe rounds.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe in REAL time (default
	// 500ms): a hung replica is detected by its connection not answering,
	// which no virtual clock can observe.
	ProbeTimeout time.Duration
	// EjectAfter is the consecutive-probe-failure count that ejects a
	// replica from rotation (default 2). One success re-admits it.
	EjectAfter int
	// AttemptTimeout bounds one proxy attempt via Clock; 0 means no
	// per-attempt timeout (the client's own deadline still applies).
	AttemptTimeout time.Duration
	// Clock is the timer source; nil means the wall clock. Tests inject
	// clock.NewFake() to script probe cadence and attempt timeouts.
	Clock clock.Clock
	// HTTP is the proxy transport; nil uses a dedicated client.
	HTTP *http.Client
	// Log receives router events; nil discards.
	Log *log.Logger
	// ReqTraceRing enables request-scoped tracing at the router: it keeps
	// this many recent request records (one attempt-remote span per proxy
	// attempt, verdict in the detail), serves them at /v1/trace/requests,
	// and stitches them with replica-reported timings at
	// /v1/trace/requests/{rid}/chrome. 0 disables it (nil checks only on
	// the proxy path).
	ReqTraceRing int
	// SlowRequest, when > 0 with request tracing on and Slog set, logs one
	// structured line (request ID, attempts, per-phase ms) for every
	// multiply slower than this threshold end to end.
	SlowRequest time.Duration
	// Slog receives the slow-request lines; nil discards them.
	Slog *slog.Logger
}

// Router shards content-addressed matrix IDs across spmmserve replicas. It
// terminates the serve wire protocol on the front, proxies to replicas on
// the back, and owns the cluster's placement state: the hash ring, the
// holder set per matrix, health verdicts, and the rebalance pins that make
// ring changes drainless.
type Router struct {
	cfg   Config
	clk   clock.Clock
	httpc *http.Client
	logf  func(format string, args ...any)
	slog  *slog.Logger
	reqs  *trace.Requests

	ring atomic.Pointer[Ring]

	mu       sync.Mutex
	replicas map[string]*replica
	entries  map[string]*entry
	// metrics holds every replica name's traffic metrics for the life of
	// the router, so a replica that leaves and rejoins continues its series;
	// exported is the registry ExportMetrics named them in (nil before).
	// Both guarded by mu.
	metrics  map[string]*replicaMetrics
	exported *obs.Registry

	// Metrics: each fact is one field, incremented at one site;
	// ClusterStats and ExportMetrics (obs.go) both read it.
	requests      obs.Counter
	moves         obs.Counter
	spillovers    obs.Counter
	failovers     obs.Counter
	ejects        obs.Counter
	readmits      obs.Counter
	replications  obs.Counter
	probeFailures obs.Counter
	probes        atomic.Int64 // completed probe rounds; tests sync on it

	probeKick chan struct{}
	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// replica is the router's per-replica state. Health fields are guarded by
// the router mutex; the load/traffic counters are atomics read lock-free on
// the proxy path.
type replica struct {
	name string
	base string

	down  bool // prober verdict; guarded by Router.mu
	fails int  // consecutive probe failures; guarded by Router.mu
	// stateChange is when the prober last flipped this replica's verdict
	// (or when it joined); guarded by Router.mu. /v1/cluster reports the
	// age so operators can tell a flapping replica from a stable one.
	stateChange time.Time

	// inFlight goes down as well as up: it is the spillover load signal,
	// not a metric.
	inFlight atomic.Int64
	*replicaMetrics
}

// replicaMetrics is one replica name's proxy traffic, kept by the router
// across leave/rejoin (Router.metrics).
type replicaMetrics struct {
	proxied obs.Counter
	errors  obs.Counter
	seconds obs.Histogram
	// failovers counts multiplies this replica served after an earlier
	// candidate had already failed — who absorbs the fleet's failures.
	// /v1/cluster only; it has no series.
	failovers obs.Counter
}

// entry is the placement record of one registered matrix.
type entry struct {
	id   string
	rows int
	cols int
	// name/scale are the generator-spec provenance ("" for uploads):
	// the cheap way to re-materialize the matrix on a new holder. Without
	// one the rebalancer pulls canonical triplets from a live holder.
	name  string
	scale float64
	// holders are replica names with the matrix registered, in the order
	// they acquired it. Guarded by Router.mu.
	holders []string
	// mutated records that at least one mutation batch was applied: from
	// then on the generator spec no longer describes the content, so every
	// re-home/replication must go through the export path (base + overlay,
	// epoch-tagged). Guarded by Router.mu.
	mutated bool
	// mutMu serializes mutation fan-out against rebalance moves and hot
	// replication for this entry: a batch landing between a move's export
	// and its cutover would be lost on the new holder. Lock order: mutMu
	// before Router.mu, never the reverse.
	mutMu sync.Mutex
	// pinned, when set, overrides ring placement while a rebalance warms
	// the matrix on its new owner: requests keep landing on the pinned
	// holder until the cutover clears it. Guarded by Router.mu.
	pinned string
	// serves counts multiplies routed for this ID — the hot-replication
	// signal.
	serves atomic.Int64
	// replicating guards against stacking duplicate replication attempts.
	replicating bool
}

// New builds a router over the configured replicas and starts its health
// prober. Callers must Close it.
func New(cfg Config) (*Router, error) {
	if cfg.VNodes <= 0 {
		cfg.VNodes = DefaultVNodes
	}
	if cfg.ReplicateAfter == 0 {
		cfg.ReplicateAfter = 16
	}
	if cfg.MaxHolders <= 0 {
		cfg.MaxHolders = 2
	}
	if cfg.SpillMargin <= 0 {
		cfg.SpillMargin = 2
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = 2
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	}
	rt := &Router{
		cfg:       cfg,
		clk:       cfg.Clock,
		httpc:     cfg.HTTP,
		replicas:  map[string]*replica{},
		entries:   map[string]*entry{},
		metrics:   map[string]*replicaMetrics{},
		probeKick: make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
	rt.logf = func(string, ...any) {}
	if cfg.Log != nil {
		rt.logf = cfg.Log.Printf
	}
	rt.slog = cfg.Slog
	rt.reqs = trace.NewRequests(cfg.ReqTraceRing)
	names := make([]string, 0, len(cfg.Replicas))
	for _, spec := range cfg.Replicas {
		if spec.Name == "" || spec.Base == "" {
			return nil, fmt.Errorf("cluster: replica needs name and base, got %+v", spec)
		}
		if _, dup := rt.replicas[spec.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate replica name %q", spec.Name)
		}
		rt.replicas[spec.Name] = rt.newReplicaLocked(spec)
		names = append(names, spec.Name)
	}
	rt.ring.Store(NewRing(cfg.VNodes, names...))

	rt.wg.Add(1)
	go rt.proberLoop()
	rt.armProbe()
	return rt, nil
}

// newReplicaLocked builds a replica's state around its name's metrics,
// creating (and, on an exported router, naming) them on first sight.
// Callers hold rt.mu, or are New.
func (rt *Router) newReplicaLocked(spec JoinRequest) *replica {
	m, ok := rt.metrics[spec.Name]
	if !ok {
		m = &replicaMetrics{}
		rt.metrics[spec.Name] = m
		if rt.exported != nil {
			m.export(rt.exported, spec.Name)
		}
	}
	return &replica{name: spec.Name, base: spec.Base, stateChange: time.Now(), replicaMetrics: m}
}

// Close stops the prober. In-flight proxies complete on their own.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

// client builds a serve.Client against one replica for control-plane calls
// (export, register, prepare) the router issues itself.
func (rt *Router) client(rep *replica) *serve.Client {
	return &serve.Client{Base: rep.base, HTTP: rt.httpc, MaxAttempts: 2, RetryConnErrors: true}
}

// Handler is the router's HTTP surface: the serve protocol verbatim on the
// front plus the /v1/cluster control plane.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	// The serve-protocol and read-only routes count toward requests here,
	// before their handler runs; membership changes and /healthz do not.
	counted := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			rt.requests.Inc()
			h(w, r)
		})
	}
	counted("POST /v1/matrices", rt.handleRegister)
	counted("GET /v1/matrices", rt.handleList)
	counted("GET /v1/matrices/{id}", rt.handleProxy)
	counted("GET /v1/matrices/{id}/export", rt.handleProxy)
	counted("POST /v1/matrices/{id}/prepare", rt.handleProxy)
	counted("POST /v1/matrices/{id}/mutate", rt.handleMutate)
	counted("POST /v1/matrices/{id}/compact", rt.handleProxy)
	counted("POST /v1/matrices/{id}/multiply", rt.handleMultiply)
	counted("GET /v1/stats", rt.handleStats)
	counted("GET /v1/trace/requests", rt.handleTraceRequests)
	counted("GET /v1/trace/requests/{rid}/chrome", rt.handleTraceChrome)
	counted("GET /v1/cluster", rt.handleCluster)
	mux.HandleFunc("POST /v1/cluster/join", rt.handleJoin)
	mux.HandleFunc("POST /v1/cluster/leave", rt.handleLeave)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, serve.ErrorResponse{Error: err.Error()})
}

// handleRegister content-addresses the upload locally, routes it to the
// ring owner (falling over to the next alive preference), and records the
// placement. Because the ID is computed before any replica is contacted,
// placement is deterministic and re-registration is idempotent end to end.
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 256<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var rr serve.RegisterRequest
	if err := json.Unmarshal(body, &rr); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: register body: %w", err))
		return
	}
	m, err := serve.Materialize(rr)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	serve.Canonicalize(m)
	id := serve.ContentID(m)

	cands := rt.registerCandidates(id)
	if len(cands) == 0 {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("cluster: no replica available"))
		return
	}
	var lastErr error
	for _, rep := range cands {
		resp, release, err := rt.roundTrip(r.Context(), rep, http.MethodPost, "/v1/matrices", "application/json", body)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			relayResponse(w, resp, rep.name)
			release()
			return
		}
		var reg serve.RegisterResponse
		raw, err := io.ReadAll(resp.Body)
		release()
		if err != nil {
			lastErr = err
			continue
		}
		if err := json.Unmarshal(raw, &reg); err != nil {
			lastErr = err
			continue
		}
		if reg.ID != id {
			writeError(w, http.StatusBadGateway,
				fmt.Errorf("cluster: replica %s registered %s, router hashed %s", rep.name, reg.ID, id))
			return
		}
		rt.recordPlacement(&reg, rr, rep.name)
		w.Header().Set(serve.HeaderReplica, rep.name)
		writeJSON(w, http.StatusOK, &reg)
		return
	}
	writeError(w, http.StatusBadGateway, fmt.Errorf("cluster: register failed on every candidate: %w", lastErr))
}

// registerCandidates orders replicas for a registration: existing holders
// first (idempotent re-register), then ring preference, alive before down.
func (rt *Router) registerCandidates(id string) []*replica {
	ring := rt.ring.Load()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var names []string
	if e, ok := rt.entries[id]; ok {
		names = append(names, e.holders...)
	}
	names = append(names, ring.Owners(id, ring.Len())...)
	return rt.orderAliveLocked(names)
}

// orderAliveLocked dedups names into replicas, alive first, preserving
// relative order. Callers hold rt.mu.
func (rt *Router) orderAliveLocked(names []string) []*replica {
	seen := map[string]bool{}
	var alive, downs []*replica
	for _, n := range names {
		if seen[n] {
			continue
		}
		seen[n] = true
		rep, ok := rt.replicas[n]
		if !ok {
			continue
		}
		if rep.down {
			downs = append(downs, rep)
		} else {
			alive = append(alive, rep)
		}
	}
	return append(alive, downs...)
}

// recordPlacement records (or extends) the placement entry after a
// successful registration on rep.
func (rt *Router) recordPlacement(reg *serve.RegisterResponse, rr serve.RegisterRequest, rep string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	e, ok := rt.entries[reg.ID]
	if !ok {
		scale := rr.Scale
		if rr.Name != "" && scale == 0 {
			scale = 1
		}
		e = &entry{id: reg.ID, rows: reg.Rows, cols: reg.Cols, name: rr.Name, scale: scale}
		rt.entries[reg.ID] = e
	}
	e.addHolderLocked(rep)
}

// addHolderLocked appends a holder if absent. Callers hold Router.mu.
func (e *entry) addHolderLocked(name string) {
	for _, h := range e.holders {
		if h == name {
			return
		}
	}
	e.holders = append(e.holders, name)
}

func (e *entry) dropHolderLocked(name string) {
	kept := e.holders[:0]
	for _, h := range e.holders {
		if h != name {
			kept = append(kept, h)
		}
	}
	e.holders = kept
	if e.pinned == name {
		e.pinned = ""
	}
}

// plan orders the replicas to try for one request against id: the pinned
// holder during a rebalance cutover, then ring preference restricted to
// holders, then any remaining holders — alive before down, with one
// load-aware swap when the owner is loaded and a secondary holder is not
// (spillover).
func (rt *Router) plan(id string) (*entry, []*replica, error) {
	ring := rt.ring.Load()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	e, ok := rt.entries[id]
	if !ok {
		return nil, nil, fmt.Errorf("cluster: unknown matrix %q", id)
	}
	holds := map[string]bool{}
	for _, h := range e.holders {
		holds[h] = true
	}
	var names []string
	if e.pinned != "" && holds[e.pinned] {
		names = append(names, e.pinned)
	}
	for _, n := range ring.Owners(id, ring.Len()) {
		if holds[n] {
			names = append(names, n)
		}
	}
	names = append(names, e.holders...)
	cands := rt.orderAliveLocked(names)
	if len(cands) == 0 {
		return nil, nil, fmt.Errorf("cluster: matrix %q has no live holder", id)
	}
	if e.pinned == "" && len(cands) >= 2 && !cands[0].down && !cands[1].down {
		if cands[0].inFlight.Load() > cands[1].inFlight.Load()+rt.cfg.SpillMargin {
			cands[0], cands[1] = cands[1], cands[0]
			rt.spillovers.Inc()
		}
	}
	return e, cands, nil
}

// handleMultiply proxies a multiply with failover: candidates are tried in
// plan order, transport errors and overload/unavailable statuses move to
// the next holder, and the client sees only the final outcome — a replica
// kill mid-stream surfaces as a connection error on the router, not the
// client.
func (rt *Router) handleMultiply(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")

	// The router is the tracing edge: it adopts a client-supplied request
	// ID or mints one, records one attempt-remote span per proxy attempt
	// (verdict in the detail), and propagates the ID to whichever replica
	// serves the multiply. With tracing off, rid is "" and req is nil.
	rid := r.Header.Get(serve.HeaderRequestID)
	var req *trace.Req
	if rt.reqs.Enabled() {
		if rid == "" {
			rid = serve.MintRequestID()
		}
		req = rt.reqs.Begin(rid, id)
	}

	loadStart := req.Now()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		rt.failRequest(req, err)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req.Phase(trace.PhaseLoad, "panel", loadStart, 0)
	e, cands, err := rt.plan(id)
	if err != nil {
		rt.failRequest(req, err)
		writeError(w, http.StatusNotFound, err)
		return
	}
	path := "/v1/matrices/" + id + "/multiply"
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	hdrs := forwardHeader(r, serve.HeaderDeadlineMs)
	if rid != "" {
		hdrs = append(hdrs, headerPair{serve.HeaderRequestID, rid})
	}
	var lastErr error
	for i, rep := range cands {
		attemptStart := req.Now()
		resp, release, err := rt.roundTrip(r.Context(), rep, http.MethodPost, path, "application/octet-stream", body, hdrs...)
		if err != nil {
			verdict := attemptVerdict(r.Context(), err)
			req.Phase(trace.PhaseAttemptRemote, rep.name+" "+verdict, attemptStart, int64(i+1))
			lastErr = fmt.Errorf("cluster: replica %s: %w", rep.name, err)
			rt.logf("cluster: multiply %s on %s failed: %v", id, rep.name, err)
			continue
		}
		switch resp.StatusCode {
		case http.StatusOK:
			// Buffer the whole panel before acking. A replica killed after
			// sending its status line but before finishing the body must
			// surface here as a read error — and fail over — never as a
			// truncated 200 on the client. The attempt timer stays armed
			// until release, so a mid-body hang is still bounded.
			payload, rerr := io.ReadAll(resp.Body)
			if rerr != nil {
				release()
				req.Phase(trace.PhaseAttemptRemote, rep.name+" mid-response", attemptStart, int64(i+1))
				lastErr = fmt.Errorf("cluster: replica %s died mid-response: %w", rep.name, rerr)
				rt.logf("cluster: multiply %s on %s cut mid-response: %v", id, rep.name, rerr)
				continue
			}
			if i > 0 {
				rt.failovers.Inc()
				rep.failovers.Inc()
			}
			e.serves.Add(1)
			req.Phase(trace.PhaseAttemptRemote, rep.name+" ok", attemptStart, int64(i+1))
			respondStart := req.Now()
			// Headers come from resp — the attempt that actually succeeded —
			// so after a failover the client sees the survivor's variant,
			// cache verdict and timing, never the dead holder's.
			relayHeaders(w, resp, rep.name)
			w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
			if rid != "" {
				w.Header().Set(serve.HeaderRequestID, rid)
			}
			w.WriteHeader(resp.StatusCode)
			w.Write(payload)
			release()
			req.Phase(trace.PhaseRespond, "", respondStart, 0)
			rt.finishRequest(req)
			rt.maybeReplicate(e)
			return
		case http.StatusNotFound:
			// The replica lost the matrix (restarted without durability):
			// drop it from the holder set and try the next candidate.
			rt.mu.Lock()
			e.dropHolderLocked(rep.name)
			rt.mu.Unlock()
			req.Phase(trace.PhaseAttemptRemote, rep.name+" 404", attemptStart, int64(i+1))
			lastErr = fmt.Errorf("cluster: replica %s no longer holds %s", rep.name, id)
			release()
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			req.Phase(trace.PhaseAttemptRemote, rep.name+" "+strconv.Itoa(resp.StatusCode), attemptStart, int64(i+1))
			lastErr = fmt.Errorf("cluster: replica %s returned %d", rep.name, resp.StatusCode)
			if len(cands) == i+1 {
				// Out of candidates: relay the replica's own verdict
				// (Retry-After and all) instead of masking it.
				relayResponse(w, resp, rep.name)
				release()
				rt.failRequest(req, lastErr)
				return
			}
			release()
		default:
			// Deterministic client error (bad k, malformed panel): every
			// replica would answer the same, so relay immediately.
			req.Phase(trace.PhaseAttemptRemote, rep.name+" "+strconv.Itoa(resp.StatusCode), attemptStart, int64(i+1))
			relayResponse(w, resp, rep.name)
			release()
			rt.failRequest(req, fmt.Errorf("cluster: replica %s returned %d", rep.name, resp.StatusCode))
			return
		}
	}
	rt.failRequest(req, lastErr)
	writeError(w, http.StatusBadGateway, fmt.Errorf("cluster: all holders failed: %w", lastErr))
}

// attemptVerdict classifies a failed proxy attempt for its attempt-remote
// span: the attempt timer firing reads as "timeout", the client abandoning
// the request as "canceled", anything else as "conn-error".
func attemptVerdict(parent context.Context, err error) string {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if parent.Err() != nil {
			return "canceled"
		}
		return "timeout"
	}
	return "conn-error"
}

// handleProxy forwards info/export/prepare to the first holder that
// answers, with the same failover discipline as multiply.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	_, cands, err := rt.plan(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	path := r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	var lastErr error
	for _, rep := range cands {
		resp, release, err := rt.roundTrip(r.Context(), rep, r.Method, path, "application/json", nil)
		if err != nil {
			lastErr = err
			continue
		}
		relayResponse(w, resp, rep.name)
		release()
		return
	}
	writeError(w, http.StatusBadGateway, fmt.Errorf("cluster: all holders failed: %w", lastErr))
}

// handleMutate applies one mutation batch to EVERY holder of the matrix —
// unlike a multiply, a mutation must reach each copy or the copies diverge
// bitwise. The fan-out runs under the entry's mutation lock so it also
// serializes with rebalance moves (a batch cannot slip between a move's
// export and its cutover). A holder that fails the batch while another
// acked it has diverged and is dropped from the holder set; the client
// fails only when no holder acked.
func (rt *Router) handleMutate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, err := io.ReadAll(io.LimitReader(r.Body, 256<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rt.mu.Lock()
	e, ok := rt.entries[id]
	rt.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("cluster: unknown matrix %q", id))
		return
	}
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	rt.mu.Lock()
	holders := rt.orderAliveLocked(append([]string(nil), e.holders...))
	rt.mu.Unlock()
	if len(holders) == 0 {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("cluster: matrix %q has no live holder", id))
		return
	}
	path := "/v1/matrices/" + id + "/mutate"
	type mutReply struct {
		rep    string
		header http.Header
		status int
		body   []byte
	}
	var acked *mutReply
	var failed *mutReply
	var diverged []string
	var lastErr error
	for _, rep := range holders {
		resp, release, err := rt.roundTrip(r.Context(), rep, http.MethodPost, path, "application/json", body)
		if err != nil {
			diverged = append(diverged, rep.name)
			lastErr = fmt.Errorf("cluster: replica %s: %w", rep.name, err)
			rt.logf("cluster: mutate %s on %s failed: %v", id, rep.name, err)
			continue
		}
		payload, rerr := io.ReadAll(resp.Body)
		status, header := resp.StatusCode, resp.Header
		release()
		if rerr != nil {
			diverged = append(diverged, rep.name)
			lastErr = fmt.Errorf("cluster: replica %s died mid-response: %w", rep.name, rerr)
			continue
		}
		reply := &mutReply{rep: rep.name, header: header, status: status, body: payload}
		if status != http.StatusOK {
			failed = reply
			diverged = append(diverged, rep.name)
			lastErr = fmt.Errorf("cluster: replica %s returned %d", rep.name, status)
			continue
		}
		if acked == nil {
			acked = reply
		}
	}
	if acked == nil {
		// Nobody applied the batch, so nobody diverged: keep the holder set
		// and relay the most informative refusal.
		if failed != nil {
			for _, h := range []string{"Content-Type", "Retry-After"} {
				if v := failed.header.Get(h); v != "" {
					w.Header().Set(h, v)
				}
			}
			w.Header().Set(serve.HeaderReplica, failed.rep)
			w.WriteHeader(failed.status)
			w.Write(failed.body)
			return
		}
		writeError(w, http.StatusBadGateway, fmt.Errorf("cluster: mutate failed on every holder: %w", lastErr))
		return
	}
	rt.mu.Lock()
	e.mutated = true
	for _, name := range diverged {
		e.dropHolderLocked(name)
	}
	rt.mu.Unlock()
	for _, name := range diverged {
		rt.logf("cluster: dropped diverged holder %s of %s after mutate fan-out", name, id)
	}
	for _, h := range []string{"Content-Type", serve.HeaderEpoch, serve.HeaderContentHash} {
		if v := acked.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(serve.HeaderReplica, acked.rep)
	w.Header().Set("Content-Length", strconv.Itoa(len(acked.body)))
	w.WriteHeader(http.StatusOK)
	w.Write(acked.body)
}

// forwardHeader copies the named request headers into outbound form.
func forwardHeader(r *http.Request, names ...string) []headerPair {
	var out []headerPair
	for _, n := range names {
		if v := r.Header.Get(n); v != "" {
			out = append(out, headerPair{n, v})
		}
	}
	return out
}

type headerPair struct{ name, value string }

// roundTrip performs one proxy attempt against a replica, tracking load and
// latency. The returned release func must be called after the response body
// has been consumed; it disarms the attempt timer (scheduled on the
// router's clock so tests can script it) and settles the counters.
func (rt *Router) roundTrip(parent context.Context, rep *replica, method, path, contentType string, body []byte, extra ...headerPair) (*http.Response, func(), error) {
	ctx, cancel := context.WithCancel(parent)
	var timer clock.Timer
	if rt.cfg.AttemptTimeout > 0 {
		timer = rt.clk.AfterFunc(rt.cfg.AttemptTimeout, cancel)
	}
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rep.base+path, rdr)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	for _, h := range extra {
		req.Header.Set(h.name, h.value)
	}
	rep.inFlight.Add(1)
	rep.proxied.Inc()
	start := time.Now()
	resp, err := rt.httpc.Do(req)
	if err != nil {
		rep.inFlight.Add(-1)
		rep.errors.Inc()
		if timer != nil {
			timer.Stop()
		}
		cancel()
		return nil, nil, err
	}
	release := func() {
		resp.Body.Close()
		rep.inFlight.Add(-1)
		rep.seconds.Observe(time.Since(start).Seconds())
		if timer != nil {
			timer.Stop()
		}
		cancel()
	}
	return resp, release, nil
}

// relayHeaders copies the serve-protocol headers and the replica identity
// onto an outgoing response.
func relayHeaders(w http.ResponseWriter, resp *http.Response, replicaName string) {
	for _, h := range []string{"Content-Type", "Retry-After",
		serve.HeaderFormat, serve.HeaderCache, serve.HeaderVariant,
		serve.HeaderBatchWidth, serve.HeaderBatchK,
		serve.HeaderEpoch, serve.HeaderContentHash,
		serve.HeaderRequestID, serve.HeaderTiming} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(serve.HeaderReplica, replicaName)
}

// relayResponse copies a replica response to the client: headers, status,
// and the body stream.
func relayResponse(w http.ResponseWriter, resp *http.Response, replicaName string) {
	relayHeaders(w, resp, replicaName)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// maybeReplicate kicks off hot replication when an entry's serve count
// crosses the threshold and it still has holder headroom. The copy happens
// off the request path; concurrent triggers collapse onto one attempt.
func (rt *Router) maybeReplicate(e *entry) {
	if rt.cfg.ReplicateAfter <= 0 || e.serves.Load() < rt.cfg.ReplicateAfter {
		return
	}
	ring := rt.ring.Load()
	rt.mu.Lock()
	if e.replicating || len(e.holders) >= rt.cfg.MaxHolders || len(e.holders) >= len(rt.replicas) {
		rt.mu.Unlock()
		return
	}
	holds := map[string]bool{}
	for _, h := range e.holders {
		holds[h] = true
	}
	var target *replica
	for _, n := range ring.Owners(e.id, ring.Len()) {
		if rep, ok := rt.replicas[n]; ok && !holds[n] && !rep.down {
			target = rep
			break
		}
	}
	if target == nil {
		rt.mu.Unlock()
		return
	}
	e.replicating = true
	rt.mu.Unlock()

	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		err := rt.moveEntry(target, e)
		rt.mu.Lock()
		e.replicating = false
		if err == nil {
			e.addHolderLocked(target.name)
		}
		rt.mu.Unlock()
		if err != nil {
			rt.logf("cluster: replicate %s to %s: %v", e.id, target.name, err)
			return
		}
		rt.replications.Inc()
		rt.logf("cluster: replicated hot matrix %s to %s", e.id, target.name)
	}()
}

// handleList merges the live replicas' listings, deduped by ID in the
// router's placement order — so a serve.Client sees one coherent registry.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	merged := map[string]serve.MatrixInfo{}
	for _, rep := range rt.aliveReplicas() {
		infos, err := rt.client(rep).Matrices()
		if err != nil {
			continue
		}
		for _, info := range infos {
			if _, ok := merged[info.ID]; !ok {
				merged[info.ID] = info
			}
		}
	}
	out := make([]serve.MatrixInfo, 0, len(merged))
	for _, info := range merged {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

// handleStats aggregates the fleet's serve counters so single-node
// tooling (spmmload's summary, the e2e asserts) works against a cluster
// unchanged: counts sum, matrix totals dedup through the router's view.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	var agg serve.StatsResponse
	for _, rep := range rt.aliveReplicas() {
		st, err := rt.client(rep).Stats()
		if err != nil {
			continue
		}
		agg.Requests += st.Requests
		agg.Multiplies += st.Multiplies
		agg.Batches += st.Batches
		agg.BatchedRequests += st.BatchedRequests
		agg.Shed += st.Shed
		agg.Timeouts += st.Timeouts
		agg.InFlight += st.InFlight
		agg.Queued += st.Queued
		agg.Cache.Entries += st.Cache.Entries
		agg.Cache.Bytes += st.Cache.Bytes
		agg.Cache.CapacityBytes += st.Cache.CapacityBytes
		agg.Cache.Hits += st.Cache.Hits
		agg.Cache.Misses += st.Cache.Misses
		agg.Cache.Prepares += st.Cache.Prepares
		agg.Cache.Evictions += st.Cache.Evictions
		for v, n := range st.Variants {
			if agg.Variants == nil {
				agg.Variants = map[string]int64{}
			}
			agg.Variants[v] += n
		}
		if st.Delta != nil {
			if agg.Delta == nil {
				agg.Delta = &serve.DeltaStats{}
			}
			agg.Delta.Mutations += st.Delta.Mutations
			agg.Delta.Ops += st.Delta.Ops
			agg.Delta.Mutated += st.Delta.Mutated
			agg.Delta.OverlayNNZ += st.Delta.OverlayNNZ
			agg.Delta.Compactions += st.Delta.Compactions
			agg.Delta.CompactionErrors += st.Delta.CompactionErrors
		}
	}
	rt.mu.Lock()
	agg.Matrices = len(rt.entries)
	rt.mu.Unlock()
	writeJSON(w, http.StatusOK, &agg)
}

func (rt *Router) aliveReplicas() []*replica {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	names := make([]string, 0, len(rt.replicas))
	for n := range rt.replicas {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*replica, 0, len(names))
	for _, n := range names {
		if rep := rt.replicas[n]; !rep.down {
			out = append(out, rep)
		}
	}
	return out
}

// ClusterStats snapshots the router's placement and event counters.
func (rt *Router) ClusterStats() Stats {
	ring := rt.ring.Load()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st := Stats{
		Ring:          ring.Members(),
		Matrices:      len(rt.entries),
		Placements:    map[string][]string{},
		Requests:      rt.requests.Value(),
		Moves:         rt.moves.Value(),
		Spillovers:    rt.spillovers.Value(),
		Failovers:     rt.failovers.Value(),
		Ejects:        rt.ejects.Value(),
		Readmits:      rt.readmits.Value(),
		Replications:  rt.replications.Value(),
		ProbeFailures: rt.probeFailures.Value(),
		ProbeRounds:   rt.probes.Load(),
	}
	held := map[string]int{}
	for id, e := range rt.entries {
		st.Placements[id] = append([]string(nil), e.holders...)
		for _, h := range e.holders {
			held[h]++
		}
	}
	names := make([]string, 0, len(rt.replicas))
	for n := range rt.replicas {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep := rt.replicas[n]
		st.Replicas = append(st.Replicas, ReplicaStats{
			Name: rep.name, Base: rep.base, Down: rep.down,
			Matrices:            held[rep.name],
			InFlight:            rep.inFlight.Load(),
			Proxied:             rep.proxied.Value(),
			Errors:              rep.errors.Value(),
			Failovers:           rep.failovers.Value(),
			ProbeFails:          rep.fails,
			SinceStateChangeSec: time.Since(rep.stateChange).Seconds(),
		})
	}
	return st
}

func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.ClusterStats())
}

func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	var jr JoinRequest
	if err := json.NewDecoder(r.Body).Decode(&jr); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	moved, err := rt.Join(jr)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	rt.mu.Lock()
	total := len(rt.entries)
	rt.mu.Unlock()
	writeJSON(w, http.StatusOK, JoinResponse{
		Moved: moved, Matrices: total, Ring: rt.ring.Load().Members(),
	})
}

func (rt *Router) handleLeave(w http.ResponseWriter, r *http.Request) {
	var lr LeaveRequest
	if err := json.NewDecoder(r.Body).Decode(&lr); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	moved, err := rt.Leave(lr.Name)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, LeaveResponse{Moved: moved, Ring: rt.ring.Load().Members()})
}
