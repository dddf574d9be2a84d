package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
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
	// ReqTraceRing enables request-scoped tracing at the router: it keeps
	// this many recent request records (one attempt-remote span per proxy
	// attempt, verdict in the detail), serves them at /v1/trace/requests,
	// and stitches them with replica-reported timings at
	// /v1/trace/requests/{rid}/chrome. 0 disables it (nil checks only on
	// the proxy path).
	ReqTraceRing int
	// SlowRequest, when > 0 with request tracing on and Log set, logs one
	// structured line (request ID, attempts, per-phase ms) for every
	// multiply slower than this threshold end to end.
	SlowRequest time.Duration
	// Log receives router events (ejections, ring changes, failed
	// attempts) and the slow-request lines; nil discards them.
	Log *slog.Logger
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
	log   *slog.Logger
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
	// failovers counts requests this replica served after an earlier
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
	// holder until rehome clears it; a pin on a replica that has since left
	// the holder set is ignored. Guarded by Router.mu.
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
	rt.log = cfg.Log
	if rt.log == nil {
		rt.log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
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

// client builds a serve.Client against one replica for the typed
// control-plane calls the router issues itself (a move's register and
// prepare, the list/stats/trace aggregations).
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

// maxBody caps every body the router buffers — an inbound register, mutate
// or multiply, and a replica's reply. It is the replicas' own register cap;
// a replica still applies its tighter per-route limits to what gets through.
const maxBody = 256 << 20

// readSized buffers a body of declared length n (-1 when undeclared) under
// maxBody into a lease the caller may release: one exact read when the length
// is declared, a growing read behind http.MaxBytesReader, copied into a lease,
// otherwise. A body that ends short of its
// declared length fails with io.ErrUnexpectedEOF, an oversized one with
// *http.MaxBytesError (before a byte is read when it declared itself). w,
// when non-nil, is the response whose connection an oversized request
// should close.
func readSized(w http.ResponseWriter, body io.ReadCloser, n int64) (*serve.Lease, error) {
	if n > maxBody {
		return nil, &http.MaxBytesError{Limit: maxBody}
	}
	if n < 0 {
		raw, err := io.ReadAll(http.MaxBytesReader(w, body, maxBody))
		if err != nil {
			return nil, err
		}
		buf := serve.LeaseBytes(len(raw))
		copy(buf.Bytes(), raw)
		return buf, nil
	}
	buf := serve.LeaseBytes(int(n))
	_, err := io.ReadFull(body, buf.Bytes())
	return buf, err
}

// readBody buffers an inbound request body. On failure it has already
// answered — 413 for an oversized body, 400 for a broken one — before any
// replica was contacted.
func readBody(w http.ResponseWriter, r *http.Request) (*serve.Lease, error) {
	body, err := readSized(w, r.Body, r.ContentLength)
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		err = fmt.Errorf("cluster: request body: %w", err)
		serve.WriteError(w, code, err)
	}
	return body, err
}

// outbound is one request as the router sends it to a replica.
type outbound struct {
	method, path string
	contentType  string       // of body
	body         *serve.Lease // nil for a bodiless request
	header       []headerPair
}

type headerPair struct{ name, value string }

// reply is a replica's complete answer: attempt has read the whole body, so
// holding a reply pins no connection, timer or counter. relay releases the
// body; a reply that is never relayed leaves its buffer to the collector.
type reply struct {
	rep    *replica
	status int
	header http.Header
	body   *serve.Lease
}

// errMidResponse marks an attempt whose replica answered a status line and
// then failed to deliver the body it promised.
var errMidResponse = errors.New("cut mid-response")

// attempt is the only function that sends a request to a replica. It bounds
// the whole exchange — connect to last body byte — by AttemptTimeout on the
// router clock, settles the replica's load and traffic counters, and reads
// the body once, so a replica killed mid-body, hung mid-body or lying about
// its length is a failed attempt like one that never connected.
func (rt *Router) attempt(ctx context.Context, rep *replica, out outbound) (reply, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if rt.cfg.AttemptTimeout > 0 {
		defer rt.clk.AfterFunc(rt.cfg.AttemptTimeout, cancel).Stop()
	}
	req, err := http.NewRequestWithContext(ctx, out.method, rep.base+out.path, nil)
	if err != nil {
		return reply{}, err
	}
	out.body.SetBody(req) // under a reference of its own, until the transport closes it
	if out.body != nil {
		req.Header.Set("Content-Type", out.contentType)
	}
	for _, h := range out.header {
		req.Header.Set(h.name, h.value)
	}
	rep.inFlight.Add(1)
	defer rep.inFlight.Add(-1)
	rep.proxied.Inc()
	start := time.Now()
	resp, err := rt.httpc.Do(req)
	if err != nil {
		rep.errors.Inc()
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := readSized(nil, resp.Body, resp.ContentLength)
	if err != nil {
		rep.errors.Inc()
		return reply{}, fmt.Errorf("%w: %w", errMidResponse, err)
	}
	rep.seconds.Observe(time.Since(start).Seconds())
	return reply{rep: rep, status: resp.StatusCode, header: resp.Header, body: body}, nil
}

// attemptVerdict names an attempt's outcome for its attempt-remote span:
// "ok", the status code of any other answer, "mid-response" for a body that
// broke off, "timeout" for the attempt timer firing, "canceled" for the
// client abandoning the request, "conn-error" for anything else.
func attemptVerdict(parent context.Context, rp reply, err error) string {
	switch {
	case err == nil && rp.status == http.StatusOK:
		return "ok"
	case err == nil:
		return strconv.Itoa(rp.status)
	case errors.Is(err, errMidResponse):
		return "mid-response"
	case !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
		return "conn-error"
	case parent.Err() != nil:
		return "canceled"
	}
	return "timeout"
}

// forward is the only candidate loop and the only copy of the failover
// verdict table (DESIGN §11), for every route: a failed attempt moves on; a
// 404 drops the replica from e's holders (it lost the matrix) and moves on;
// a retryable status moves on unless this is the last candidate, whose
// verdict is then relayed with its Retry-After intact; any other answer is
// final — every replica would say the same. Each attempt is one
// attempt-remote span on tr (nil when untraced), verdict in the detail: a
// Step of tr's chain, so it starts where the phase before it ended. e is
// nil only while the matrix has no placement yet (a first registration).
func (rt *Router) forward(ctx context.Context, e *entry, cands []*replica, out outbound, tr *trace.Req) (reply, error) {
	var lastErr error
	for i, rep := range cands {
		rp, err := rt.attempt(ctx, rep, out)
		if tr != nil {
			tr.Step(trace.PhaseAttemptRemote, rep.name+" "+attemptVerdict(ctx, rp, err), int64(i+1))
		}
		switch {
		case err != nil:
			lastErr = fmt.Errorf("cluster: replica %s: %w", rep.name, err)
			rt.log.Warn("attempt failed", "method", out.method, "path", out.path, "replica", rep.name, "err", err)
		case rp.status == http.StatusNotFound && e != nil:
			rt.mu.Lock()
			e.dropHolderLocked(rep.name)
			rt.mu.Unlock()
			lastErr = fmt.Errorf("cluster: replica %s no longer holds %s", rep.name, e.id)
		case serve.RetryableStatus(rp.status) && i+1 < len(cands):
			lastErr = fmt.Errorf("cluster: replica %s returned %d", rep.name, rp.status)
		default:
			if i > 0 && rp.status == http.StatusOK {
				rt.failovers.Inc()
				rep.failovers.Inc()
			}
			return rp, nil
		}
	}
	return reply{}, fmt.Errorf("cluster: all holders failed: %w", lastErr)
}

// relay is the only place a replica's answer becomes the client's: status
// and body verbatim, Content-Type, Retry-After and every X-Spmm-* header the
// replica set — by rule, so a header serve adds later needs no edit here —
// plus the name of the replica that answered.
func (rp reply) relay(w http.ResponseWriter) {
	h := w.Header()
	for name, vals := range rp.header {
		if name == "Content-Type" || name == "Retry-After" || strings.HasPrefix(name, "X-Spmm-") {
			h[name] = vals
		}
	}
	h.Set(serve.HeaderReplica, rp.rep.name)
	body := rp.body.Bytes()
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(rp.status)
	w.Write(body)
	rp.body.Release()
}

// handleRegister content-addresses the upload locally, forwards it to the
// ring owner (falling over to the next alive preference), and records the
// placement. Because the ID is computed before any replica is contacted,
// placement is deterministic and re-registration is idempotent end to end.
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		return
	}
	defer body.Release()
	var rr serve.RegisterRequest
	if err := json.Unmarshal(body.Bytes(), &rr); err != nil {
		serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("cluster: register body: %w", err))
		return
	}
	m, err := serve.Materialize(rr)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	serve.Canonicalize(m)
	id := serve.ContentID(m)

	cands := rt.registerCandidates(id)
	if len(cands) == 0 {
		serve.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("cluster: no replica available"))
		return
	}
	rp, err := rt.forward(r.Context(), nil, cands,
		outbound{method: http.MethodPost, path: "/v1/matrices", contentType: "application/json", body: body}, nil)
	if err != nil {
		serve.WriteError(w, http.StatusBadGateway, err)
		return
	}
	if rp.status == http.StatusOK {
		var reg serve.RegisterResponse
		if err := json.Unmarshal(rp.body.Bytes(), &reg); err != nil {
			serve.WriteError(w, http.StatusBadGateway, fmt.Errorf("cluster: replica %s register reply: %w", rp.rep.name, err))
			return
		}
		if reg.ID != id {
			serve.WriteError(w, http.StatusBadGateway,
				fmt.Errorf("cluster: replica %s registered %s, router hashed %s", rp.rep.name, reg.ID, id))
			return
		}
		rt.recordPlacement(&reg, rr, rp.rep.name)
	}
	rp.relay(w)
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

// liveHolders is e's holder set as replicas, alive before down.
func (rt *Router) liveHolders(e *entry) []*replica {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.orderAliveLocked(e.holders)
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

// holdsLocked reports whether name is a holder. Callers hold Router.mu.
func (e *entry) holdsLocked(name string) bool {
	for _, h := range e.holders {
		if h == name {
			return true
		}
	}
	return false
}

// addHolderLocked appends a holder if absent. Callers hold Router.mu.
func (e *entry) addHolderLocked(name string) {
	if !e.holdsLocked(name) {
		e.holders = append(e.holders, name)
	}
}

// dropHolderLocked removes a holder. A pin left pointing at it is inert —
// plan honours a pin only on a holder — until rehome clears it.
func (e *entry) dropHolderLocked(name string) {
	kept := e.holders[:0]
	for _, h := range e.holders {
		if h != name {
			kept = append(kept, h)
		}
	}
	e.holders = kept
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
	var names []string
	pinned := e.pinned != "" && e.holdsLocked(e.pinned)
	if pinned {
		names = append(names, e.pinned)
	}
	for _, n := range ring.Owners(id, ring.Len()) {
		if e.holdsLocked(n) {
			names = append(names, n)
		}
	}
	names = append(names, e.holders...)
	cands := rt.orderAliveLocked(names)
	if len(cands) == 0 {
		return nil, nil, fmt.Errorf("cluster: matrix %q has no live holder", id)
	}
	if !pinned && len(cands) >= 2 && !cands[0].down && !cands[1].down {
		if cands[0].inFlight.Load() > cands[1].inFlight.Load()+rt.cfg.SpillMargin {
			cands[0], cands[1] = cands[1], cands[0]
			rt.spillovers.Inc()
		}
	}
	return e, cands, nil
}

// handleMultiply forwards a multiply to the matrix's holders in plan order;
// the client sees only the final outcome — a replica killed mid-stream is a
// failed attempt on the router, not an error on the client.
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

	// Plan before buffering: an unknown ID costs no buffer, and a known one's
	// body is held to its panel — the rule serve.handleMultiply applies — not
	// to maxBody (a length declared beyond that is still readBody's 413).
	e, cands, err := rt.plan(id)
	if err != nil {
		rt.failRequest(req, err)
		serve.WriteError(w, http.StatusNotFound, err)
		return
	}
	k, _ := strconv.Atoi(r.URL.Query().Get("k"))
	bodyLen := int64(e.cols) * int64(k) * 8
	if k < 1 || (r.ContentLength >= 0 && r.ContentLength <= maxBody && r.ContentLength != bodyLen) {
		err := fmt.Errorf("cluster: multiply body is %d bytes, a %dx%d panel (k a positive integer) is %d", r.ContentLength, e.cols, k, bodyLen)
		rt.failRequest(req, err)
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if r.ContentLength < 0 { // chunked: the read itself stops at the panel
		r.Body = http.MaxBytesReader(w, r.Body, bodyLen)
	}
	// The phases are one chain of Steps from the request's begin — load
	// (planning the route and reading the panel), each attempt, and respond,
	// which Finish closes — so they add up to the record's total exactly.
	body, err := readBody(w, r)
	if err != nil {
		rt.failRequest(req, err)
		return
	}
	defer body.Release()
	req.Step(trace.PhaseLoad, "panel", 0)
	out := outbound{method: http.MethodPost, path: r.URL.RequestURI(), contentType: "application/octet-stream", body: body}
	if v := r.Header.Get(serve.HeaderDeadlineMs); v != "" {
		out.header = append(out.header, headerPair{serve.HeaderDeadlineMs, v})
	}
	if rid != "" {
		out.header = append(out.header, headerPair{serve.HeaderRequestID, rid})
		w.Header().Set(serve.HeaderRequestID, rid)
	}
	rp, err := rt.forward(r.Context(), e, cands, out, req)
	if err != nil {
		rt.failRequest(req, err)
		serve.WriteError(w, http.StatusBadGateway, err)
		return
	}
	// Everything the client sees comes from rp — the attempt that actually
	// answered — so after a failover it is the survivor's variant, cache
	// verdict and timing, never the dead holder's.
	rp.relay(w)
	if rp.status != http.StatusOK {
		rt.failRequest(req, fmt.Errorf("cluster: replica %s returned %d", rp.rep.name, rp.status))
		return
	}
	rt.finishRequest(req, trace.PhaseRespond)
	e.serves.Add(1)
	rt.maybeReplicate(e)
}

// handleProxy forwards info/export/prepare/compact to the matrix's holders
// with the same failover as a multiply.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	e, cands, err := rt.plan(r.PathValue("id"))
	if err != nil {
		serve.WriteError(w, http.StatusNotFound, err)
		return
	}
	rp, err := rt.forward(r.Context(), e, cands, outbound{method: r.Method, path: r.URL.RequestURI()}, nil)
	if err != nil {
		serve.WriteError(w, http.StatusBadGateway, err)
		return
	}
	rp.relay(w)
}

// handleMutate applies one mutation batch to EVERY holder of the matrix —
// unlike a multiply, a mutation must reach each copy or the copies diverge
// bitwise — so it is the one route that fans out over attempt instead of
// forwarding. The fan-out runs under the entry's mutation lock so it also
// serializes with rebalance moves (a batch cannot slip between a move's
// export and its cutover). A holder that fails the batch while another
// acked it has diverged and is dropped from the holder set; the client
// fails only when no holder acked.
func (rt *Router) handleMutate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, err := readBody(w, r)
	if err != nil {
		return
	}
	defer body.Release()
	rt.mu.Lock()
	e, ok := rt.entries[id]
	rt.mu.Unlock()
	if !ok {
		serve.WriteError(w, http.StatusNotFound, fmt.Errorf("cluster: unknown matrix %q", id))
		return
	}
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	holders := rt.liveHolders(e)
	if len(holders) == 0 {
		serve.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("cluster: matrix %q has no live holder", id))
		return
	}
	out := outbound{method: http.MethodPost, path: r.URL.RequestURI(), contentType: "application/json", body: body}
	var acked, refused *reply
	var diverged []string
	var lastErr error
	for _, rep := range holders {
		rp, err := rt.attempt(r.Context(), rep, out)
		switch {
		case err != nil:
			lastErr = fmt.Errorf("cluster: replica %s: %w", rep.name, err)
			rt.log.Warn("mutate failed", "matrix", id, "replica", rep.name, "err", err)
		case rp.status != http.StatusOK:
			lastErr = fmt.Errorf("cluster: replica %s returned %d", rep.name, rp.status)
			refused = &rp
		default:
			if acked == nil {
				acked = &rp
			}
			continue
		}
		diverged = append(diverged, rep.name)
	}
	switch {
	case acked != nil:
		rt.mu.Lock()
		e.mutated = true
		for _, name := range diverged {
			e.dropHolderLocked(name)
		}
		rt.mu.Unlock()
		if len(diverged) > 0 {
			rt.log.Warn("dropped diverged holders after mutate fan-out", "matrix", id, "holders", diverged)
		}
		acked.relay(w)
	case refused != nil:
		// Nobody applied the batch, so nobody diverged: keep the holder set
		// and relay the most informative refusal.
		refused.relay(w)
	default:
		serve.WriteError(w, http.StatusBadGateway, fmt.Errorf("cluster: mutate failed on every holder: %w", lastErr))
	}
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
	serve.WriteJSON(w, http.StatusOK, out)
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
	serve.WriteJSON(w, http.StatusOK, &agg)
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
	serve.WriteJSON(w, http.StatusOK, rt.ClusterStats())
}

func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	var jr JoinRequest
	if err := json.NewDecoder(r.Body).Decode(&jr); err != nil {
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	moved, err := rt.Join(jr)
	if err != nil {
		serve.WriteError(w, http.StatusConflict, err)
		return
	}
	rt.mu.Lock()
	total := len(rt.entries)
	rt.mu.Unlock()
	serve.WriteJSON(w, http.StatusOK, JoinResponse{
		Moved: moved, Matrices: total, Ring: rt.ring.Load().Members(),
	})
}

func (rt *Router) handleLeave(w http.ResponseWriter, r *http.Request) {
	var lr LeaveRequest
	if err := json.NewDecoder(r.Body).Decode(&lr); err != nil {
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	moved, err := rt.Leave(lr.Name)
	if err != nil {
		serve.WriteError(w, http.StatusConflict, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, LeaveResponse{Moved: moved, Ring: rt.ring.Load().Members()})
}
