package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/matrix"
	"repro/internal/serve"
)

// The deterministic multi-replica harness: N real spmmserve instances on
// loopback listeners, each behind a fault gate the test scripts (kill,
// hang, slow, a scripted answer per route), a router on an injected clock, and a standalone single-node
// server whose answers are the bitwise ground truth. Everything runs
// in-process, so the whole suite works under -race, and every timing the
// router owns (probe cadence, attempt timeouts) is scripted through
// clock.Fake — the only real time left is the loopback round-trip itself.

// faultGate wraps a replica's handler with a scriptable fault. The hang and
// slow faults apply to every route, /healthz included — a hung replica hangs
// its health checks too, which is exactly what the prober must detect. A
// scripted answer applies only to paths containing its match, so a replica
// can refuse one route while the rest of it (and its health) stay up.
type faultGate struct {
	mu      sync.Mutex
	inmates sync.WaitGroup // handlers inside the gate; teardown drains them
	mode    string         // "" healthy, "hang", "slow", "script"
	delay   time.Duration
	release chan struct{}
	match   string
	ans     answer
	hits    atomic.Int64 // scripted answers played
	next    http.Handler
}

// answer is one scripted reply. At most one of status, cut, short and hang
// is set; none means the replica answers itself, with header stamped on top.
type answer struct {
	status int         // answer this status (serve's error shape) without reaching the replica
	cut    bool        // send a 200 status line and headers promising a body, then drop the connection
	short  bool        // declare Content-Length 64, deliver 8 bytes
	hang   bool        // hold the request until heal
	header http.Header // added to whatever is answered
}

func (g *faultGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.inmates.Add(1)
	defer g.inmates.Done()
	g.mu.Lock()
	mode, delay, release, match, ans := g.mode, g.delay, g.release, g.match, g.ans
	g.mu.Unlock()
	switch mode {
	case "hang":
		// Hold the connection open without answering until healed. After
		// heal the stalled requests fail clean rather than pretend to work.
		<-release
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	case "slow":
		time.Sleep(delay)
	case "script":
		if strings.Contains(r.URL.Path, match) && ans.play(w, release) {
			g.hits.Add(1)
			return
		}
	}
	g.next.ServeHTTP(w, r)
}

// play performs the scripted reply; false means the replica should answer.
func (a answer) play(w http.ResponseWriter, release chan struct{}) bool {
	for name, vals := range a.header {
		w.Header()[name] = vals
	}
	switch {
	case a.hang:
		<-release
		w.WriteHeader(http.StatusServiceUnavailable)
	case a.cut:
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			panic(err)
		}
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: 64\r\n\r\n")
		buf.Flush()
		conn.Close()
	case a.short:
		// The server notices the handler under-delivered and closes the
		// connection instead of framing a next response onto it.
		w.Header().Set("Content-Length", "64")
		w.Write(make([]byte, 8))
	case a.status > 0:
		serve.WriteError(w, a.status, errors.New("scripted refusal"))
	default:
		return false
	}
	return true
}

// script plays ans for every subsequent request whose path contains match.
func (g *faultGate) script(match string, ans answer) {
	g.heal()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.mode, g.match, g.ans = "script", match, ans
	if ans.hang {
		g.release = make(chan struct{})
	}
}

// hang makes every subsequent request block until heal.
func (g *faultGate) hang() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.mode = "hang"
	g.release = make(chan struct{})
}

// slow delays every subsequent request by d.
func (g *faultGate) slow(d time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.mode = "slow"
	g.delay = d
}

// heal clears the fault and releases any requests stuck in it.
func (g *faultGate) heal() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.release != nil {
		close(g.release)
		g.release = nil
	}
	g.mode = ""
	g.delay = 0
}

// testReplica is one in-process spmmserve behind its fault gate.
type testReplica struct {
	name string
	base string
	srv  *serve.Server
	hs   *http.Server
	gate *faultGate
	dead bool
}

// kill abruptly closes the replica's listener and every open connection —
// in-flight requests see a reset, new ones a refused connection. The
// closest in-process stand-in for SIGKILL.
func (tr *testReplica) kill() {
	tr.dead = true
	tr.hs.Close()
}

// testCluster is the full fixture: replicas, router, reference server.
type testCluster struct {
	t        *testing.T
	clk      *clock.Fake
	router   *Router
	front    *httptest.Server // the router's HTTP face
	client   *serve.Client    // speaks to the cluster through the router
	replicas map[string]*testReplica

	refSrv    *serve.Server // single-node ground truth
	refServer *httptest.Server
	refClient *serve.Client

	// serveMutate adjusts each replica's serve.Config before start (nil for
	// the shared default) — the request-tracing tests switch the ring on.
	serveMutate func(*serve.Config)
}

// serveConfig is the per-replica server shape every harness replica and the
// single-node reference share — identical thread counts keep parallel
// accumulation order, and therefore bits, identical across them.
func serveConfig() serve.Config {
	return serve.Config{Threads: 2, MaxInFlight: 8, QueueDepth: 32}
}

func startReplica(t *testing.T, name string, mutate func(*serve.Config)) *testReplica {
	t.Helper()
	cfg := serveConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gate := &faultGate{next: srv.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: gate}
	go hs.Serve(ln)
	tr := &testReplica{
		name: name,
		base: "http://" + ln.Addr().String(),
		srv:  srv,
		hs:   hs,
		gate: gate,
	}
	t.Cleanup(func() {
		gate.heal()
		hs.Close()
		// A handler released from a fault (or still sleeping in a slow gate)
		// may only now be entering the server; wait it out before closing the
		// server's worker pool under it.
		gate.inmates.Wait()
		srv.Close()
	})
	return tr
}

// newTestCluster builds n replicas named r0..r(n-1), a router over them on
// a fake clock, and the single-node reference. cfg mutates the router
// config before construction (nil for defaults).
func newTestCluster(t *testing.T, n int, mutate func(*Config)) *testCluster {
	return newTestClusterServe(t, n, mutate, nil)
}

// newTestClusterServe additionally mutates every replica's serve.Config —
// how the tracing tests enable per-request rings on the fleet.
func newTestClusterServe(t *testing.T, n int, mutate func(*Config), serveMutate func(*serve.Config)) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, clk: clock.NewFake(), replicas: map[string]*testReplica{}, serveMutate: serveMutate}

	cfg := Config{
		Clock:          tc.clk,
		ProbeInterval:  time.Second,
		ProbeTimeout:   200 * time.Millisecond,
		EjectAfter:     2,
		AttemptTimeout: 5 * time.Second, // virtual: fires only when advanced past
		ReplicateAfter: 1 << 30,         // effectively off unless a test lowers it
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r%d", i)
		tr := startReplica(t, name, serveMutate)
		tc.replicas[name] = tr
		cfg.Replicas = append(cfg.Replicas, JoinRequest{Name: name, Base: tr.base})
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.router = rt
	tc.front = httptest.NewServer(rt.Handler())
	tc.client = serve.NewClient(tc.front.URL)
	t.Cleanup(func() {
		tc.front.Close()
		rt.Close()
	})

	refSrv, err := serve.New(serveConfig())
	if err != nil {
		t.Fatal(err)
	}
	tc.refSrv = refSrv
	tc.refServer = httptest.NewServer(refSrv.Handler())
	tc.refClient = serve.NewClient(tc.refServer.URL)
	t.Cleanup(func() {
		tc.refServer.Close()
		refSrv.Close()
	})
	return tc
}

// addReplica starts a fresh replica process and joins it through the
// router's control plane, returning the join verdict.
func (tc *testCluster) addReplica(name string) *JoinResponse {
	tc.t.Helper()
	tr := startReplica(tc.t, name, tc.serveMutate)
	tc.replicas[name] = tr
	var out JoinResponse
	if err := postJSON(tc.front.URL+"/v1/cluster/join", JoinRequest{Name: name, Base: tr.base}, &out); err != nil {
		tc.t.Fatalf("join %s: %v", name, err)
	}
	return &out
}

func postJSON(url string, in, out any) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("%s returned %d: %s", url, resp.StatusCode, raw)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// clusterStats fetches /v1/cluster through the router's HTTP face.
func (tc *testCluster) clusterStats() Stats {
	tc.t.Helper()
	resp, err := http.Get(tc.front.URL + "/v1/cluster")
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		tc.t.Fatal(err)
	}
	return st
}

// testMatrix is one registered matrix plus its ground truth handle.
type testMatrix struct {
	reg *serve.RegisterResponse
}

// registerMatrices uploads count deterministic random sparse matrices as
// raw triplets through the router AND the single-node reference, asserting
// both hash them identically — the content-address agreement everything
// downstream (failover bitwise checks, rebalance pulls) rests on.
func (tc *testCluster) registerMatrices(count int) []*testMatrix {
	tc.t.Helper()
	out := make([]*testMatrix, 0, count)
	for i := 0; i < count; i++ {
		rr := randomTriplets(60+i, 45+i, 350, int64(1000+i))
		reg, err := tc.client.Register(rr)
		if err != nil {
			tc.t.Fatalf("register %d via router: %v", i, err)
		}
		ref, err := tc.refClient.Register(rr)
		if err != nil {
			tc.t.Fatalf("register %d on reference: %v", i, err)
		}
		if reg.ID != ref.ID {
			tc.t.Fatalf("matrix %d: cluster hashed %s, reference %s", i, reg.ID, ref.ID)
		}
		out = append(out, &testMatrix{reg: reg})
	}
	return out
}

// randomTriplets builds a deterministic random COO upload. Duplicate
// coordinates are fine — the registry canonicalizes (dedups) server-side.
func randomTriplets(rows, cols, nnz int, seed int64) serve.RegisterRequest {
	rng := rand.New(rand.NewSource(seed))
	rr := serve.RegisterRequest{
		Rows:   rows,
		Cols:   cols,
		RowIdx: make([]int32, nnz),
		ColIdx: make([]int32, nnz),
		Vals:   make([]float64, nnz),
	}
	for i := 0; i < nnz; i++ {
		rr.RowIdx[i] = int32(rng.Intn(rows))
		rr.ColIdx[i] = int32(rng.Intn(cols))
		rr.Vals[i] = rng.NormFloat64()
	}
	return rr
}

// multiplyBoth runs the same multiply through the cluster and the
// single-node reference and requires bitwise-identical panels. It returns
// the cluster-side result for metadata assertions.
func (tc *testCluster) multiplyBoth(m *testMatrix, k int, seed int64) *serve.MultiplyResult {
	tc.t.Helper()
	b := matrix.NewDenseRand[float64](m.reg.Cols, k, seed)
	got, err := tc.client.Multiply(m.reg.ID, m.reg.Rows, b, k, 0)
	if err != nil {
		tc.t.Fatalf("cluster multiply %s: %v", m.reg.ID, err)
	}
	want, err := tc.refClient.Multiply(m.reg.ID, m.reg.Rows, b, k, 0)
	if err != nil {
		tc.t.Fatalf("reference multiply %s: %v", m.reg.ID, err)
	}
	if diff, _ := got.C.MaxAbsDiff(want.C); diff != 0 {
		tc.t.Fatalf("cluster result for %s differs from single-node by %g", m.reg.ID, diff)
	}
	if got.Replica == "" {
		tc.t.Fatalf("cluster response for %s carries no %s header", m.reg.ID, serve.HeaderReplica)
	}
	return got
}

// waitFor polls cond until it holds, failing after a generous real-time
// bound — the bridge between real proxy goroutines and scripted time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// advanceProbe advances scripted time past one probe interval and waits for
// the prober to complete the round it kicked off.
func (tc *testCluster) advanceProbe() {
	tc.t.Helper()
	before := tc.router.ProbeRounds()
	tc.clk.Advance(time.Second)
	waitFor(tc.t, "probe round to complete", func() bool {
		return tc.router.ProbeRounds() > before
	})
}
