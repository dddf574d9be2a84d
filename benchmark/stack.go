package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/matrix"
	"repro/internal/serve"
)

// serveWorkload is the shape of one serving workload. The load is the same
// for all four: a closed loop of 2 client goroutines on 2 keep-alive
// connections (callers — solver or GNN iterations — wait for C before
// sending the next B), client, router and replicas in one process over real
// loopback TCP, serve.Config.Threads = nproc, tuner off.
type serveWorkload struct {
	name   string
	shards []matrixRef
	k      int
	// window is serve.Config.BatchWindow: 0 dispatches every request
	// alone, 2 ms is the spmmserve default.
	window time.Duration
	// durable gives the server a data directory with fsync on.
	durable bool
	// mutateEvery makes client 0 replace every n-th multiply with a
	// mutation batch; 0 means the workload never mutates under load.
	mutateEvery int
	// replicas > 0 puts a cluster.Router (zero-value policy) over that
	// many replicas; 0 is one server with no router.
	replicas int
}

const (
	clients        = 2 // closed-loop callers; never more than cores on the reference host
	warmupRequests = 20
	cacheBytes     = 256 << 20
	traceRing      = 512
)

var serveWorkloads = map[string]*serveWorkload{
	wlServeSmall: {name: wlServeSmall, shards: []matrixRef{{"dw4096", 0.05}}, k: 32},
	wlServeHeavy: {name: wlServeHeavy, shards: []matrixRef{{"nd24k", 0.05}}, k: 32,
		window: 2 * time.Millisecond},
	wlServeMutate: {name: wlServeMutate, shards: []matrixRef{{"cant", 0.05}}, k: 32,
		window: 2 * time.Millisecond, durable: true, mutateEvery: 10},
	wlClusterRouted: {name: wlClusterRouted, k: 32, replicas: 2,
		shards: []matrixRef{{"dw4096", 0.050}, {"dw4096", 0.051}, {"dw4096", 0.052}, {"dw4096", 0.053}}},
}

// node is one serve.Server on its own loopback listener.
type node struct {
	name string
	srv  *serve.Server
	base string
	stop func()
}

// shard is one registered matrix as the clients see it.
type shard struct {
	ref        matrixRef
	id         string
	rows, cols int
	nnz        int
	// owner is the index of the node that holds the matrix (ring owner
	// behind a router).
	owner int
}

// stack is a running serving system plus the clients that drive it.
type stack struct {
	wl      *serveWorkload
	nodes   []*node
	front   string // what the clients talk to: the router, or the one node
	stops   []func()
	shards  []shard
	clients []*loadClient
}

// listen serves h on a fresh loopback port and returns the base URL and a
// stop function that shuts the listener down and waits for Serve to return.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "benchmark: http serve:", err)
		}
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

func startNode(name string, cfg serve.Config) (*node, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	base, stopHTTP, err := listen(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &node{name: name, srv: srv, base: base, stop: func() {
		srv.Drain()
		stopHTTP()
		srv.Close()
	}}, nil
}

// newHTTPClient returns a client that keeps exactly one connection.
func newHTTPClient() (*http.Client, func()) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &http.Client{Transport: tr}, tr.CloseIdleConnections
}

// startStack brings the workload's system up, registers its matrices and
// warms it: the prepared formats are resident and every connection is open
// when it returns. traced turns request tracing on (ReqTraceRing) in every
// server and the router; measured runs leave it off.
func startStack(wl *serveWorkload, o options, traced bool) (_ *stack, err error) {
	st := &stack{wl: wl}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	ring := 0
	if traced {
		ring = traceRing
	}
	nproc := runtime.NumCPU()
	for i := 0; i < max(wl.replicas, 1); i++ {
		cfg := serve.Config{Threads: nproc, CacheBytes: cacheBytes, BatchWindow: wl.window, ReqTraceRing: ring}
		if wl.durable {
			dir, err := os.MkdirTemp(o.scratchDir(), "wal-")
			if err != nil {
				return nil, err
			}
			st.stops = append(st.stops, func() { os.RemoveAll(dir) })
			cfg.DataDir = dir
		}
		n, err := startNode(fmt.Sprintf("r%d", i), cfg)
		if err != nil {
			return nil, err
		}
		st.nodes = append(st.nodes, n)
		st.stops = append(st.stops, n.stop)
	}
	st.front = st.nodes[0].base
	if wl.replicas > 0 {
		var fleet []cluster.JoinRequest
		for _, n := range st.nodes {
			fleet = append(fleet, cluster.JoinRequest{Name: n.name, Base: n.base})
		}
		// The proxy transport is the router's default, built here only so
		// its connections can be closed before the replicas shut down: a
		// connection the transport dialled but never used keeps
		// http.Server.Shutdown waiting for five seconds.
		proxy := &http.Transport{MaxIdleConnsPerHost: 64}
		rt, err := cluster.New(cluster.Config{Replicas: fleet, ReqTraceRing: ring, HTTP: &http.Client{Transport: proxy}})
		if err != nil {
			return nil, err
		}
		base, stop, err := listen(rt.Handler())
		if err != nil {
			rt.Close()
			return nil, err
		}
		// The router's proxies must finish before its prober stops.
		st.stops = append(st.stops, func() { stop(); rt.Close(); proxy.CloseIdleConnections() })
		st.front = base
	}
	for i := 0; i < clients; i++ {
		hc, closeIdle := newHTTPClient()
		c := &loadClient{idx: i, api: &serve.Client{Base: st.front, HTTP: hc}, lat: make([]float64, 0, latCap)}
		for _, n := range st.nodes {
			c.direct = append(c.direct, &serve.Client{Base: n.base, HTTP: hc})
		}
		st.clients = append(st.clients, c)
		st.stops = append(st.stops, closeIdle)
	}

	for _, ref := range wl.shards {
		reg, err := st.clients[0].api.Register(serve.RegisterRequest{Name: ref.name, Scale: ref.scale * o.shrink})
		if err != nil {
			return nil, fmt.Errorf("register %s: %w", ref, err)
		}
		sh := shard{ref: ref, id: reg.ID, rows: reg.Rows, cols: reg.Cols, nnz: reg.NNZ}
		for i, n := range st.nodes {
			if _, ok := n.srv.Registry().Get(reg.ID); ok {
				sh.owner = i
			}
		}
		st.shards = append(st.shards, sh)
	}
	for _, c := range st.clients {
		for i, sh := range st.shards {
			c.b = append(c.b, matrix.NewDenseRand[float64](sh.cols, wl.k, o.seed*1000+int64(c.idx*len(st.shards)+i)))
		}
	}

	// Untimed warm-up, both clients at once so both connections open.
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for _, c := range st.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < warmupRequests*len(st.shards); n++ {
				sh := st.shards[n%len(st.shards)]
				if _, err := c.api.Multiply(sh.id, sh.rows, c.b[n%len(st.shards)], wl.k, 0); err != nil {
					errs[c.idx] = fmt.Errorf("warm-up multiply on %s: %w", sh.ref, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return st, nil
}

// close stops everything startStack started, last started first.
func (st *stack) close() {
	for i := len(st.stops) - 1; i >= 0; i-- {
		st.stops[i]()
	}
	st.stops = nil
}

// scratchDir is where durable servers keep their journals: inside the
// output directory, so the benchmark writes nothing outside its checkout
// and the journal sits on the same filesystem the results do.
func (o options) scratchDir() string {
	dir := filepath.Join(o.outDir, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return o.outDir
	}
	return dir
}
