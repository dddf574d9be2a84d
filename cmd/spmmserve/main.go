// Command spmmserve runs the SpMM service: a long-lived HTTP server that
// registers matrices (content-addressed), prepares each one once into its
// advisor-chosen sparse format (bytes-bounded LRU cache), and serves
// multiply requests with batching and admission control on the shared
// worker pool. See internal/serve for the protocol.
//
// Examples:
//
//	spmmserve -addr :8080 -metrics :9090
//	spmmserve -addr :8080 -cache-mb 64 -batch-window 2ms -max-inflight 8 -queue 32
//	spmmserve -addr :8080 -trace /tmp/serve.trace.json   # Chrome trace on exit
//
// SIGINT drains gracefully: the listener closes, in-flight multiplies (and
// the requests waiting behind them) finish, then the pool and the metrics
// endpoint shut down.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "service listen address (use :0 for an ephemeral port)")
		metricsAddr  = flag.String("metrics", "", "serve /metrics, /healthz, /debug/vars and /debug/pprof on this address (e.g. :9090)")
		threads      = flag.Int("t", parallel.MaxThreads(), "kernel threads per dispatch")
		cacheMB      = flag.Int("cache-mb", 256, "prepared-format cache budget in MiB (0 = unbounded)")
		batchWindow  = flag.Duration("batch-window", 2*time.Millisecond, "longest wait behind an in-flight dispatch of the same matrix before dispatching beside it; an idle matrix never waits (0 disables batching)")
		maxBatchK    = flag.Int("batch-maxk", 512, "max dense columns per coalesced dispatch")
		maxK         = flag.Int("maxk", 1024, "max dense columns per request")
		maxInFlight  = flag.Int("max-inflight", 0, "max concurrently executing multiplies (0 = 2x threads)")
		queue        = flag.Int("queue", -1, "admission queue depth before 429 shedding (-1 = 4x max-inflight)")
		deadline     = flag.Duration("deadline", 30*time.Second, "default per-request deadline")
		dataDir      = flag.String("data-dir", "", "durability directory: registrations are WAL-journaled (fsynced before ack) and recovered on restart; empty keeps the registry in memory only")
		snapEvery    = flag.Int("snapshot-every", 64, "compact the WAL into a snapshot after this many registrations (<0 disables)")
		compactRatio = flag.Float64("compact-ratio", 0, "background overlay compaction when overlay nnz exceeds this fraction of base nnz (0 = default 0.25, negative disables the ratio trigger)")
		compactCost  = flag.Float64("compact-cost", 0, "background overlay compaction when accumulated overlay-apply time exceeds this multiple of one re-preparation (0 = default 1.0, negative disables the cost trigger)")
		fsync        = flag.Bool("fsync", true, "fsync every WAL append before acking a registration (disable only for throwaway data)")
		traceOut     = flag.String("trace", "", "write a Chrome trace of the serving session to this file on exit")
		reqRing      = flag.Int("reqtrace-ring", 512, "per-request tracing: keep the last N request records and answer /v1/trace/requests (0 disables; disabled requests cost nothing)")
		slowReq      = flag.Duration("slow", time.Second, "log a request-ID-correlated warning for requests slower than this (0 disables; needs -reqtrace-ring > 0)")
		logFormat    = flag.String("log-format", "text", "log format: text or json")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn, error")
		drainGrace   = flag.Duration("drain", 10*time.Second, "graceful-drain budget on SIGINT")
	)
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		fatal(err)
	}

	var tr *trace.Tracer
	if *traceOut != "" {
		tr = trace.New(*threads+2, 1<<16)
		tr.SetEnabled(true)
		parallel.SetTracer(tr)
	}

	// serve.Config sentinel mapping: 0 means "default", negative means "no
	// queue at all" — translate the flag's -1=default / 0=none spelling.
	queueDepth := *queue
	switch {
	case queueDepth < 0:
		queueDepth = 0
	case queueDepth == 0:
		queueDepth = -1
	}
	cfg := serve.Config{
		Threads:         *threads,
		CacheBytes:      int64(*cacheMB) << 20,
		BatchWindow:     *batchWindow,
		MaxBatchK:       *maxBatchK,
		MaxK:            *maxK,
		MaxInFlight:     *maxInFlight,
		QueueDepth:      queueDepth,
		DefaultDeadline: *deadline,
		Tracer:          tr,
		ReqTraceRing:    *reqRing,
		SlowRequest:     *slowReq,
		Log:             logger,
		DataDir:         *dataDir,
		SnapshotEvery:   *snapEvery,
		NoFsync:         !*fsync,
		CompactRatio:    *compactRatio,
		CompactCost:     *compactCost,
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	srv.ExportMetrics(obs.Default)

	var monitor *obs.Server
	if *metricsAddr != "" {
		monitor, err = obs.Serve(*metricsAddr, obs.ServerOpts{Pprof: true, Log: logger})
		if err != nil {
			fatal(err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	done := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			done <- err
			return
		}
		done <- nil
	}()
	logger.Info("spmmserve listening", "addr", ln.Addr().String(),
		"threads", *threads, "cache_mb", *cacheMB,
		"batch_window", batchWindow.String(), "metrics", *metricsAddr)

	select {
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	case <-ctx.Done():
		logger.Info("draining", "grace", drainGrace.String())
		// Flip the drain flag first: requests racing the listener teardown
		// get a clean 503 + Retry-After instead of a connection reset.
		srv.Drain()
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			logger.Warn("drain incomplete", "err", err)
		}
		cancel()
		<-done
	}
	if monitor != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		monitor.Close(shutCtx)
		cancel()
	}
	if tr != nil {
		parallel.SetTracer(nil)
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		logger.Info("trace written", "path", *traceOut)
	}
	logger.Info("spmmserve stopped")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spmmserve:", err)
	os.Exit(1)
}
