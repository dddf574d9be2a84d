// Command spmmrouter fronts a fleet of spmmserve replicas with a
// consistent-hash router: content-addressed matrix IDs shard across the
// fleet by hash ring, hot matrices replicate to a secondary holder with
// load-aware spillover, a health prober ejects unresponsive replicas and
// re-admits them on recovery, and replicas can join or leave at runtime
// without draining traffic (moved matrices are registered and warmed on
// their new owner before the ring cuts over). The front speaks the
// spmmserve wire protocol, so existing clients — spmmload included —
// work against a cluster unchanged. See internal/cluster.
//
// Examples:
//
//	spmmrouter -addr :8070 -replicas a=http://127.0.0.1:8081,b=http://127.0.0.1:8082
//	spmmrouter -addr :8070 -replicas a=http://10.0.0.1:8080 -replicate-after 8 -metrics :9091
//
// Runtime membership changes go through the control plane:
//
//	curl -X POST :8070/v1/cluster/join -d '{"name":"c","base":"http://127.0.0.1:8083"}'
//	curl -X POST :8070/v1/cluster/leave -d '{"name":"a"}'
//	curl :8070/v1/cluster          # ring, placements, health, counters
//
// With -reqtrace-ring > 0 every multiply is traced end to end — the rid in
// the X-Spmm-Request-Id response header keys the distributed timeline:
//
//	curl ':8070/v1/trace/requests?min_ms=5'       # recent per-request timelines
//	curl :8070/v1/trace/requests/<rid>/chrome     # stitched Chrome trace (Perfetto-loadable)
//
// SIGINT stops the listener and the health prober; in-flight proxied
// requests complete.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

func main() {
	var (
		addr        = flag.String("addr", ":8070", "router listen address (use :0 for an ephemeral port)")
		replicas    = flag.String("replicas", "", "comma-separated initial fleet as name=baseURL pairs (required)")
		metricsAddr = flag.String("metrics", "", "serve /metrics, /healthz and /debug/vars on this address (e.g. :9091)")
		vnodes      = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per replica on the hash ring")
		replAfter   = flag.Int64("replicate-after", 16, "serve count past which a matrix replicates to a secondary holder (0 disables)")
		maxHolders  = flag.Int("max-holders", 2, "max replicas holding one matrix")
		spillMargin = flag.Int64("spill-margin", 2, "in-flight gap beyond which multiplies spill to a less-loaded holder")
		probeEvery  = flag.Duration("probe-interval", time.Second, "health probe cadence")
		probeTime   = flag.Duration("probe-timeout", 500*time.Millisecond, "per-probe timeout")
		ejectAfter  = flag.Int("eject-after", 2, "consecutive probe failures that eject a replica")
		attemptTime = flag.Duration("attempt-timeout", 30*time.Second, "per-proxy-attempt timeout before failing over (0 = none)")
		reqRing     = flag.Int("reqtrace-ring", 512, "per-request tracing: keep the last N request records, answer /v1/trace/requests, and stitch /v1/trace/requests/{rid}/chrome (0 disables)")
		slowReq     = flag.Duration("slow", time.Second, "log a request-ID-correlated warning for requests slower than this (0 disables; needs -reqtrace-ring > 0)")
	)
	flag.Parse()

	fleet, err := parseReplicas(*replicas)
	if err != nil {
		fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	rt, err := cluster.New(cluster.Config{
		Replicas:       fleet,
		VNodes:         *vnodes,
		ReplicateAfter: *replAfter,
		MaxHolders:     *maxHolders,
		SpillMargin:    *spillMargin,
		ProbeInterval:  *probeEvery,
		ProbeTimeout:   *probeTime,
		EjectAfter:     *ejectAfter,
		AttemptTimeout: *attemptTime,
		ReqTraceRing:   *reqRing,
		SlowRequest:    *slowReq,
		Log:            logger,
	})
	if err != nil {
		fatal(err)
	}
	defer rt.Close()
	rt.ExportMetrics(obs.Default)

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
	httpSrv := &http.Server{Handler: rt.Handler(), ReadHeaderTimeout: 5 * time.Second}

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
	names := make([]string, 0, len(fleet))
	for _, r := range fleet {
		names = append(names, r.Name)
	}
	logger.Info("spmmrouter listening", "addr", ln.Addr().String(), "fleet", names, "vnodes", *vnodes)

	select {
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	case <-ctx.Done():
		logger.Info("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			logger.Warn("shutdown incomplete", "err", err)
		}
		cancel()
		<-done
	}
	if monitor != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		monitor.Close(shutCtx)
		cancel()
	}
	logger.Info("spmmrouter stopped")
}

// parseReplicas turns "a=http://host:port,b=..." into the initial fleet.
func parseReplicas(spec string) ([]cluster.JoinRequest, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("-replicas is required (name=baseURL[,name=baseURL...])")
	}
	var out []cluster.JoinRequest
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, base, ok := strings.Cut(part, "=")
		if !ok || name == "" || base == "" {
			return nil, fmt.Errorf("bad replica %q, want name=baseURL", part)
		}
		out = append(out, cluster.JoinRequest{
			Name: strings.TrimSpace(name),
			Base: strings.TrimRight(strings.TrimSpace(base), "/"),
		})
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spmmrouter:", err)
	os.Exit(1)
}
