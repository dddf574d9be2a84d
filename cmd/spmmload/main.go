// Command spmmload drives a live spmmserve endpoint: it registers a matrix,
// fires concurrent multiply requests through internal/serve's client
// library, verifies every response bitwise against a local serial kernel of
// the server-chosen format, and reports latency percentiles, throughput,
// cache-hit and batching behaviour, and shed counts.
//
// Examples:
//
//	spmmload -addr http://127.0.0.1:8080 -matrix cant -scale 0.05 -workers 8 -n 200
//	spmmload -addr http://127.0.0.1:8080 -mtx path/to/matrix.mtx -k 64
//	spmmload -addr http://127.0.0.1:8080 -matrix torso1 -scale 0.02 -deadline 100ms
//	spmmload -addr http://127.0.0.1:8080 -matrix cant -mutate-rate 0.1 -n 500
//
// With -mutate-rate > 0, spmmload interleaves insert/update/delete batches
// with the multiply load (one batch per 1/rate multiplies, serialized),
// verifies every multiply bitwise against a client-side reference for the
// exact epoch the server answered at (X-Spmm-Epoch), and reports mutation
// ack latency percentiles plus the compactions the server performed.
//
// -addr also accepts a comma-separated endpoint list; requests round-robin
// across them and the matrix registers on every endpoint first (content
// addressing makes that idempotent). When the endpoint is an spmmrouter,
// the report breaks successes down by the replica that served each one
// (X-Spmm-Replica) and appends the router's /v1/cluster summary.
//
// Against an endpoint with request tracing on (-reqtrace-ring), every
// response carries X-Spmm-Request-Id and an X-Spmm-Timing phase breakdown;
// the report then adds per-phase p50/p90/p99 (where server time went:
// queue, prepare, batch wait, kernel, respond) and names the slowest
// request IDs for follow-up against /v1/trace/requests.
//
// Exit status is non-zero when any verified response mismatches or every
// request failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/mmio"
	"repro/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "spmmserve or spmmrouter base URL (comma-separate several to round-robin)")
		name     = flag.String("matrix", "cant", "generator-registry matrix name")
		scale    = flag.Float64("scale", 0.05, "generator scale factor")
		mtxPath  = flag.String("mtx", "", "MatrixMarket file to upload instead of a generator spec")
		kArg     = flag.Int("k", 32, "dense columns per multiply request")
		workers  = flag.Int("workers", 8, "concurrent client workers")
		requests = flag.Int("n", 200, "total multiply requests")
		deadline = flag.Duration("deadline", 0, "per-request deadline (0 = server default)")
		verify   = flag.Bool("verify", true, "verify responses bitwise against a local serial kernel")
		retries  = flag.Int("retries", 0, "retries per request on 429/503 (capped exponential backoff + jitter, honoring Retry-After)")
		retryCon = flag.Bool("retry-conn", false, "also retry transport errors — rides out a server crash-and-restart window")
		mutRate  = flag.Float64("mutate-rate", 0, "mutation batches per multiply (0.1 = one batch per ten multiplies; 0 disables mutation traffic)")
		mutBatch = flag.Int("mutate-batch", 8, "insert/update/delete ops per mutation batch")
	)
	flag.Parse()

	var clients []*serve.Client
	for _, a := range strings.Split(*addr, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		c := serve.NewClient(strings.TrimRight(a, "/"))
		c.MaxAttempts = *retries + 1
		c.RetryConnErrors = *retryCon
		clients = append(clients, c)
	}
	if len(clients) == 0 {
		fatal(fmt.Errorf("no endpoint in -addr %q", *addr))
	}
	client := clients[0]

	req := serve.RegisterRequest{Name: *name, Scale: *scale}
	var local *matrix.COO[float64]
	var err error
	if *mtxPath != "" {
		data, rerr := os.ReadFile(*mtxPath)
		if rerr != nil {
			fatal(rerr)
		}
		req = serve.RegisterRequest{MTX: string(data)}
		local, err = mmio.ReadCOO[float64](strings.NewReader(string(data)))
	} else {
		local, _, err = gen.GenerateScaled(*name, *scale)
	}
	if err != nil {
		fatal(err)
	}

	reg, err := client.Register(req)
	if err != nil {
		fatal(err)
	}
	// Further endpoints register the same matrix; content addressing makes
	// this idempotent and cross-checks that every endpoint hashed the same
	// input.
	for _, c := range clients[1:] {
		other, err := c.Register(req)
		if err != nil {
			fatal(err)
		}
		if other.ID != reg.ID {
			fatal(fmt.Errorf("endpoint %s registered %s, endpoint %s registered %s — different inputs",
				client.Base, reg.ID, c.Base, other.ID))
		}
	}
	fmt.Printf("registered %s: %dx%d, %d nnz, format %s (%s schedule), existed=%v\n",
		reg.ID, reg.Rows, reg.Cols, reg.NNZ, reg.Format, reg.Schedule, reg.Existed)
	if best := reg.Advice.Best(advisor.ParallelCPU); best.Format != "" {
		fmt.Printf("advisor: %s — %s\n", best.Format, best.Reason)
	}

	// The local reference: the same canonical COO the server hashed,
	// prepared into the same format, multiplied serially. Parallel kernels
	// preserve per-row accumulation order, so server results must match
	// bitwise.
	var ref core.Kernel
	if *verify {
		serve.Canonicalize(local)
		if got := serve.ContentID(local); got != reg.ID {
			fatal(fmt.Errorf("local matrix hashes to %s but server registered %s — different inputs", got, reg.ID))
		}
		switch {
		case *mutRate > 0:
			// Mutation mode verifies per epoch below; no base reference.
		case reg.Epoch > 0:
			// The server's content has drifted from the registered base via
			// mutations; the local base is no longer the truth to check.
			fmt.Printf("note: matrix is at mutation epoch %d; base-content verification disabled\n", reg.Epoch)
		default:
			ref, err = core.New(reg.Format+"-serial", core.Options{})
			if err != nil {
				fatal(err)
			}
			p := core.DefaultParams()
			p.BlockSize = reg.Block
			p.K = *kArg
			if err := ref.Prepare(local, p); err != nil {
				fatal(err)
			}
		}
	}

	// Mutation mode: precompute the whole batch schedule and every epoch's
	// merged content, so each multiply verifies against the exact state its
	// X-Spmm-Epoch names. The sequence only lines up from a clean epoch 0.
	var mutPlan *mutationPlan
	var mutVerify *epochVerifier
	if *mutRate > 0 {
		if reg.Epoch > 0 {
			fatal(fmt.Errorf("matrix already at mutation epoch %d on the server; mutation mode needs a fresh state", reg.Epoch))
		}
		if !*verify {
			serve.Canonicalize(local)
		}
		batches := int(float64(*requests) * *mutRate)
		if batches < 1 {
			batches = 1
		}
		mutPlan, err = buildMutationPlan(local, batches, *mutBatch, 424242)
		if err != nil {
			fatal(err)
		}
		if *verify {
			mutVerify = newEpochVerifier(mutPlan, reg.Rows, *kArg)
		}
		fmt.Printf("mutating: %d batches of %d ops interleaved with the load (one per ~%.0f multiplies)\n",
			batches, *mutBatch, 1 / *mutRate)
	}

	var (
		mu         sync.Mutex
		latencies  []time.Duration
		mismatches int64
		sheds      int64
		failures   int64
		hits       int64
		batched    int64
		maxWidth   int64
		next       atomic.Int64
		// variants counts responses per executing kernel variant; more than
		// one entry means the plan was promoted mid-run. ordered keeps each
		// request's latency at its issue index so the steady-state (last
		// quarter) p50 can be compared against the warm-up (first quarter).
		variants = map[string]int64{}
		ordered  = make([]time.Duration, *requests)
		// byReplica counts successes per serving replica (X-Spmm-Replica);
		// empty against a plain spmmserve, populated through a router.
		byReplica = map[string]int64{}
		// phaseMs collects the server's per-phase breakdown (X-Spmm-Timing)
		// per response; empty when the endpoint runs with tracing disabled.
		phaseMs = map[string][]float64{}
		// tracked pairs each traced response's request ID with its e2e
		// latency so the report can name the slowest requests — the IDs to
		// feed back into /v1/trace/requests and the stitched Chrome export.
		tracked []requestObs
	)
	refC := matrix.NewDense[float64](reg.Rows, *kArg)
	start := time.Now()

	// The mutator runs beside the workers, paced off the multiply issue
	// counter; after the load drains it sends any remaining batches so the
	// run always ends at the plan's final epoch.
	var mutSt mutateStats
	loadDone := make(chan struct{})
	var mutWG sync.WaitGroup
	if mutPlan != nil {
		mutWG.Add(1)
		go func() {
			defer mutWG.Done()
			mutSt = runMutator(client, reg.ID, mutPlan, *mutRate,
				func() int64 { return next.Load() }, loadDone)
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(*requests) {
					return
				}
				b := matrix.NewDenseRand[float64](reg.Cols, *kArg, 1000+i)
				t0 := time.Now()
				res, err := clients[i%int64(len(clients))].Multiply(reg.ID, reg.Rows, b, *kArg, *deadline)
				lat := time.Since(t0)
				if err != nil {
					if se, ok := err.(*serve.StatusError); ok && se.Overloaded() {
						atomic.AddInt64(&sheds, 1)
					} else {
						atomic.AddInt64(&failures, 1)
						fmt.Fprintf(os.Stderr, "spmmload: request %d: %v\n", i, err)
					}
					continue
				}
				if res.CacheHit {
					atomic.AddInt64(&hits, 1)
				}
				if res.BatchWidth > 1 {
					atomic.AddInt64(&batched, 1)
				}
				for {
					old := atomic.LoadInt64(&maxWidth)
					if int64(res.BatchWidth) <= old || atomic.CompareAndSwapInt64(&maxWidth, old, int64(res.BatchWidth)) {
						break
					}
				}
				mu.Lock()
				latencies = append(latencies, lat)
				ordered[i] = lat
				if res.Variant != "" {
					variants[res.Variant]++
				}
				if res.Replica != "" {
					byReplica[res.Replica]++
				}
				for _, p := range res.Timing.Phases {
					phaseMs[p.Phase] = append(phaseMs[p.Phase], p.Ms)
				}
				if res.RequestID != "" {
					tracked = append(tracked, requestObs{id: res.RequestID, lat: lat, replica: res.Replica})
				}
				if mutVerify != nil {
					// Epoch-addressed reference: the server names which
					// mutation state it computed (X-Spmm-Epoch); the bitwise
					// contract makes csr-serial over that epoch's merged
					// content the universal truth.
					diff, checked, verr := mutVerify.verify(res.Epoch, b, res.C)
					if verr != nil {
						fatal(verr)
					}
					if checked && diff != 0 {
						atomic.AddInt64(&mismatches, 1)
						fmt.Fprintf(os.Stderr, "spmmload: request %d: epoch %d result differs from reference by %g\n",
							i, res.Epoch, diff)
					}
				} else if ref != nil {
					// Serial reference under the same lock: one scratch C,
					// and the serial rep keeps the client honest about what
					// the server actually computed.
					p := core.DefaultParams()
					p.BlockSize = reg.Block
					p.K = *kArg
					if err := ref.Calculate(b, refC, p); err != nil {
						fatal(err)
					}
					if diff, _ := res.C.MaxAbsDiff(refC); diff != 0 {
						atomic.AddInt64(&mismatches, 1)
						fmt.Fprintf(os.Stderr, "spmmload: request %d: result differs from serial %s by %g\n",
							i, reg.Format, diff)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(loadDone)
	mutWG.Wait()
	elapsed := time.Since(start)

	ok := len(latencies)
	fmt.Printf("\n%d requests in %.2fs: %d ok, %d shed (429), %d failed\n",
		*requests, elapsed.Seconds(), ok, sheds, failures)
	var attempts, retried int64
	for _, c := range clients {
		attempts += c.Attempts()
		retried += c.Retries()
	}
	fmt.Printf("attempts %d (%d retried) over %d calls\n", attempts, retried, attempts-retried)
	if len(byReplica) > 0 {
		names := make([]string, 0, len(byReplica))
		for r := range byReplica {
			names = append(names, r)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, r := range names {
			parts = append(parts, fmt.Sprintf("%s:%d", r, byReplica[r]))
		}
		fmt.Printf("served by: %s\n", strings.Join(parts, "  "))
	}
	if ok > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		pct := func(p float64) time.Duration {
			return latencies[min(int(p*float64(ok)), ok-1)]
		}
		flops := kernels.SpMMFlops(reg.NNZ, *kArg) * float64(ok)
		fmt.Printf("latency p50 %s  p90 %s  p99 %s  max %s\n",
			pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
			pct(0.99).Round(time.Microsecond), latencies[ok-1].Round(time.Microsecond))
		fmt.Printf("throughput %.1f req/s, %.1f MFLOPS aggregate\n",
			float64(ok)/elapsed.Seconds(), flops/elapsed.Seconds()/1e6)
		fmt.Printf("cache hits %d/%d, batched responses %d (max width %d)\n",
			hits, ok, batched, maxWidth)
		reportPhases(phaseMs)
		reportSlowest(client.Base, tracked)

		// Per-variant counts and warm-up vs steady-state latency: a
		// promotion shows up as a variant change mid-run.
		if len(variants) > 0 {
			names := make([]string, 0, len(variants))
			for v := range variants {
				names = append(names, v)
			}
			sort.Strings(names)
			parts := make([]string, 0, len(names))
			for _, v := range names {
				parts = append(parts, fmt.Sprintf("%s:%d", v, variants[v]))
			}
			fmt.Printf("variants: %s\n", strings.Join(parts, "  "))
			if len(variants) > 1 {
				fmt.Printf("promotion observed: %d variants served this run\n", len(variants))
			}
		}
		quarterP50 := func(lats []time.Duration) time.Duration {
			var got []time.Duration
			for _, l := range lats {
				if l > 0 {
					got = append(got, l)
				}
			}
			if len(got) == 0 {
				return 0
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			return got[len(got)/2]
		}
		q := *requests / 4
		if q > 0 {
			firstP50 := quarterP50(ordered[:q])
			steadyP50 := quarterP50(ordered[len(ordered)-q:])
			if firstP50 > 0 && steadyP50 > 0 {
				fmt.Printf("warm-up p50 %s -> steady p50 %s (%+.1f%%)\n",
					firstP50.Round(time.Microsecond), steadyP50.Round(time.Microsecond),
					100*(float64(steadyP50)-float64(firstP50))/float64(firstP50))
			}
		}
	}
	var serverStats *serve.StatsResponse
	if stats, err := client.Stats(); err == nil {
		serverStats = stats
		fmt.Printf("server: %d multiplies over %d dispatches, cache %d/%d prepared (%d prepares, %d evictions), shed %d\n",
			stats.Multiplies, stats.Batches, stats.Cache.Entries, stats.Matrices,
			stats.Cache.Prepares, stats.Cache.Evictions, stats.Shed)
	}
	if mutPlan != nil {
		var skipped int64
		if mutVerify != nil {
			skipped = mutVerify.skipped
		}
		reportMutations(mutSt, skipped, serverStats)
	}
	// Against a router, /v1/cluster exists and summarizes the fleet; a plain
	// spmmserve 404s and the line is simply omitted.
	if cs, err := fetchClusterStats(client.Base); err == nil {
		fmt.Printf("cluster: ring %v, %d matrices, failovers %d, spillovers %d, replications %d, moves %d, ejects %d\n",
			cs.Ring, cs.Matrices, cs.Failovers, cs.Spillovers, cs.Replications, cs.Moves, cs.Ejects)
		fmt.Printf("cluster health: %d probe rounds, %d probe failures, %d readmits\n",
			cs.ProbeRounds, cs.ProbeFailures, cs.Readmits)
		for _, rs := range cs.Replicas {
			state := "up"
			if rs.Down {
				state = "DOWN"
			}
			fmt.Printf("cluster[%s]: %s (for %s), %d matrices, %d proxied, %d errors, %d failover serves, %d consecutive probe fails\n",
				rs.Name, state, (time.Duration(rs.SinceStateChangeSec * float64(time.Second))).Round(time.Second),
				rs.Matrices, rs.Proxied, rs.Errors, rs.Failovers, rs.ProbeFails)
		}
	}
	if *verify {
		refName := reg.Format
		if mutVerify != nil {
			refName = "csr (per-epoch merged reference)"
		}
		if mismatches > 0 {
			fatal(fmt.Errorf("%d responses mismatched the serial %s kernel", mismatches, refName))
		}
		fmt.Printf("verified: all %d responses bitwise-identical to serial %s\n", ok, refName)
	}
	if mutSt.err != nil {
		fatal(mutSt.err)
	}
	if ok == 0 && *requests > 0 {
		fatal(fmt.Errorf("no request succeeded"))
	}
}

// requestObs pairs one traced response's request ID with its observed
// end-to-end latency.
type requestObs struct {
	id      string
	lat     time.Duration
	replica string
}

// phaseOrder lists the request phases in pipeline order for the per-phase
// report; phases outside the list print after it, alphabetically.
var phaseOrder = []string{"queue", "load", "prepare", "batch", "kernel", "respond"}

// reportPhases prints per-phase latency percentiles from the X-Spmm-Timing
// breakdowns — where each request's time actually went, server-side.
func reportPhases(phaseMs map[string][]float64) {
	if len(phaseMs) == 0 {
		return
	}
	rank := map[string]int{}
	for i, p := range phaseOrder {
		rank[p] = i
	}
	names := make([]string, 0, len(phaseMs))
	for p := range phaseMs {
		names = append(names, p)
	}
	sort.Slice(names, func(i, j int) bool {
		ri, iOK := rank[names[i]]
		rj, jOK := rank[names[j]]
		switch {
		case iOK && jOK:
			return ri < rj
		case iOK:
			return true
		case jOK:
			return false
		default:
			return names[i] < names[j]
		}
	})
	fmt.Printf("server phases (ms):\n")
	for _, p := range names {
		samples := phaseMs[p]
		sort.Float64s(samples)
		pct := func(f float64) float64 {
			return samples[min(int(f*float64(len(samples))), len(samples)-1)]
		}
		fmt.Printf("  %-8s p50 %8.3f  p90 %8.3f  p99 %8.3f  (%d samples)\n",
			p, pct(0.50), pct(0.90), pct(0.99), len(samples))
	}
}

// reportSlowest names the slowest traced requests — their IDs key the
// server's /v1/trace/requests ring and, through a router, the stitched
// /v1/trace/requests/{rid}/chrome export.
func reportSlowest(base string, tracked []requestObs) {
	if len(tracked) == 0 {
		return
	}
	sort.Slice(tracked, func(i, j int) bool { return tracked[i].lat > tracked[j].lat })
	n := min(3, len(tracked))
	fmt.Printf("slowest requests:\n")
	for _, obs := range tracked[:n] {
		where := ""
		if obs.replica != "" {
			where = " on " + obs.replica
		}
		fmt.Printf("  %s  %s%s\n", obs.lat.Round(time.Microsecond), obs.id, where)
	}
	fmt.Printf("  inspect: curl '%s/v1/trace/requests?id=<rid>'\n", base)
}

// fetchClusterStats pulls the router's cluster summary; any error (a plain
// spmmserve has no /v1/cluster) just suppresses the report line.
func fetchClusterStats(base string) (*cluster.Stats, error) {
	resp, err := http.Get(base + "/v1/cluster")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/cluster returned %d", resp.StatusCode)
	}
	var cs cluster.Stats
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		return nil, err
	}
	return &cs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spmmload:", err)
	os.Exit(1)
}
