package cluster

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/serve"
	"repro/internal/trace"
)

// End-to-end distributed request tracing: one request ID minted at the
// router must show up on the router's attempt spans, on the winning
// replica's queue/batch/kernel spans, in the slow-request log line, and in
// the stitched multi-process Chrome export — all under a scripted failover,
// and all racing real goroutines (the whole package runs under -race in
// scripts/check.sh).

// logBuffer is a goroutine-safe sink for the router's slog output.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// tracedCluster builds a 3-replica cluster with request tracing on at every
// hop and the router's slow-request threshold at 1ns (every request logs).
func tracedCluster(t *testing.T, logbuf *logBuffer, mutate func(*Config)) *testCluster {
	return newTestClusterServe(t, 3,
		func(cfg *Config) {
			cfg.ReplicateAfter = 1
			cfg.MaxHolders = 2
			cfg.SpillMargin = 1000
			cfg.ReqTraceRing = 64
			cfg.SlowRequest = time.Nanosecond
			cfg.Log = slog.New(slog.NewTextHandler(logbuf, nil))
			if mutate != nil {
				mutate(cfg)
			}
		},
		func(sc *serve.Config) { sc.ReqTraceRing = 64 },
	)
}

// registerBig uploads one kernel-dominated matrix through the router and
// the reference, warms it, and waits until it has a second warmed holder.
func registerBig(t *testing.T, tc *testCluster) *testMatrix {
	t.Helper()
	rr := randomTriplets(800, 600, 40000, 4242)
	reg, err := tc.client.Register(rr)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tc.refClient.Register(rr)
	if err != nil {
		t.Fatal(err)
	}
	if reg.ID != ref.ID {
		t.Fatalf("cluster hashed %s, reference %s", reg.ID, ref.ID)
	}
	m := &testMatrix{reg: reg}
	tc.multiplyBoth(m, 4, 4300)
	waitFor(t, "the matrix to gain a second holder", func() bool {
		return len(tc.clusterStats().Placements[reg.ID]) == 2
	})
	return m
}

// chromeDoc is the parsed stitched export.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func fetchStitched(t *testing.T, tc *testCluster, rid string) chromeDoc {
	t.Helper()
	resp, err := http.Get(tc.front.URL + "/v1/trace/requests/" + rid + "/chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stitched export returned %d", resp.StatusCode)
	}
	var doc chromeDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("stitched export is not valid JSON: %v", err)
	}
	return doc
}

// TestRequestTracePropagation is the tentpole acceptance scenario: a
// multiply against a hung primary fails over on the scripted attempt
// timeout, and afterwards ONE request ID correlates the router's
// attempt-remote spans, the winning replica's phase spans, the
// slow-request log line, and the stitched Chrome trace's process rows.
func TestRequestTracePropagation(t *testing.T) {
	var logbuf logBuffer
	tc := tracedCluster(t, &logbuf, func(cfg *Config) {
		cfg.AttemptTimeout = 2 * time.Second // virtual; fires on Advance
	})
	m := registerBig(t, tc)

	holders := tc.clusterStats().Placements[m.reg.ID]
	primary, secondary := holders[0], holders[1]

	const k = 64
	b := matrix.NewDenseRand[float64](m.reg.Cols, k, 4400)
	want, err := tc.refClient.Multiply(m.reg.ID, m.reg.Rows, b, k, 0)
	if err != nil {
		t.Fatal(err)
	}

	tc.replicas[primary].gate.hang()
	done := make(chan *serve.MultiplyResult, 1)
	fail := make(chan error, 1)
	go func() {
		res, err := tc.client.Multiply(m.reg.ID, m.reg.Rows, b, k, 0)
		if err != nil {
			fail <- err
			return
		}
		done <- res
	}()
	tc.router.mu.Lock()
	primRep := tc.router.replicas[primary]
	tc.router.mu.Unlock()
	waitFor(t, "the multiply to park on the hung primary", func() bool {
		return primRep.inFlight.Load() >= 1
	})
	tc.clk.Advance(2 * time.Second)

	var res *serve.MultiplyResult
	select {
	case err := <-fail:
		t.Fatalf("traced failover multiply errored: %v", err)
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("multiply wedged past the scripted attempt timeout")
	}
	if diff, _ := res.C.MaxAbsDiff(want.C); diff != 0 {
		t.Fatalf("failover result differs from single-node by %g", diff)
	}
	if res.Replica != secondary {
		t.Fatalf("failover served by %s, want secondary %s", res.Replica, secondary)
	}
	rid := res.RequestID
	if rid == "" {
		t.Fatal("failover response carries no request ID")
	}
	if !res.Timing.Valid() {
		t.Fatal("failover response carries no X-Spmm-Timing")
	}

	// Router record: attempt spans in order — primary timeout, secondary ok.
	routerRecs, err := tc.client.TraceRequests(rid, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(routerRecs) != 1 {
		t.Fatalf("router ring has %d records for %s", len(routerRecs), rid)
	}
	rrec := routerRecs[0]
	if rrec.Matrix != m.reg.ID {
		t.Fatalf("router record matrix = %s, want %s", rrec.Matrix, m.reg.ID)
	}
	var attempts []string
	for _, p := range rrec.Phases {
		if p.Phase == trace.PhaseAttemptRemote {
			attempts = append(attempts, p.Detail)
		}
	}
	if len(attempts) != 2 {
		t.Fatalf("router record has %d attempt spans, want 2: %v", len(attempts), attempts)
	}
	if attempts[0] != primary+" timeout" {
		t.Fatalf("attempt 1 = %q, want %q", attempts[0], primary+" timeout")
	}
	if attempts[1] != secondary+" ok" {
		t.Fatalf("attempt 2 = %q, want %q", attempts[1], secondary+" ok")
	}

	// Distributed accounting: the router's phase spans (panel read, both
	// attempts, respond) must account for its end-to-end total within 5% —
	// nothing the request waited on goes missing from the timeline.
	var sum float64
	for _, p := range rrec.Phases {
		sum += p.Ms
	}
	if gap := rrec.TotalMs - sum; gap < 0 || gap > 0.05*rrec.TotalMs {
		t.Errorf("router phase sum %.3f ms vs total %.3f ms: gap outside [0, 5%%]", sum, rrec.TotalMs)
	}

	// Winning replica's ring: the SAME rid, with the serving-side phases.
	// (The replica seals its record after writing the response, so the
	// client can get here first.)
	var repRecs []trace.ReqRecord
	waitFor(t, "the winning replica to seal its record", func() bool {
		repRecs = tc.replicas[secondary].srv.RequestTraces().Snapshot(trace.ReqFilter{ID: rid})
		return len(repRecs) > 0
	})
	if len(repRecs) != 1 {
		t.Fatalf("replica %s ring has %d records for %s", secondary, len(repRecs), rid)
	}
	repPhases := map[string]bool{}
	for _, sp := range repRecs[0].Spans {
		repPhases[sp.Name] = true
	}
	for _, phase := range []string{trace.PhaseQueue, trace.PhaseBatch, trace.PhaseKernel, trace.PhaseRespond} {
		if !repPhases[phase] {
			t.Errorf("replica record missing %q span: has %v", phase, repPhases)
		}
	}

	// The relayed X-Spmm-Timing is the winning replica's breakdown and must
	// itself account for the replica-side total within 5%.
	if gap := res.Timing.TotalMs - res.Timing.SumMs(); gap < -0.001 || gap > 0.05*res.Timing.TotalMs {
		t.Errorf("relayed timing sum %.3f ms vs total %.3f ms: gap outside [0, 5%%]",
			res.Timing.SumMs(), res.Timing.TotalMs)
	}

	// Slow-request log line, correlated by rid.
	out := logbuf.String()
	if !strings.Contains(out, "slow request") || !strings.Contains(out, rid) {
		t.Fatalf("router log has no rid-correlated slow-request line:\n%s", out)
	}

	// Stitched Chrome export: router + winning replica on separate process
	// rows, attempts on the router row, kernel on the replica row.
	doc := fetchStitched(t, tc, rid)
	procNames := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procNames[ev.Pid], _ = ev.Args["name"].(string)
		}
	}
	if len(procNames) < 2 {
		t.Fatalf("stitched trace has %d process rows, want router + replica: %v", len(procNames), procNames)
	}
	var routerPid, replicaPid int
	for pid, name := range procNames {
		switch name {
		case "router":
			routerPid = pid
		case "replica " + secondary:
			replicaPid = pid
		}
	}
	if routerPid == 0 || replicaPid == 0 {
		t.Fatalf("stitched trace rows = %v, want \"router\" and %q", procNames, "replica "+secondary)
	}
	attemptsOnRouter, kernelOnReplica := 0, 0
	var attempt2Start float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		switch {
		case ev.Name == trace.PhaseAttemptRemote:
			if ev.Pid != routerPid {
				t.Errorf("attempt-remote span on pid %d, want router pid %d", ev.Pid, routerPid)
			}
			attemptsOnRouter++
			if detail, _ := ev.Args["detail"].(string); strings.HasSuffix(detail, " ok") {
				attempt2Start = ev.Ts
			}
		case ev.Name == trace.PhaseKernel:
			if ev.Pid != replicaPid {
				t.Errorf("kernel span on pid %d, want replica pid %d", ev.Pid, replicaPid)
			}
			kernelOnReplica++
			if ev.Ts < attempt2Start {
				t.Errorf("kernel span at ts=%v starts before the winning attempt at ts=%v", ev.Ts, attempt2Start)
			}
		}
	}
	if attemptsOnRouter != 2 || kernelOnReplica == 0 {
		t.Fatalf("stitched trace: %d attempt spans on router, %d kernel spans on replica", attemptsOnRouter, kernelOnReplica)
	}

	// Satellite 1 observability: the hang also drove cluster counters.
	st := tc.clusterStats()
	if st.Failovers < 1 {
		t.Fatalf("cluster failovers = %d, want >= 1", st.Failovers)
	}
	var winner *ReplicaStats
	for i := range st.Replicas {
		if st.Replicas[i].Name == secondary {
			winner = &st.Replicas[i]
		}
		if st.Replicas[i].SinceStateChangeSec < 0 {
			t.Errorf("replica %s reports negative since_state_change_sec", st.Replicas[i].Name)
		}
	}
	if winner == nil || winner.Failovers < 1 {
		t.Fatalf("winning replica %s reports no failover serves: %+v", secondary, winner)
	}
}

// TestFailoverRelaysWinningHeaders pins the metadata path on failover: a
// replica killed mid-multiply must not leave its fingerprints on the
// response — every serving header (replica, format, variant, cache verdict,
// timing, request ID) comes from the attempt that actually succeeded.
func TestFailoverRelaysWinningHeaders(t *testing.T) {
	var logbuf logBuffer
	tc := tracedCluster(t, &logbuf, nil)
	mats := tc.registerMatrices(3)
	replicateAll(t, tc, mats)

	m := mats[0]
	holders := tc.clusterStats().Placements[m.reg.ID]
	victim := holders[0]

	const k = 8
	b := matrix.NewDenseRand[float64](m.reg.Cols, k, 5100)
	want, err := tc.refClient.Multiply(m.reg.ID, m.reg.Rows, b, k, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Park the multiply inside the victim, then kill it mid-flight.
	tc.replicas[victim].gate.slow(500 * time.Millisecond)
	tc.router.mu.Lock()
	victimRep := tc.router.replicas[victim]
	tc.router.mu.Unlock()
	result := make(chan *serve.MultiplyResult, 1)
	fail := make(chan error, 1)
	go func() {
		res, err := tc.client.Multiply(m.reg.ID, m.reg.Rows, b, k, 0)
		if err != nil {
			fail <- err
			return
		}
		result <- res
	}()
	waitFor(t, "the multiply to park inside the victim", func() bool {
		return victimRep.inFlight.Load() >= 1
	})
	tc.replicas[victim].kill()

	var res *serve.MultiplyResult
	select {
	case err := <-fail:
		t.Fatalf("kill-mid-multiply failover errored: %v", err)
	case res = <-result:
	case <-time.After(10 * time.Second):
		t.Fatal("multiply wedged after the mid-flight kill")
	}
	if diff, _ := res.C.MaxAbsDiff(want.C); diff != 0 {
		t.Fatalf("failover result differs from single-node by %g", diff)
	}

	// The whole header set must be the survivor's.
	if res.Replica == victim || res.Replica == "" {
		t.Fatalf("X-Spmm-Replica = %q after killing %s; must name the survivor", res.Replica, victim)
	}
	if res.Format == "" || res.Variant == "" {
		t.Fatalf("failover response lost format/variant metadata: %+v", res)
	}
	if !res.CacheHit {
		t.Fatal("failover response reports a cache miss; the replicated holder was warmed")
	}
	if res.BatchWidth < 1 || res.BatchK < k {
		t.Fatalf("failover response lost batch metadata: width=%d k=%d", res.BatchWidth, res.BatchK)
	}
	if res.RequestID == "" || !res.Timing.Valid() {
		t.Fatalf("failover response lost tracing headers: rid=%q timing=%+v", res.RequestID, res.Timing)
	}
	if res.Timing.Ms(trace.PhaseKernel) <= 0 {
		t.Fatalf("relayed timing has no kernel phase: %+v", res.Timing.Phases)
	}

	// The survivor's ring must hold the rid; the timing header must be its
	// record, not the victim's (the victim never finished a kernel for it).
	surv := tc.replicas[res.Replica].srv.RequestTraces().Snapshot(trace.ReqFilter{ID: res.RequestID})
	if len(surv) != 1 {
		t.Fatalf("survivor %s ring has %d records for %s", res.Replica, len(surv), res.RequestID)
	}
	var survKernelMs float64
	for _, sp := range surv[0].Spans {
		if sp.Name == trace.PhaseKernel {
			survKernelMs += float64(sp.Dur) / 1e6
		}
	}
	if diff := survKernelMs - res.Timing.Ms(trace.PhaseKernel); diff > 0.001 || diff < -0.001 {
		t.Fatalf("relayed kernel timing %.3f ms is not the survivor's %.3f ms",
			res.Timing.Ms(trace.PhaseKernel), survKernelMs)
	}

	// Router record names the victim in a failed attempt, the survivor in
	// the winning one.
	recs, err := tc.client.TraceRequests(res.RequestID, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("router ring has %d records", len(recs))
	}
	var details []string
	for _, p := range recs[0].Phases {
		if p.Phase == trace.PhaseAttemptRemote {
			details = append(details, p.Detail)
		}
	}
	if len(details) < 2 {
		t.Fatalf("router record has %d attempts, want >= 2: %v", len(details), details)
	}
	first, last := details[0], details[len(details)-1]
	if !strings.HasPrefix(first, victim+" ") || strings.HasSuffix(first, " ok") {
		t.Fatalf("first attempt %q should be a failed attempt on the victim %s", first, victim)
	}
	if last != res.Replica+" ok" {
		t.Fatalf("last attempt %q should be %q", last, res.Replica+" ok")
	}
}
