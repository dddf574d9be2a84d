package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/serve"
	"repro/internal/trace"
)

// verdictCluster is the fixture of the forward-table tests: one matrix, and
// three replicas named by the role the ring gives them for it. faulty is the
// ring owner and holds the matrix; dead is the next preference, in the fleet
// but killed (the prober never runs here, so the router still tries it);
// healthy is the last preference and holds the matrix too. Restricting the
// holder set to a prefix of [faulty|dead, healthy] therefore fixes plan order.
type verdictCluster struct {
	*testCluster
	id                    string
	e                     *entry
	faulty, dead, healthy string
	panel                 []byte // the multiply request body, k=4
	want                  []byte // the reference server's answer to it
}

func newVerdictCluster(t *testing.T) *verdictCluster {
	t.Helper()
	tc := newTestCluster(t, 3, func(cfg *Config) {
		cfg.ProbeInterval = time.Hour // advancing past AttemptTimeout must not eject anybody
		cfg.AttemptTimeout = 2 * time.Second
		cfg.ReqTraceRing = 256
	})
	m := tc.registerMatrices(1)[0]
	vc := &verdictCluster{testCluster: tc, id: m.reg.ID}
	owners := tc.router.ring.Load().Owners(vc.id, 3)
	vc.faulty, vc.dead, vc.healthy = owners[0], owners[1], owners[2]
	if got := tc.clusterStats().Placements[vc.id]; len(got) != 1 || got[0] != vc.faulty {
		t.Fatalf("registered on %v, want the ring owner %s", got, vc.faulty)
	}
	// Land the same content on the healthy replica directly — registration is
	// content-addressed, so this is the copy a replication would have made.
	direct := serve.NewClient(tc.replicas[vc.healthy].base)
	if reg, err := direct.Register(randomTriplets(60, 45, 350, 1000)); err != nil || reg.ID != vc.id {
		t.Fatalf("direct register on %s: id %v err %v", vc.healthy, reg, err)
	}
	tc.replicas[vc.dead].kill()
	tc.router.mu.Lock()
	vc.e = tc.router.entries[vc.id]
	tc.router.mu.Unlock()

	var panel bytes.Buffer
	if err := serve.WritePanel(&panel, matrix.NewDenseRand[float64](m.reg.Cols, 4, 77), 4); err != nil {
		t.Fatal(err)
	}
	vc.panel = panel.Bytes()
	resp, err := http.Post(tc.refServer.URL+"/v1/matrices/"+vc.id+"/multiply?k=4", "application/octet-stream", bytes.NewReader(vc.panel))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if vc.want, err = io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("reference multiply: status %d err %v", resp.StatusCode, err)
	}
	return vc
}

// setHolders rewrites the matrix's holder set, undoing whatever the previous
// case dropped.
func (vc *verdictCluster) setHolders(names ...string) {
	vc.router.mu.Lock()
	vc.e.holders = append([]string(nil), names...)
	vc.router.mu.Unlock()
}

// do issues one routed request and returns the complete answer. When the
// request is expected to park on `parked`, it advances scripted time past
// the attempt timeout once the attempt is in flight there.
func (vc *verdictCluster) do(t *testing.T, route, rid, parked string) (*http.Response, []byte) {
	t.Helper()
	method, path, body := http.MethodPost, "/v1/matrices/"+vc.id+"/"+route, io.Reader(nil)
	switch route {
	case "multiply":
		path, body = path+"?k=4", bytes.NewReader(vc.panel)
	case "export":
		method = http.MethodGet
	}
	req, err := http.NewRequest(method, vc.front.URL+path, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(serve.HeaderRequestID, rid)
	type result struct {
		resp *http.Response
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		payload, err := io.ReadAll(resp.Body)
		done <- result{resp, payload, err}
	}()
	if parked != "" {
		vc.router.mu.Lock()
		rep := vc.router.replicas[parked]
		vc.router.mu.Unlock()
		waitFor(t, "the attempt to park on "+parked, func() bool { return rep.inFlight.Load() >= 1 })
		vc.clk.Advance(2 * time.Second)
	}
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("%s via router: %v", route, res.err)
		}
		return res.resp, res.body
	case <-time.After(10 * time.Second):
		t.Fatalf("%s via router wedged", route)
		return nil, nil
	}
}

// TestForwardVerdictTable is DESIGN §11's failover table, as a table: what
// the first-tried replica answers × whether another holder stands behind it
// × the route, against who served, what the client saw, the holder set
// afterwards, the failover and per-replica error counters, and — for
// multiply, the traced route — the attempt-remote span details.
func TestForwardVerdictTable(t *testing.T) {
	vc := newVerdictCluster(t)
	novel := http.Header{"X-Spmm-Novel": {"relayed by rule"}, "X-Private": {"stays behind"}}
	const (
		relayFirst  = iota // the first replica's own answer reaches the client
		failOver           // the healthy holder answers 200 when there is one; else the router's 502
		relayOrNext        // a retryable status: fail over when there is a next, else relay it
	)
	answers := []struct {
		name    string
		ans     answer // played by the faulty replica; ignored when refused
		refused bool   // the dead replica stands in for the faulty one
		status  int    // what the first replica's own answer looks like, when it has one
		outcome int
		verdict string // attempt-remote detail of the first attempt
		isError bool   // counts in the first replica's proxy errors
		drops   bool   // removes the first replica from the holder set
	}{
		{name: "200", ans: answer{header: novel}, status: 200, outcome: relayFirst, verdict: "ok"},
		{name: "404", ans: answer{status: 404}, outcome: failOver, verdict: "404", drops: true},
		{name: "429", ans: answer{status: 429}, status: 429, outcome: relayOrNext, verdict: "429"},
		{name: "503", ans: answer{status: 503}, status: 503, outcome: relayOrNext, verdict: "503"},
		{name: "400", ans: answer{status: 400, header: novel}, status: 400, outcome: relayFirst, verdict: "400"},
		{name: "refused", refused: true, outcome: failOver, verdict: "conn-error", isError: true},
		{name: "cut", ans: answer{cut: true}, outcome: failOver, verdict: "mid-response", isError: true},
		{name: "hang", ans: answer{hang: true}, outcome: failOver, verdict: "timeout", isError: true},
		{name: "short", ans: answer{short: true}, outcome: failOver, verdict: "mid-response", isError: true},
	}
	n := 0
	for _, a := range answers {
		for _, alone := range []bool{false, true} {
			for _, route := range []string{"multiply", "prepare", "export"} {
				n++
				rid := fmt.Sprintf("verdict-%d", n)
				first := vc.faulty
				if a.refused {
					first = vc.dead
				}
				holders := []string{first, vc.healthy}
				if alone {
					holders = holders[:1]
				}
				t.Run(fmt.Sprintf("%s/alone=%v/%s", a.name, alone, route), func(t *testing.T) {
					vc.setHolders(holders...)
					vc.replicas[vc.faulty].gate.script("/"+route, a.ans)
					defer vc.replicas[vc.faulty].gate.heal()
					before := vc.router.ClusterStats()
					parked := ""
					if a.ans.hang {
						parked = first
					}
					resp, body := vc.do(t, route, rid, parked)
					after := vc.router.ClusterStats()

					// What the table says should have happened.
					servedBy, wantStatus, wantHolders := first, a.status, holders
					failedOver := false
					if a.outcome == failOver || (a.outcome == relayOrNext && !alone) {
						servedBy, wantStatus, failedOver = vc.healthy, http.StatusOK, !alone
						if alone {
							servedBy, wantStatus = "", http.StatusBadGateway
						}
					}
					if a.drops {
						wantHolders = holders[1:]
					}

					if resp.StatusCode != wantStatus {
						t.Fatalf("status %d, want %d (body %q)", resp.StatusCode, wantStatus, body)
					}
					if got := resp.Header.Get(serve.HeaderReplica); got != servedBy {
						t.Fatalf("served by %q, want %q", got, servedBy)
					}
					wantRetry := ""
					if serve.RetryableStatus(wantStatus) {
						wantRetry = "1" // a replica's own, or the router's on its 502
					}
					if got := resp.Header.Get("Retry-After"); got != wantRetry {
						t.Fatalf("Retry-After %q on a %d, want %q", got, wantStatus, wantRetry)
					}
					if wantStatus == http.StatusOK && route == "multiply" && !bytes.Equal(body, vc.want) {
						t.Fatal("routed panel differs from the single-node reference")
					}
					if servedBy == vc.faulty && a.ans.header != nil {
						if got := resp.Header.Get("X-Spmm-Novel"); got != "relayed by rule" {
							t.Fatalf("X-Spmm-Novel = %q: a header the router never heard of must relay", got)
						}
						if got := resp.Header.Get("X-Private"); got != "" {
							t.Fatalf("X-Private = %q relayed; only the protocol's headers cross the router", got)
						}
					}
					if got := after.Placements[vc.id]; strings.Join(got, ",") != strings.Join(wantHolders, ",") {
						t.Fatalf("holders afterwards %v, want %v", got, wantHolders)
					}
					wantFailovers := int64(0)
					if failedOver {
						wantFailovers = 1
					}
					if got := after.Failovers - before.Failovers; got != wantFailovers {
						t.Fatalf("failovers rose by %d, want %d", got, wantFailovers)
					}
					for i, rep := range after.Replicas {
						wantErrors, wantProxied := int64(0), int64(0)
						switch rep.Name {
						case first:
							wantProxied = 1
							if a.isError {
								wantErrors = 1
							}
						case servedBy:
							wantProxied = 1
						}
						if got := rep.Errors - before.Replicas[i].Errors; got != wantErrors {
							t.Fatalf("replica %s errors rose by %d, want %d", rep.Name, got, wantErrors)
						}
						if got := rep.Proxied - before.Replicas[i].Proxied; got != wantProxied {
							t.Fatalf("replica %s was tried %d times, want %d", rep.Name, got, wantProxied)
						}
						if rep.InFlight != 0 {
							t.Fatalf("replica %s left with %d in flight", rep.Name, rep.InFlight)
						}
					}

					if route != "multiply" {
						return
					}
					wantSpans := []string{first + " " + a.verdict}
					if failedOver {
						wantSpans = append(wantSpans, vc.healthy+" ok")
					}
					var recs []trace.ReqRecord
					waitFor(t, "the router to seal the request record", func() bool {
						recs = vc.router.reqs.Snapshot(trace.ReqFilter{ID: rid})
						return len(recs) == 1
					})
					var spans []string
					for _, sp := range recs[0].Spans {
						if sp.Name == trace.PhaseAttemptRemote {
							spans = append(spans, sp.Detail)
						}
					}
					if strings.Join(spans, "; ") != strings.Join(wantSpans, "; ") {
						t.Fatalf("attempt spans %q, want %q", spans, wantSpans)
					}
				})
			}
		}
	}
}

// TestOversizedBodyRefusedBeforeAnyReplica pins the router's one body cap:
// register, mutate and multiply all answer 413 to a body that declares
// itself over maxBody, without reading it and without contacting a replica.
func TestOversizedBodyRefusedBeforeAnyReplica(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	m := tc.registerMatrices(1)[0]
	before := tc.router.ClusterStats()
	addr := strings.TrimPrefix(tc.front.URL, "http://")
	for _, path := range []string{
		"/v1/matrices",
		"/v1/matrices/" + m.reg.ID + "/mutate",
		"/v1/matrices/" + m.reg.ID + "/multiply?k=4",
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// Headers only: the refusal must not wait for a byte of the body.
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %s\r\n\r\n", path, addr, strconv.Itoa(maxBody+1))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		conn.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a %d-byte body answered %d, want 413", path, maxBody+1, resp.StatusCode)
		}
	}
	after := tc.router.ClusterStats()
	for i, rep := range after.Replicas {
		if rep.Proxied != before.Replicas[i].Proxied {
			t.Fatalf("replica %s was contacted for an oversized body", rep.Name)
		}
	}
}
