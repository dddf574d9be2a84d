package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"testing"
	"time"

	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/trace"
)

// TestMultiplyAllocBudget pins the objects one cached multiply allocates end
// to end, loopback client to server (the benchmark's serve-small shape,
// dw4096@0.05 at k = 32). What is left is net/http's on both ends, the
// kernel's one, the client's URL, result struct and caller-owned C, and the
// lease body each request hands the transport (DESIGN.md section 8,
// "Allocations of one multiply").
func TestMultiplyAllocBudget(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const k, warm, n = 32, 50, 200
	_, client, _ := newTestServer(t, Config{Threads: 2})
	reg, err := client.Register(RegisterRequest{Name: "dw4096", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	b := matrix.NewDenseRand[float64](reg.Cols, k, 1)
	_, allocsPer := roundTripCost(t, warm, n, func() {
		if _, err := client.Multiply(reg.ID, reg.Rows, b, k, 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f objects per round trip", allocsPer)
	if allocsPer > 110 {
		t.Fatalf("one multiply allocates %.1f objects, want at most 110", allocsPer)
	}
}

// TestAdmissionZeroAllocUnderDeadline is TestAdmissionZeroAlloc with the
// context a handler passes: a fresh deadline under a cancellable parent on
// every run. Acquire plus release on a free slot costs nothing beyond
// building that context — in particular it never asks for its Done channel.
func TestAdmissionZeroAllocUnderDeadline(t *testing.T) {
	a := newAdmission(2, 2)
	parent, stop := context.WithCancel(context.Background())
	defer stop()
	build := testing.AllocsPerRun(200, func() {
		_, cancel := context.WithTimeout(parent, time.Minute)
		cancel()
	})
	n := testing.AllocsPerRun(200, func() {
		ctx, cancel := context.WithTimeout(parent, time.Minute)
		if err := a.acquire(ctx); err != nil {
			t.Fatal(err)
		}
		a.release()
		cancel()
	})
	if n != build {
		t.Fatalf("admission acquire+release under a deadline allocates %v times, building the deadline %v", n, build)
	}
}

// TestPreparedHitZeroAllocUnderDeadline is TestPreparedHitZeroAlloc with a
// fresh deadline context on every run: a hit on a ready format does not
// wait, so it costs nothing beyond building that context.
func TestPreparedHitZeroAllocUnderDeadline(t *testing.T) {
	r := NewRegistry(0, 1)
	m, _, err := r.Register(testMatrix(t, 64, 64, 0.05, 1))
	if err != nil {
		t.Fatal(err)
	}
	parent, stop := context.WithCancel(context.Background())
	defer stop()
	if _, _, err := r.Prepared(parent, m.ID); err != nil {
		t.Fatal(err)
	}
	build := testing.AllocsPerRun(200, func() {
		_, cancel := context.WithTimeout(parent, time.Minute)
		cancel()
	})
	n := testing.AllocsPerRun(200, func() {
		ctx, cancel := context.WithTimeout(parent, time.Minute)
		if _, hit, err := r.Prepared(ctx, m.ID); err != nil || !hit {
			t.Fatalf("steady-state lookup: hit=%v err=%v", hit, err)
		}
		cancel()
	})
	if n != build {
		t.Fatalf("cache hit under a deadline allocates %v times, building the deadline %v", n, build)
	}
}

// TestDeadlineArmsOnlyToWait: a request that takes a free slot, hits a
// ready format and dispatches alone builds no context and no timer; one that
// queues behind a full gate arms its deadline and leaves when it expires.
func TestDeadlineArmsOnlyToWait(t *testing.T) {
	srv, client, _ := newTestServer(t, Config{Threads: 1, MaxInFlight: 1, QueueDepth: 1})
	reg, _ := registerSmall(t, client, 40, 64, 200, 3)
	m, _ := srv.reg.Get(reg.ID)

	dl := deadline{parent: context.Background(), at: time.Now().Add(time.Minute)}
	if err := srv.adm.admit(&dl); err != nil {
		t.Fatal(err)
	}
	sv, hit, err := srv.reg.prepared(&dl, reg.ID)
	if err != nil || !hit {
		t.Fatalf("prepared: hit=%v err=%v", hit, err)
	}
	b := leasePanel(reg.Cols, 2)
	res := srv.multiply(&dl, m, sv, b, 2, nil)
	b.Release()
	res.lease.Release()
	if res.err != nil || res.c != &res.lease.panel {
		t.Fatalf("a lone dispatch: err %v, want its compact panel itself, not a view", res.err)
	}
	if dl.ctx != nil || dl.cancel != nil {
		t.Fatal("a request that never waited armed its deadline")
	}

	// The slot is still held: the next request queues and its deadline fires.
	late := deadline{parent: context.Background(), at: time.Now().Add(20 * time.Millisecond)}
	defer late.stop()
	if err := srv.adm.admit(&late); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a queued request past its deadline: %v, want context.DeadlineExceeded", err)
	}
	if late.ctx == nil {
		t.Fatal("a request that queued did not arm its deadline")
	}
	srv.adm.release()
}

// TestQueryValueAgreesWithQuery: the map-free reader returns what
// url.Values.Get does on every shape of query, escapes included.
func TestQueryValueAgreesWithQuery(t *testing.T) {
	for _, raw := range []string{
		"", "k=32", "k=", "k", "x=1&k=7", "k=1&k=2", "&&k=3&", "kk=1&k=4", "=5&k=6",
		"k=%33%32", "k=3+2", "%6B=9", "k=1;k=2", "a=1;b=2&k=8", "k=1%2", "k=%zz&k=2",
	} {
		u := &url.URL{RawQuery: raw}
		if got, want := QueryValue(u, "k"), u.Query().Get("k"); got != want {
			t.Errorf("QueryValue(%q, k) = %q, want %q", raw, got, want)
		}
	}
	u := &url.URL{RawQuery: "x=1&k=32&y=2"}
	if n := testing.AllocsPerRun(100, func() { _ = QueryValue(u, "k") }); n != 0 {
		t.Fatalf("QueryValue allocates %v times, want 0", n)
	}
}

// TestInternedHeaders: every interned value is the string Set would have
// stored, under a canonical name, one element long with no room to grow;
// every servable variant and format is in the name table.
func TestInternedHeaders(t *testing.T) {
	for _, name := range []string{HeaderFormat, HeaderCache, HeaderBatchWidth, HeaderBatchK, HeaderVariant,
		HeaderDeadlineMs, HeaderReplica, HeaderRequestID, HeaderTiming, HeaderEpoch, HeaderContentHash} {
		if c := http.CanonicalHeaderKey(name); c != name {
			t.Errorf("header %q is assigned by key but its canonical form is %q", name, c)
		}
	}
	one := func(what string, v []string, want string) {
		t.Helper()
		if len(v) != 1 || cap(v) != 1 || v[0] != want {
			t.Errorf("%s = %q (cap %d), want [%q] with capacity 1", what, v, cap(v), want)
		}
	}
	for _, n := range []int{0, 1, 7, 99, 100, 512, 1024, 1025, 4096} {
		one(fmt.Sprintf("intHeader(%d)", n), intHeader(n), strconv.Itoa(n))
	}
	for _, v := range kernels.ServableVariants() {
		one("nameHeader("+v.Name+")", nameHeader(v.Name), v.Name)
		one("nameHeader("+v.Format+")", nameHeader(v.Format), v.Format)
		if n := testing.AllocsPerRun(10, func() { _ = nameHeader(v.Name) }); n != 0 {
			t.Errorf("nameHeader(%s) allocates %v times, want 0", v.Name, n)
		}
	}
	one("nameHeader of an unknown name", nameHeader("no/such-variant"), "no/such-variant")
	one("octetStream", octetStream, "application/octet-stream")
	one("cacheHit", cacheHit, "hit")
	one("cachePrepare", cachePrepare, "prepare")
}

// TestFormatTimingOneAlloc: rendering a multiply's timing header is the
// one string it returns.
func TestFormatTimingOneAlloc(t *testing.T) {
	rr := trace.NewRequests(4)
	req := rr.Begin("rid", "m")
	req.Step(trace.PhaseQueue, "", 0)
	req.Step(trace.PhaseLoad, "panel", 32)
	req.Step(trace.PhasePrepare, "hit", 0)
	at := req.Now()
	req.StepTo(trace.PhaseBatch, "csr", at, 1)
	req.StepTo(trace.PhaseKernel, "csr/opts-pool", at+5000, 32)
	snap := req.Snapshot()
	if len(snap.Spans) < 5 {
		t.Fatalf("the record holds %d spans, want the 5 stepped", len(snap.Spans))
	}
	var out string
	if n := testing.AllocsPerRun(200, func() {
		out = FormatTiming(snap, trace.PhaseRespond, 1234)
	}); n > 1 {
		t.Fatalf("FormatTiming allocates %v times, want at most 1", n)
	}
	if tm, ok := ParseTiming(out); !ok || len(tm.Phases) != 6 {
		t.Fatalf("FormatTiming rendered %q, want 6 phases and a total", out)
	}
}
