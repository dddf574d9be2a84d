package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/trace"
)

// waitFor polls cond until it holds, failing the test after a generous
// real-time bound. It is the bridge between real goroutines (HTTP handlers
// parked on channels) and the fake clock: wait for the system to quiesce in
// the state the test wants, then advance virtual time deterministically.
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

// holdDispatch takes one of the matrix's in-flight dispatch slots, as a
// running kernel would, so requests sent meanwhile join pending instead of
// dispatching. release retires the slot exactly as a finishing dispatch does:
// pending leaves as one batch, led by its oldest member.
func holdDispatch(t *testing.T, s *Server, id string) (release func()) {
	t.Helper()
	m, ok := s.reg.Get(id)
	if !ok {
		t.Fatalf("holdDispatch: unknown matrix %s", id)
	}
	m.batch.mu.Lock()
	m.batch.inflight++
	m.batch.mu.Unlock()
	return m.batch.retire
}

// newTestServer spins up an in-process service on a random port and a client
// pointed at it. The returned teardown (also registered with t.Cleanup, and
// idempotent) closes client connections, the listener, and the server's
// worker pool — so goroutine-leak checks can run it early and see a quiet
// process.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client, func()) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	tr := &http.Transport{}
	var once sync.Once
	teardown := func() {
		once.Do(func() {
			tr.CloseIdleConnections()
			ts.Close()
			s.Close()
		})
	}
	t.Cleanup(teardown)
	c := NewClient(ts.URL)
	c.HTTP = &http.Client{Transport: tr}
	return s, c, teardown
}

// serialReference prepares the same-format serial kernel from the same
// canonical COO the server hashed. Parallel kernels preserve per-row
// accumulation order, so server responses must match it bitwise.
func serialReference(t *testing.T, reg *RegisterResponse, k int) (core.Kernel, core.Params) {
	t.Helper()
	local, _, err := gen.GenerateScaled("dw4096", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	Canonicalize(local)
	if got := ContentID(local); got != reg.ID {
		t.Fatalf("local matrix hashes to %s, server registered %s", got, reg.ID)
	}
	ref, err := core.New(reg.Format+"-serial", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.BlockSize = reg.Block
	p.K = k
	if err := ref.Prepare(local, p); err != nil {
		t.Fatal(err)
	}
	return ref, p
}

// TestEndToEndServe is the smoke test of the whole serving path: an
// in-process server, eight concurrent workers through the client library,
// every response verified bitwise against the serial kernel, steady-state
// multiplies all cache hits, and no goroutine left behind.
func TestEndToEndServe(t *testing.T) {
	before := runtime.NumGoroutine()

	func() {
		const k = 8
		const workers = 8
		const perWorker = 5

		_, client, teardown := newTestServer(t, Config{
			Threads:     2,
			BatchWindow: time.Millisecond,
			MaxInFlight: workers,
			QueueDepth:  2 * workers,
		})
		reg, err := client.Register(RegisterRequest{Name: "dw4096", Scale: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		if reg.Existed {
			t.Fatal("fresh registry reported the matrix as existing")
		}
		if reg.Format == "" || reg.FormatBytes <= 0 {
			t.Fatalf("register response missing format selection: %+v", reg)
		}
		ref, refParams := serialReference(t, reg, k)

		var misses atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				refC := matrix.NewDense[float64](reg.Rows, k)
				for i := 0; i < perWorker; i++ {
					b := matrix.NewDenseRand[float64](reg.Cols, k, int64(100*w+i))
					res, err := client.Multiply(reg.ID, reg.Rows, b, k, 0)
					if err != nil {
						errs <- fmt.Errorf("worker %d request %d: %w", w, i, err)
						return
					}
					if !res.CacheHit {
						misses.Add(1)
					}
					if err := ref.Calculate(b, refC, refParams); err != nil {
						errs <- err
						return
					}
					if diff, _ := res.C.MaxAbsDiff(refC); diff != 0 {
						errs <- fmt.Errorf("worker %d request %d: differs from serial %s by %g",
							w, i, reg.Format, diff)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}

		stats, err := client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Multiplies != workers*perWorker {
			t.Fatalf("server multiplies = %d, want %d", stats.Multiplies, workers*perWorker)
		}
		// Registration warm-prepared the format, so every multiply — first
		// included — must have hit the cache: exactly one prepare ever.
		if stats.Cache.Prepares != 1 {
			t.Fatalf("cache prepares = %d, want 1 (steady-state multiplies must not re-prepare)", stats.Cache.Prepares)
		}
		if misses.Load() != 0 {
			t.Fatalf("%d multiplies reported cache misses after warm registration", misses.Load())
		}
		if stats.Shed != 0 {
			t.Fatalf("server shed %d requests under a sufficient admission budget", stats.Shed)
		}
		teardown()
	}()

	// Teardown ran (client conns, listener, worker pool); the
	// process must wind back down to its starting goroutine count.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after server teardown",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchCoalescing pins the batcher's throughput mechanism: same-matrix
// requests that arrive while a dispatch is in flight come back from ONE
// wider-k kernel dispatch — visible both in the response metadata and as a
// single "batch" trace span whose arg is the coalesced width. The test holds
// the matrix's in-flight slot until every caller has joined, then retires it
// as a finishing dispatch would — all callers coalesce, every run.
func TestBatchCoalescing(t *testing.T) {
	const k = 8
	const callers = 4

	tracer := trace.New(4, 1<<12)
	tracer.SetEnabled(true)
	srv, client, _ := newTestServer(t, Config{
		Threads:     2,
		BatchWindow: time.Hour,
		MaxInFlight: 2 * callers,
		QueueDepth:  2 * callers,
		Tracer:      tracer,
		Clock:       clock.NewFake(),
	})
	reg, err := client.Register(RegisterRequest{Name: "dw4096", Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	ref, refParams := serialReference(t, reg, k)
	release := holdDispatch(t, srv, reg.ID)

	start := make(chan struct{})
	results := make([]*MultiplyResult, callers)
	panels := make([]*matrix.Dense[float64], callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		panels[i] = matrix.NewDenseRand[float64](reg.Cols, k, int64(i+1))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = client.Multiply(reg.ID, reg.Rows, panels[i], k, 0)
		}(i)
	}
	close(start)
	waitFor(t, "all callers behind the held dispatch", func() bool {
		return srv.pendingBatch(reg.ID) == callers
	})
	release()
	wg.Wait()

	refC := matrix.NewDense[float64](reg.Rows, k)
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		res := results[i]
		if res.BatchWidth != callers {
			t.Fatalf("caller %d: batch width = %d, want %d (everyone behind one dispatch leaves as one)",
				i, res.BatchWidth, callers)
		}
		if res.BatchK != callers*k {
			t.Fatalf("caller %d: dispatch k = %d, want %d", i, res.BatchK, callers*k)
		}
		// Coalescing must not perturb results: still bitwise-serial.
		if err := ref.Calculate(panels[i], refC, refParams); err != nil {
			t.Fatal(err)
		}
		if diff, _ := res.C.MaxAbsDiff(refC); diff != 0 {
			t.Fatalf("caller %d: batched result differs from serial %s by %g", i, reg.Format, diff)
		}
	}
	maxWidth := callers

	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Batches != 1 {
		t.Fatalf("%d dispatches for %d coalescible requests, want exactly 1", stats.Batches, callers)
	}
	if stats.BatchedRequests != callers {
		t.Fatalf("batched requests = %d, want %d", stats.BatchedRequests, callers)
	}

	// The wider-k dispatch is visible in the trace: one "batch" span per
	// dispatch, the widest carrying the coalesced width as its arg.
	var batchSpans, widest int64
	for _, sp := range tracer.Spans() {
		if sp.Name != trace.PhaseBatch {
			continue
		}
		batchSpans++
		if sp.Detail != reg.Format {
			t.Fatalf("batch span detail = %q, want the dispatch format %q", sp.Detail, reg.Format)
		}
		if sp.Arg > widest {
			widest = sp.Arg
		}
	}
	if batchSpans != stats.Batches {
		t.Fatalf("trace shows %d batch spans, server counted %d dispatches", batchSpans, stats.Batches)
	}
	if widest != int64(maxWidth) {
		t.Fatalf("widest batch span arg = %d, responses saw width %d", widest, maxWidth)
	}
}

// TestOverloadShedsNotDeadlocks drives a MaxInFlight=1, zero-queue server
// with a burst while its one slot's holder is parked behind a held dispatch:
// the surplus must come back as 429 + Retry-After immediately — not hang, not
// 500 — while the request that got the slot completes normally.
func TestOverloadShedsNotDeadlocks(t *testing.T) {
	const callers = 8
	const k = 4

	srv, client, _ := newTestServer(t, Config{
		Threads:     1,
		BatchWindow: time.Hour,
		MaxInFlight: 1,
		QueueDepth:  -1, // no queue: surplus sheds instantly
		Clock:       clock.NewFake(),
	})
	reg, err := client.Register(RegisterRequest{Name: "dw4096", Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	release := holdDispatch(t, srv, reg.ID)

	var ok, shed atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			b := matrix.NewDenseRand[float64](reg.Cols, k, int64(i+1))
			_, err := client.Multiply(reg.ID, reg.Rows, b, k, 0)
			if err == nil {
				ok.Add(1)
				return
			}
			se, isStatus := err.(*StatusError)
			if !isStatus || !se.Overloaded() {
				t.Errorf("caller %d: want a 429 shed, got %v", i, err)
				return
			}
			if se.RetryAfter <= 0 {
				t.Errorf("caller %d: 429 without Retry-After", i)
				return
			}
			shed.Add(1)
		}(i)
	}
	close(start)
	waitFor(t, "one caller on the slot and the rest shed", func() bool {
		return srv.pendingBatch(reg.ID) == 1 && shed.Load() == callers-1
	})
	release()
	wg.Wait()

	if ok.Load() != 1 || shed.Load() != callers-1 {
		t.Fatalf("ok %d, shed %d; want the slot's holder served and the other %d shed", ok.Load(), shed.Load(), callers-1)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shed != shed.Load() {
		t.Fatalf("server shed counter = %d, clients saw %d", stats.Shed, shed.Load())
	}
}

// TestQueueDeadlineExpires covers cooperative cancellation in the queue: a
// request whose deadline lapses while it waits for an admission slot leaves
// with 503 without ever executing. The slot holder is parked behind a held
// dispatch that only the test retires, so the queued request's deadline
// deterministically expires first — no sleep racing the holder's completion.
func TestQueueDeadlineExpires(t *testing.T) {
	const k = 4
	srv, client, _ := newTestServer(t, Config{
		Threads:     1,
		BatchWindow: time.Hour,
		MaxInFlight: 1,
		QueueDepth:  4,
		Clock:       clock.NewFake(),
	})
	reg, err := client.Register(RegisterRequest{Name: "dw4096", Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	release := holdDispatch(t, srv, reg.ID)

	holderDone := make(chan error, 1)
	go func() {
		b := matrix.NewDenseRand[float64](reg.Cols, k, 1)
		_, err := client.Multiply(reg.ID, reg.Rows, b, k, 0)
		holderDone <- err
	}()
	// The holder owns the only slot once it is parked behind the dispatch.
	waitFor(t, "holder parked behind the held dispatch", func() bool {
		return srv.pendingBatch(reg.ID) == 1
	})

	b := matrix.NewDenseRand[float64](reg.Cols, k, 2)
	_, err = client.Multiply(reg.ID, reg.Rows, b, k, 20*time.Millisecond)
	se, isStatus := err.(*StatusError)
	if !isStatus || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued request past its deadline: want 503, got %v", err)
	}
	release()
	if err := <-holderDone; err != nil {
		t.Fatalf("slot holder failed: %v", err)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Timeouts < 1 {
		t.Fatalf("server timeout counter = %d, want >= 1", stats.Timeouts)
	}
	// The timed-out request never multiplied: only the holder's dispatch ran.
	if stats.Multiplies != 1 {
		t.Fatalf("server ran %d multiplies, want 1 (expired request must not execute)", stats.Multiplies)
	}
}

// TestPanelRoundTrip pins the binary wire codec.
func TestPanelRoundTrip(t *testing.T) {
	d := matrix.NewDenseRand[float64](7, 5, 42)
	var buf bytes.Buffer
	if err := WritePanel(&buf, d, 3); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 7*3*8 {
		t.Fatalf("encoded panel is %d bytes, want %d", buf.Len(), 7*3*8)
	}
	got, err := ReadPanel(&buf, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		for j := 0; j < 3; j++ {
			if got.At(i, j) != d.At(i, j) {
				t.Fatalf("panel[%d][%d] = %g, want %g", i, j, got.At(i, j), d.At(i, j))
			}
		}
	}
}
