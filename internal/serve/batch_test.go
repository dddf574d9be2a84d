package serve

import (
	"context"
	"errors"
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/matrix"
)

// bitsEqual reports whether two panels hold the same shape and the same
// IEEE bit patterns.
func bitsEqual(a, b *matrix.Dense[float64]) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ar, br := a.Row(i), b.Row(i)
		for j := range ar {
			if math.Float64bits(ar[j]) != math.Float64bits(br[j]) {
				return false
			}
		}
	}
	return true
}

// failingKernel is a prepared kernel whose dispatch fails.
type failingKernel struct {
	core.Kernel
	err error
}

func (f failingKernel) Calculate(b, c *matrix.Dense[float64], p core.Params) error { return f.err }

// gatedKernel is a prepared kernel whose dispatch says it has started and
// then waits to be let through.
type gatedKernel struct {
	core.Kernel
	entered, open chan struct{}
}

func (g gatedKernel) Calculate(b, c *matrix.Dense[float64], p core.Params) error {
	close(g.entered)
	<-g.open
	return g.Kernel.Calculate(b, c, p)
}

// outcome is what a client goroutine reports back.
type outcome struct {
	res *MultiplyResult
	err error
}

// multiplyAsync sends one multiply from its own goroutine.
func multiplyAsync(c *Client, reg *RegisterResponse, b *matrix.Dense[float64], k int, deadline time.Duration) chan outcome {
	done := make(chan outcome, 1)
	go func() {
		res, err := c.Multiply(reg.ID, reg.Rows, b, k, deadline)
		done <- outcome{res, err}
	}()
	return done
}

// TestOneBatchShape pins the batcher's single dispatch shape. Three requests
// of different k arrive behind a held dispatch and leave as one when it
// returns: every member's C is bitwise what a lone dispatch and csr-serial
// compute, the headers report the whole dispatch, the members' results are
// disjoint column views of one C, and a kernel error reaches every member
// through the same fan-out.
func TestOneBatchShape(t *testing.T) {
	ks := []int{3, 8, 5}
	totalK := 0
	for _, k := range ks {
		totalK += k
	}
	srv, client, _ := newTestServer(t, Config{Threads: 2, BatchWindow: time.Hour, Clock: clock.NewFake()})
	reg, err := client.Register(RegisterRequest{Name: "dw4096", Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := srv.reg.Get(reg.ID)
	sv, _, err := srv.reg.Prepared(context.Background(), reg.ID)
	if err != nil {
		t.Fatal(err)
	}

	// csr-serial on the same canonical matrix is the bitwise reference.
	local, _, err := gen.GenerateScaled("dw4096", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	Canonicalize(local)
	panels := make([]*matrix.Dense[float64], len(ks))
	want := make([]*matrix.Dense[float64], len(ks))
	for i, k := range ks {
		panels[i] = matrix.NewDenseRand[float64](reg.Cols, k, int64(10+i))
		want[i] = multiplyRef(t, local, panels[i], k)
	}

	release := holdDispatch(t, srv, reg.ID)
	coalesced := make([]chan outcome, len(ks))
	for i, k := range ks {
		coalesced[i] = multiplyAsync(client, reg, panels[i], k, 0)
	}
	waitFor(t, "every member behind the held dispatch", func() bool { return srv.pendingBatch(reg.ID) == len(ks) })
	release()
	results := make([]*MultiplyResult, len(ks))
	for i := range ks {
		got := <-coalesced[i]
		if got.err != nil {
			t.Fatalf("member %d: %v", i, got.err)
		}
		results[i] = got.res
		if got.res.BatchWidth != len(ks) || got.res.BatchK != totalK {
			t.Fatalf("member %d: dispatch reported as width %d, k %d; want %d, %d",
				i, got.res.BatchWidth, got.res.BatchK, len(ks), totalK)
		}
		if !bitsEqual(got.res.C, want[i]) {
			t.Fatalf("member %d (k=%d): coalesced result is not bitwise csr-serial", i, ks[i])
		}
	}

	// The same requests alone: width 1, same bits.
	for i, k := range ks {
		res, err := client.Multiply(reg.ID, reg.Rows, panels[i], k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.BatchWidth != 1 || res.BatchK != k {
			t.Fatalf("lone k=%d: dispatch reported as width %d, k %d", k, res.BatchWidth, res.BatchK)
		}
		if !bitsEqual(res.C, results[i].C) {
			t.Fatalf("lone k=%d: differs from the coalesced result", k)
		}
	}

	// The fan-out itself: disjoint column views of one C, lone or coalesced.
	// The first member's result comes back by value, the others' on their turn.
	dispatch := func(sv Serving, members []int) []batchResult {
		batch := make([]*batchRequest, len(members))
		for j, i := range members {
			batch[j] = &batchRequest{sv: sv, b: leased(panels[i]), k: ks[i], turn: make(chan batchTurn, 1)}
		}
		out := []batchResult{srv.runBatch(m, batch)}
		for _, req := range batch[1:] {
			out = append(out, (<-req.turn).res)
		}
		return out
	}
	lone := dispatch(sv, []int{1})[0]
	if lone.err != nil || lone.c.Stride != ks[1] || !bitsEqual(lone.c, want[1]) {
		t.Fatalf("lone dispatch: %+v; want a compact panel (its own wire form) equal to csr-serial", lone)
	}
	views := dispatch(sv, []int{0, 1, 2})
	for j, res := range views {
		if res.err != nil || res.width != 3 || res.k != totalK {
			t.Fatalf("member %d: %+v", j, res)
		}
		if !bitsEqual(res.c, want[j]) {
			t.Fatalf("member %d: view is not bitwise csr-serial", j)
		}
	}
	// Overwrite each view in turn; the others must not see it.
	for j, res := range views {
		for i := 0; i < res.c.Rows; i++ {
			for c := range res.c.Row(i) {
				res.c.Set(i, c, math.NaN())
			}
		}
		for o := j + 1; o < len(views); o++ {
			if !bitsEqual(views[o].c, want[o]) {
				t.Fatalf("writing member %d's view changed member %d's", j, o)
			}
		}
	}

	// A kernel error takes the same loop to every member.
	boom := errors.New("kernel exploded")
	failing := sv
	failing.Kernel = failingKernel{Kernel: sv.Kernel, err: boom}
	for _, members := range [][]int{{0}, {0, 1, 2}} {
		for j, res := range dispatch(failing, members) {
			if !errors.Is(res.err, boom) || res.c != nil || res.width != len(members) {
				t.Fatalf("width %d, member %d: %+v; want the kernel's error and no panel", len(members), j, res)
			}
		}
	}
}

// TestIdleMatrixNeverWaits is the gain in its deterministic form: with an
// hour's BatchWindow on a clock nobody advances, requests against a matrix
// with no dispatch in flight complete, alone, and arm no timer.
func TestIdleMatrixNeverWaits(t *testing.T) {
	const k = 4
	clk := clock.NewFake()
	srv, client, _ := newTestServer(t, Config{Threads: 2, BatchWindow: time.Hour, Clock: clk})
	reg, local := registerSmall(t, client, 60, 48, 400, 3)
	for i := 0; i < 3; i++ {
		b := matrix.NewDenseRand[float64](reg.Cols, k, int64(i))
		res, err := client.Multiply(reg.ID, reg.Rows, b, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.BatchWidth != 1 || !bitsEqual(res.C, multiplyRef(t, local, b, k)) {
			t.Fatalf("request %d: width %d, or not bitwise csr-serial", i, res.BatchWidth)
		}
	}
	if clk.Pending() != 0 {
		t.Fatalf("%d timers armed with no dispatch in flight", clk.Pending())
	}
	if wait := &srv.batchWait; wait.Count() != 3 || wait.Sum() != 0 {
		t.Fatalf("batch wait: %d observations summing to %g s; want 3 of exactly 0", wait.Count(), wait.Sum())
	}
}

// TestBatchWindowBoundsTheWait: waiters behind a dispatch that outlasts
// BatchWindow are sent off beside it by the timer, which is armed when the
// first of them joins and at no other time.
func TestBatchWindowBoundsTheWait(t *testing.T) {
	const k, window = 4, 50 * time.Millisecond
	clk := clock.NewFake()
	srv, client, _ := newTestServer(t, Config{Threads: 2, BatchWindow: window, Clock: clk})
	reg, local := registerSmall(t, client, 60, 48, 400, 3)
	release := holdDispatch(t, srv, reg.ID)
	if clk.Pending() != 0 {
		t.Fatal("a dispatch in flight armed the timer with nobody waiting")
	}
	bs := []*matrix.Dense[float64]{
		matrix.NewDenseRand[float64](reg.Cols, k, 1), matrix.NewDenseRand[float64](reg.Cols, k, 2),
	}
	waiters := []chan outcome{multiplyAsync(client, reg, bs[0], k, 0), multiplyAsync(client, reg, bs[1], k, 0)}
	waitFor(t, "both requests behind the held dispatch", func() bool { return srv.pendingBatch(reg.ID) == 2 })
	if clk.Pending() != 1 {
		t.Fatalf("%d timers armed behind an in-flight dispatch, want 1", clk.Pending())
	}
	clk.Advance(window - time.Nanosecond)
	if srv.pendingBatch(reg.ID) != 2 {
		t.Fatal("waiters left before BatchWindow had passed")
	}
	clk.Advance(time.Nanosecond)
	for i, w := range waiters {
		got := <-w
		if got.err != nil || got.res.BatchWidth != 2 || !bitsEqual(got.res.C, multiplyRef(t, local, bs[i], k)) {
			t.Fatalf("waiter %d after the window: %+v, %v; want one width-2 dispatch, bitwise csr-serial", i, got.res, got.err)
		}
	}
	// The held dispatch is still in flight; its return finds nothing to hand on.
	release()
	if st := srv.batches.Value(); st != 1 || clk.Pending() != 0 {
		t.Fatalf("%d dispatches, %d timers left; want 1 and 0", st, clk.Pending())
	}
	if wait := &srv.batchWait; wait.Count() != 2 || wait.Sum() <= 0 {
		t.Fatalf("batch wait: %d observations summing to %g s; want 2, positive", wait.Count(), wait.Sum())
	}
}

// TestEpochSplitDispatchesAtOnce: a request that joins at a newer epoch than
// the waiters sends them off immediately, beside the dispatch in flight, and
// waits alone; no dispatch mixes epochs.
func TestEpochSplitDispatchesAtOnce(t *testing.T) {
	const k = 4
	srv, client, _ := newTestServer(t, Config{Threads: 2, BatchWindow: time.Hour, Clock: clock.NewFake()})
	reg, local := registerSmall(t, client, 60, 48, 400, 3)
	release := holdDispatch(t, srv, reg.ID)
	defer release()
	b := matrix.NewDenseRand[float64](reg.Cols, k, 1)
	stale := multiplyAsync(client, reg, b, k, 0)
	waitFor(t, "the epoch-0 request behind the held dispatch", func() bool { return srv.pendingBatch(reg.ID) == 1 })

	// Epoch 1 rewrites one stored value; the canonical order does not move.
	mutated := local.Clone()
	mutated.Vals[0] = 2.5
	if _, err := client.Mutate(reg.ID, []MutateOp{{Row: local.RowIdx[0], Col: local.ColIdx[0], Val: 2.5}}); err != nil {
		t.Fatal(err)
	}
	fresh := multiplyAsync(client, reg, b, k, 0)
	// No release, no clock: the split alone dispatches the stale waiter, and
	// that dispatch's return hands the fresh one on.
	got := <-stale
	if got.err != nil || got.res.Epoch != 0 || got.res.BatchWidth != 1 || !bitsEqual(got.res.C, multiplyRef(t, local, b, k)) {
		t.Fatalf("epoch-0 request: %+v, %v; want a lone dispatch of the unmutated matrix", got.res, got.err)
	}
	got = <-fresh
	if got.err != nil || got.res.Epoch != 1 || got.res.BatchWidth != 1 || !bitsEqual(got.res.C, multiplyRef(t, mutated, b, k)) {
		t.Fatalf("epoch-1 request: %+v, %v; want a lone dispatch of the mutated matrix", got.res, got.err)
	}
}

// TestMaxBatchKCutsPending: waiters whose summed k reaches MaxBatchK leave at
// once as one dispatch, and a single request that wide never waits.
func TestMaxBatchKCutsPending(t *testing.T) {
	const k, maxK = 6, 16
	srv, client, _ := newTestServer(t, Config{Threads: 2, BatchWindow: time.Hour, MaxBatchK: maxK, Clock: clock.NewFake()})
	reg, local := registerSmall(t, client, 60, 48, 400, 3)
	release := holdDispatch(t, srv, reg.ID)
	defer release()

	wide := matrix.NewDenseRand[float64](reg.Cols, maxK, 9)
	res, err := client.Multiply(reg.ID, reg.Rows, wide, maxK, 0)
	if err != nil || res.BatchWidth != 1 || !bitsEqual(res.C, multiplyRef(t, local, wide, maxK)) {
		t.Fatalf("a k=MaxBatchK request behind a held dispatch: %+v, %v; want it dispatched alone", res, err)
	}

	var bs []*matrix.Dense[float64]
	var waiters []chan outcome
	for i := 0; i < 3; i++ { // 6, 12, 18: the third reaches the cap
		bs = append(bs, matrix.NewDenseRand[float64](reg.Cols, k, int64(i)))
		waiters = append(waiters, multiplyAsync(client, reg, bs[i], k, 0))
		if i < 2 {
			waitFor(t, "a request below the cap to wait", func() bool { return srv.pendingBatch(reg.ID) == i+1 })
		}
	}
	for i, w := range waiters {
		got := <-w
		if got.err != nil || got.res.BatchWidth != 3 || got.res.BatchK != 3*k || !bitsEqual(got.res.C, multiplyRef(t, local, bs[i], k)) {
			t.Fatalf("waiter %d: %+v, %v; want the cap to cut one width-3 dispatch", i, got.res, got.err)
		}
	}
}

// TestWaiterLeaves: a waiter that gives up before a dispatch claims it takes
// everything of its own with it — it is never the leader, its columns are
// not computed, its B goes back to the pool at once and the dispatch that
// follows is one narrower, with every reference to its C released. One that
// gives up after a dispatch claimed it leaves as promptly and disturbs
// nobody: the dispatch still computes its columns, from its B, which the
// batch's own reference keeps out of the pool.
func TestWaiterLeaves(t *testing.T) {
	const k = 4
	srv, client, _ := newTestServer(t, Config{Threads: 2, BatchWindow: time.Hour, Clock: clock.NewFake()})
	reg, local := registerSmall(t, client, 60, 512, 400, 7)
	m, _ := srv.reg.Get(reg.ID)
	sv, _, err := srv.reg.Prepared(context.Background(), reg.ID)
	if err != nil {
		t.Fatal(err)
	}
	// direct joins the batcher the way a handler does, with a B the test can name.
	type member struct {
		panel *matrix.Dense[float64]
		b     *Lease
		res   chan batchResult
	}
	direct := func(ctx context.Context, sv Serving, seed int64) *member {
		mb := &member{panel: matrix.NewDenseRand[float64](reg.Cols, k, seed), res: make(chan batchResult, 1)}
		mb.b = leased(mb.panel)
		go func() { mb.res <- srv.multiply(ctx, m, sv, mb.b, k, nil) }()
		return mb
	}
	probe := leasePanel(reg.Cols, k)
	bClass := int64(cap(probe.panel.Data) * 8)
	probe.Release()

	// The oldest waiter's deadline expires behind the held dispatch.
	release := holdDispatch(t, srv, reg.ID)
	recycled := panels.recycled.Value()
	leaver := multiplyAsync(client, reg, matrix.NewDenseRand[float64](reg.Cols, k, 1), k, 50*time.Millisecond)
	waitFor(t, "the leaver behind the held dispatch", func() bool { return srv.pendingBatch(reg.ID) == 1 || len(leaver) == 1 })
	survivors := []*member{direct(context.Background(), sv, 2), direct(context.Background(), sv, 3)}
	var se *StatusError
	if got := <-leaver; !errors.As(got.err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("a waiter past its deadline: want 503, got %v", got.err)
	}
	waitFor(t, "the survivors waiting without it", func() bool { return srv.pendingBatch(reg.ID) == 2 })
	waitFor(t, "the leaver's B (and its client's copy) back in the pool before the dispatch it left", func() bool {
		return panels.recycled.Value() >= recycled+2*bClass
	})
	release()
	var wide *Lease
	for i, mb := range survivors {
		res := <-mb.res
		if res.err != nil || res.width != 2 || res.k != 2*k || !bitsEqual(res.c, multiplyRef(t, local, mb.panel, k)) {
			t.Fatalf("survivor %d: %+v; want a width-2 dispatch, bitwise csr-serial", i, res)
		}
		if wide == nil {
			wide = res.lease
		}
		if res.lease != wide {
			t.Fatalf("survivor %d's C is not a view of the same dispatch", i)
		}
	}
	if n := srv.multiplies.Value(); n != 2 {
		t.Fatalf("%d multiplies ran, want 2 (the leaver's columns are nobody's)", n)
	}
	if refs := wide.refs.Load(); refs != 2 {
		t.Fatalf("the dispatch's C has %d references, want one per survivor", refs)
	}
	for _, mb := range survivors {
		mb.b.Release()
		wide.Release()
		if refs := mb.b.refs.Load(); refs != 0 {
			t.Fatalf("a survivor's B still has %d references", refs)
		}
	}
	if refs := wide.refs.Load(); refs != 0 {
		t.Fatalf("the dispatch's C still has %d references after both members released it", refs)
	}

	// Mid-dispatch: the second member leaves while the kernel runs.
	gate := gatedKernel{Kernel: sv.Kernel, entered: make(chan struct{}), open: make(chan struct{})}
	gated := sv
	gated.Kernel = gate
	release = holdDispatch(t, srv, reg.ID)
	leader := direct(context.Background(), gated, 4)
	waitFor(t, "the leader behind the held dispatch", func() bool { return srv.pendingBatch(reg.ID) == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ghost := direct(ctx, gated, 5)
	waitFor(t, "the ghost behind the held dispatch", func() bool { return srv.pendingBatch(reg.ID) == 2 })
	m.batch.mu.Lock()
	ghostReq := m.batch.pending[1]
	m.batch.mu.Unlock()
	release()
	<-gate.entered
	cancel()
	if res := <-ghost.res; !errors.Is(res.err, context.Canceled) || res.c != nil {
		t.Fatalf("a member that left mid-dispatch got %+v, want its context error", res)
	}
	// Its handler's reference goes, and whoever leases that size class next
	// must not get B's storage while the dispatch still reads it.
	ghost.b.Release()
	squatter := leasePanel(reg.Cols, k)
	for i := range squatter.panel.Data {
		squatter.panel.Data[i] = math.NaN()
	}
	close(gate.open)
	if res := <-leader.res; res.err != nil || res.width != 2 || !bitsEqual(res.c, multiplyRef(t, local, leader.panel, k)) {
		t.Fatalf("the leader: %+v; want a width-2 dispatch undisturbed by the departure", res)
	}
	if turn := <-ghostReq.turn; turn.res.err != nil || !bitsEqual(turn.res.c, multiplyRef(t, local, ghost.panel, k)) {
		t.Fatalf("the departed member's columns were not computed from its B (err %v)", turn.res.err)
	}
	squatter.Release()
}

// TestZeroRowMatrixCoalesces: a matrix with no rows has empty column views,
// not out-of-range ones.
func TestZeroRowMatrixCoalesces(t *testing.T) {
	srv, client, _ := newTestServer(t, Config{Threads: 1, BatchWindow: time.Hour, Clock: clock.NewFake()})
	reg, err := client.Register(RegisterRequest{Rows: 0, Cols: 5})
	if err != nil {
		t.Fatal(err)
	}
	release := holdDispatch(t, srv, reg.ID)
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			res, err := client.Multiply(reg.ID, 0, matrix.NewDense[float64](5, 3), 3, 0)
			if err == nil && (res.BatchWidth != 2 || res.C.Rows != 0) {
				err = errors.New("not one width-2 dispatch of empty panels")
			}
			errs <- err
		}()
	}
	waitFor(t, "both requests behind the held dispatch", func() bool { return srv.pendingBatch(reg.ID) == 2 })
	release()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
