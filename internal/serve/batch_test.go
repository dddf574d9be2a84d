package serve

import (
	"context"
	"errors"
	"math"
	"sync"
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

// TestOneBatchShape pins the batcher's single dispatch shape. Three requests
// of different k coalesce on the fake clock with a fourth whose deadline has
// already passed: every survivor's C is bitwise what a lone dispatch and
// csr-serial compute, the headers still report the whole dispatch, the
// expired member leaves with its context error and disturbs nobody — and the
// dispatch still computes its columns from its B, which the batch's own
// reference kept out of the pool after the handler's was released — the
// members' results are disjoint column views of one C, and a kernel error
// reaches every member through the same fan-out.
func TestOneBatchShape(t *testing.T) {
	ks := []int{3, 8, 5}
	const expiredK = 2
	totalK := expiredK
	for _, k := range ks {
		totalK += k
	}
	clk := clock.NewFake()
	srv, client, _ := newTestServer(t, Config{Threads: 2, BatchWindow: time.Second, Clock: clk})
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
	ref, err := core.New("csr-serial", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refParams := core.DefaultParams()
	if err := ref.Prepare(local, refParams); err != nil {
		t.Fatal(err)
	}
	serial := func(b *matrix.Dense[float64], k int) *matrix.Dense[float64] {
		c := matrix.NewDense[float64](reg.Rows, k)
		refParams.K = k
		if err := ref.Calculate(b, c, refParams); err != nil {
			t.Fatal(err)
		}
		return c
	}
	panels := make([]*matrix.Dense[float64], len(ks))
	want := make([]*matrix.Dense[float64], len(ks))
	for i, k := range ks {
		panels[i] = matrix.NewDenseRand[float64](reg.Cols, k, int64(10+i))
		want[i] = serial(panels[i], k)
	}

	// The expired member joins the open batch and leaves at once: its handler
	// drops its reference to B, and whoever leases that size class next must
	// not get B's storage while the batch still holds its own.
	past, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	expiredB := matrix.NewDenseRand[float64](reg.Cols, expiredK, 9)
	expired := leased(expiredB)
	if res := srv.multiply(past, m, sv, expired, expiredK, nil); !errors.Is(res.err, context.DeadlineExceeded) || res.c != nil {
		t.Fatalf("expired member got %+v, want its context error", res)
	}
	m.batch.mu.Lock()
	ghost := m.batch.pending[0]
	m.batch.mu.Unlock()
	expired.Release()
	squatter := leasePanel(reg.Cols, expiredK)
	for i := range squatter.panel.Data {
		squatter.panel.Data[i] = math.NaN()
	}
	results := make([]*MultiplyResult, len(ks))
	errs := make([]error, len(ks))
	var wg sync.WaitGroup
	for i := range ks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = client.Multiply(reg.ID, reg.Rows, panels[i], ks[i], 0)
		}(i)
	}
	waitFor(t, "every member in the open batch", func() bool { return srv.pendingBatch(reg.ID) == len(ks)+1 })
	clk.Advance(time.Second)
	wg.Wait()
	if res := <-ghost.done; res.err != nil || !bitsEqual(res.c, serial(expiredB, expiredK)) {
		t.Fatalf("the expired member's columns were not computed from its B (err %v)", res.err)
	}
	squatter.Release()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("member %d: %v", i, errs[i])
		}
		if res.BatchWidth != len(ks)+1 || res.BatchK != totalK {
			t.Fatalf("member %d: dispatch reported as width %d, k %d; want %d, %d (the expired member still rode along)",
				i, res.BatchWidth, res.BatchK, len(ks)+1, totalK)
		}
		if !bitsEqual(res.C, want[i]) {
			t.Fatalf("member %d (k=%d): coalesced result is not bitwise csr-serial", i, ks[i])
		}
	}

	// The same requests alone: width 1, same bits.
	for i, k := range ks {
		done := make(chan struct{})
		var res *MultiplyResult
		var err error
		go func() {
			defer close(done)
			res, err = client.Multiply(reg.ID, reg.Rows, panels[i], k, 0)
		}()
		waitFor(t, "lone request in its window", func() bool { return srv.pendingBatch(reg.ID) == 1 })
		clk.Advance(time.Second)
		<-done
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
	dispatch := func(sv Serving, members []int) []batchResult {
		batch := make([]*batchRequest, len(members))
		for j, i := range members {
			batch[j] = &batchRequest{sv: sv, b: leased(panels[i]), k: ks[i], done: make(chan batchResult, 1)}
		}
		srv.runBatch(m, batch)
		out := make([]batchResult, len(batch))
		for j, req := range batch {
			out[j] = <-req.done
		}
		return out
	}
	lone := dispatch(sv, []int{1})[0]
	if lone.err != nil || lone.c.Stride != ks[1] || !bitsEqual(lone.c, want[1]) {
		t.Fatalf("lone dispatch: %+v; want a compact panel (its own wire form) equal to csr-serial", lone)
	}
	views := dispatch(sv, []int{0, 1, 2})
	for j, res := range views {
		if res.err != nil || res.width != 3 || res.k != totalK-expiredK {
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

// TestZeroRowMatrixCoalesces: a matrix with no rows has empty column views,
// not out-of-range ones.
func TestZeroRowMatrixCoalesces(t *testing.T) {
	clk := clock.NewFake()
	srv, client, _ := newTestServer(t, Config{Threads: 1, BatchWindow: time.Second, Clock: clk})
	reg, err := client.Register(RegisterRequest{Rows: 0, Cols: 5})
	if err != nil {
		t.Fatal(err)
	}
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
	waitFor(t, "both requests in the open batch", func() bool { return srv.pendingBatch(reg.ID) == 2 })
	clk.Advance(time.Second)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
