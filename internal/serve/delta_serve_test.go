package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/harness"
	"repro/internal/matrix"
)

// The mutation-subsystem suite over the real HTTP surface: every test
// drives POST /v1/matrices/{id}/mutate and .../compact through the client
// library and verifies multiplies bitwise against a client-side fold of
// the same mutation plan — the per-epoch merged content is the oracle,
// csr-serial over it the universal reference (the bitwise contract makes
// the server's format/variant choice invisible).

// deltaPlan is a precomputed mutation schedule: batch b creates epoch b+1
// and states[e] is the full merged content at epoch e (states[0] is the
// registered base).
type deltaPlan struct {
	batches [][]MutateOp
	states  []*matrix.COO[float64]
}

// buildDeltaPlan folds `batches` deterministic op batches over base
// through the delta package itself, yielding the canonical merged content
// at every epoch. ~25% of ops are deletes.
func buildDeltaPlan(t *testing.T, base *matrix.COO[float64], batches, opsPer int, seed int64) *deltaPlan {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	plan := &deltaPlan{states: []*matrix.COO[float64]{base}}
	cur := base
	for b := 0; b < batches; b++ {
		ops := make([]MutateOp, opsPer)
		dops := make([]delta.Op, opsPer)
		for i := range ops {
			row, col := int32(rng.Intn(base.Rows)), int32(rng.Intn(base.Cols))
			del := rng.Float64() < 0.25
			var val float64
			if !del {
				val = rng.NormFloat64()
			}
			ops[i] = MutateOp{Row: row, Col: col, Val: val, Del: del}
			dops[i] = delta.Op{Row: row, Col: col, Val: val, Del: del}
		}
		ov, err := (*delta.Overlay)(nil).Extend(cur, dops)
		if err != nil {
			t.Fatalf("fold batch %d: %v", b+1, err)
		}
		if ov.NNZ() > 0 {
			cur = ov.Merge()
		}
		plan.batches = append(plan.batches, ops)
		plan.states = append(plan.states, cur)
	}
	return plan
}

// multiplyRef computes the serial reference panel for one epoch state.
func multiplyRef(t *testing.T, st *matrix.COO[float64], b *matrix.Dense[float64], k int) *matrix.Dense[float64] {
	t.Helper()
	kern, err := core.New("csr-serial", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.K = k
	if err := kern.Prepare(st, p); err != nil {
		t.Fatal(err)
	}
	c := matrix.NewDense[float64](st.Rows, k)
	if err := kern.Calculate(b, c, p); err != nil {
		t.Fatal(err)
	}
	return c
}

// registerSmall uploads a deterministic random triplet matrix and returns
// the registration plus the canonical local copy (the epoch-0 state).
func registerSmall(t *testing.T, c *Client, rows, cols, nnz int, seed int64) (*RegisterResponse, *matrix.COO[float64]) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rr := RegisterRequest{
		Rows:   rows,
		Cols:   cols,
		RowIdx: make([]int32, nnz),
		ColIdx: make([]int32, nnz),
		Vals:   make([]float64, nnz),
	}
	for i := 0; i < nnz; i++ {
		rr.RowIdx[i] = int32(rng.Intn(rows))
		rr.ColIdx[i] = int32(rng.Intn(cols))
		rr.Vals[i] = rng.NormFloat64()
	}
	local := &matrix.COO[float64]{
		Rows:   rows,
		Cols:   cols,
		RowIdx: append([]int32(nil), rr.RowIdx...),
		ColIdx: append([]int32(nil), rr.ColIdx...),
		Vals:   append([]float64(nil), rr.Vals...),
	}
	Canonicalize(local)
	reg, err := c.Register(rr)
	if err != nil {
		t.Fatal(err)
	}
	if got := ContentID(local); got != reg.ID {
		t.Fatalf("local canonical copy hashes to %s, server registered %s", got, reg.ID)
	}
	return reg, local
}

// mutateInfo fetches one matrix's listing entry.
func mutateInfo(t *testing.T, c *Client, id string) MatrixInfo {
	t.Helper()
	infos, err := c.Matrices()
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if info.ID == id {
			return info
		}
	}
	t.Fatalf("matrix %s not listed", id)
	return MatrixInfo{}
}

// TestMutateServeBitwise walks a mutation plan epoch by epoch: every ack
// carries the expected epoch and content hash, every multiply between
// batches is bitwise-identical to the serial reference over that epoch's
// merged content, and a forced compaction restores the canonical base
// hash without changing a single served bit.
func TestMutateServeBitwise(t *testing.T) {
	const k = 8
	// Background compaction disabled: this test pins the exact hash at
	// every epoch, so the only compaction allowed is the forced one below.
	_, client, _ := newTestServer(t, Config{Threads: 2, CompactRatio: -1, CompactCost: -1})
	reg, local := registerSmall(t, client, 256, 200, 1500, 7)
	plan := buildDeltaPlan(t, local, 6, 16, 11)

	for b, ops := range plan.batches {
		epoch := int64(b + 1)
		resp, err := client.Mutate(reg.ID, ops)
		if err != nil {
			t.Fatalf("mutate batch %d: %v", epoch, err)
		}
		if resp.Epoch != epoch {
			t.Fatalf("batch %d acked epoch %d", epoch, resp.Epoch)
		}
		wantHash := reg.ID
		if resp.OverlayNNZ > 0 {
			wantHash = fmt.Sprintf("%s+e%d", reg.ID, epoch)
		}
		if resp.Hash != wantHash {
			t.Fatalf("epoch %d hash %q, want %q", epoch, resp.Hash, wantHash)
		}

		bm := matrix.NewDenseRand[float64](reg.Cols, k, 100+epoch)
		res, err := client.Multiply(reg.ID, reg.Rows, bm, k, 0)
		if err != nil {
			t.Fatalf("multiply at epoch %d: %v", epoch, err)
		}
		if res.Epoch != epoch || res.Hash != resp.Hash {
			t.Fatalf("multiply at epoch %d answered epoch %d hash %q, want hash %q",
				epoch, res.Epoch, res.Hash, resp.Hash)
		}
		ref := multiplyRef(t, plan.states[epoch], bm, k)
		if diff, _ := res.C.MaxAbsDiff(ref); diff != 0 {
			t.Fatalf("epoch %d multiply differs from merged reference by %g", epoch, diff)
		}
	}

	// Forced compaction: epoch sticks, hash re-bases to the merged
	// triplets' canonical content address, bits stay identical.
	final := int64(len(plan.batches))
	mergedID := ContentID(plan.states[final])
	cres, err := client.Compact(reg.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !cres.Compacted || cres.Epoch != final || cres.Hash != mergedID {
		t.Fatalf("compact answered %+v, want compacted at epoch %d hash %s", cres, final, mergedID)
	}
	bm := matrix.NewDenseRand[float64](reg.Cols, k, 999)
	res, err := client.Multiply(reg.ID, reg.Rows, bm, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != final || res.Hash != mergedID {
		t.Fatalf("post-compact multiply at epoch %d hash %q, want epoch %d hash %s",
			res.Epoch, res.Hash, final, mergedID)
	}
	ref := multiplyRef(t, plan.states[final], bm, k)
	if diff, _ := res.C.MaxAbsDiff(ref); diff != 0 {
		t.Fatalf("post-compact multiply differs by %g", diff)
	}
	// Nothing left to merge.
	if cres, err = client.Compact(reg.ID); err != nil || cres.Compacted {
		t.Fatalf("second compact: %+v, %v; want a no-op", cres, err)
	}

	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	d := stats.Delta
	if d == nil || d.Mutations != final || d.Compactions != 1 || d.Mutated != 0 || d.OverlayNNZ != 0 {
		t.Fatalf("stats delta %+v, want %d mutations, 1 compaction, no pending overlay", d, final)
	}
}

// TestMutateValidation pins the refusal paths: unknown matrix, empty
// batch, and out-of-range coordinates — none may advance the epoch.
func TestMutateValidation(t *testing.T) {
	_, client, _ := newTestServer(t, Config{Threads: 1})
	reg, _ := registerSmall(t, client, 64, 64, 300, 3)

	_, err := client.Mutate("deadbeefdeadbeef", []MutateOp{{Row: 0, Col: 0, Val: 1}})
	if se, ok := err.(*StatusError); !ok || se.Code != http.StatusNotFound {
		t.Fatalf("mutate unknown id: %v, want 404", err)
	}
	_, err = client.Mutate(reg.ID, nil)
	if se, ok := err.(*StatusError); !ok || se.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: %v, want 400", err)
	}
	_, err = client.Mutate(reg.ID, []MutateOp{{Row: int32(reg.Rows), Col: 0, Val: 1}})
	if se, ok := err.(*StatusError); !ok || se.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range row: %v, want 400", err)
	}
	if info := mutateInfo(t, client, reg.ID); info.Epoch != 0 || info.Hash != reg.ID {
		t.Fatalf("rejected batches advanced state: %+v", info)
	}
}

// TestExportOverlayRoundTrip moves a mutated matrix the way the cluster
// rebalancer does: export from one server (base + pending overlay,
// epoch-tagged), import into a fresh one, and require the copy to serve
// bitwise-identical results at the identical epoch and content hash —
// before AND after the source compacts.
func TestExportOverlayRoundTrip(t *testing.T) {
	const k = 4
	// Compaction is forced below, never background: the measured trigger
	// would otherwise fire on the first dirty multiply whenever its overlay
	// apply outlasts the (tiny) base preparation.
	_, src, _ := newTestServer(t, Config{Threads: 1, CompactRatio: -1, CompactCost: -1})
	reg, local := registerSmall(t, src, 120, 90, 700, 21)
	plan := buildDeltaPlan(t, local, 3, 10, 31)
	for _, ops := range plan.batches {
		if _, err := src.Mutate(reg.ID, ops); err != nil {
			t.Fatal(err)
		}
	}

	exp, err := src.Export(reg.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !exp.Mutated() || exp.Epoch != 3 || len(exp.OvRowIdx) == 0 {
		t.Fatalf("export of a mutated matrix carries no overlay state: epoch=%d ov=%d",
			exp.Epoch, len(exp.OvRowIdx))
	}
	if got := ContentID(&matrix.COO[float64]{Rows: exp.Rows, Cols: exp.Cols,
		RowIdx: exp.RowIdx, ColIdx: exp.ColIdx, Vals: exp.Vals}); got != reg.ID {
		t.Fatalf("export base triplets hash to %s, want the uncompacted base %s", got, reg.ID)
	}

	_, dst, _ := newTestServer(t, Config{Threads: 1})
	reg2, err := dst.Register(exp.Request())
	if err != nil {
		t.Fatal(err)
	}
	if reg2.ID != reg.ID {
		t.Fatalf("import adopted handle %s, want %s", reg2.ID, reg.ID)
	}
	bm := matrix.NewDenseRand[float64](reg.Cols, k, 55)
	ref := multiplyRef(t, plan.states[3], bm, k)
	for name, cl := range map[string]*Client{"source": src, "import": dst} {
		res, err := cl.Multiply(reg.ID, reg.Rows, bm, k, 0)
		if err != nil {
			t.Fatalf("%s multiply: %v", name, err)
		}
		if res.Epoch != 3 || res.Hash != exp.Hash {
			t.Fatalf("%s serves epoch %d hash %q, want 3/%q", name, res.Epoch, res.Hash, exp.Hash)
		}
		if diff, _ := res.C.MaxAbsDiff(ref); diff != 0 {
			t.Fatalf("%s multiply differs from merged reference by %g", name, diff)
		}
	}

	// Compact the source and round-trip again: the export now carries a
	// re-based BaseHash and no overlay.
	if cres, err := src.Compact(reg.ID); err != nil || !cres.Compacted {
		t.Fatalf("compact: %+v, %v", cres, err)
	}
	exp2, err := src.Export(reg.ID)
	if err != nil {
		t.Fatal(err)
	}
	mergedID := ContentID(plan.states[3])
	if exp2.BaseHash != mergedID || len(exp2.OvRowIdx) != 0 || exp2.Hash != mergedID {
		t.Fatalf("post-compact export %+v, want base hash %s and no overlay", exp2, mergedID)
	}
	_, dst2, _ := newTestServer(t, Config{Threads: 1})
	if reg3, err := dst2.Register(exp2.Request()); err != nil || reg3.ID != reg.ID {
		t.Fatalf("post-compact import: %v, id %v", err, reg3)
	}
	res, err := dst2.Multiply(reg.ID, reg.Rows, bm, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diff, _ := res.C.MaxAbsDiff(ref); diff != 0 {
		t.Fatalf("post-compact import multiply differs by %g", diff)
	}
}

// TestCrashMidCompaction injects a torn write into the compaction's WAL
// append — the crash window between "merge computed" and "boundary
// durable". The compaction must fail without changing ANY served state
// (epoch, hash, overlay, bits), a restart must recover the exact
// pre-crash state, and a clean retry must then compact normally.
func TestCrashMidCompaction(t *testing.T) {
	const k = 4
	dir := t.TempDir()
	inject := harness.NewInjector(1)
	_, c1, teardown1 := durableServer(t, dir, inject)
	reg, local := registerSmall(t, c1, 150, 110, 800, 13)
	plan := buildDeltaPlan(t, local, 3, 12, 29)
	var last *MutateResponse
	var err error
	for _, ops := range plan.batches {
		if last, err = c1.Mutate(reg.ID, ops); err != nil {
			t.Fatal(err)
		}
	}
	wantHash := fmt.Sprintf("%s+e3", reg.ID)

	inject.Arm(harness.Fault{Point: harness.PointWALAppend, Kind: harness.FaultTorn})
	_, err = c1.Compact(reg.ID)
	if se, ok := err.(*StatusError); !ok || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("compact over a torn WAL append: %v, want a 503", err)
	}
	info := mutateInfo(t, c1, reg.ID)
	if info.Epoch != 3 || info.Hash != wantHash || info.OverlayNNZ != last.OverlayNNZ {
		t.Fatalf("failed compaction changed live state: %+v", info)
	}
	bm := matrix.NewDenseRand[float64](reg.Cols, k, 61)
	ref := multiplyRef(t, plan.states[3], bm, k)
	res, err := c1.Multiply(reg.ID, reg.Rows, bm, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diff, _ := res.C.MaxAbsDiff(ref); diff != 0 {
		t.Fatalf("multiply after failed compaction differs by %g", diff)
	}
	teardown1()

	// Restart across the torn record: the exact pre-crash state comes back.
	_, c2, teardown2 := durableServer(t, dir, nil)
	info = mutateInfo(t, c2, reg.ID)
	if info.Epoch != 3 || info.Hash != wantHash || info.OverlayNNZ != last.OverlayNNZ {
		t.Fatalf("recovered state %+v, want pre-crash epoch 3 hash %q", info, wantHash)
	}
	res, err = c2.Multiply(reg.ID, reg.Rows, bm, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diff, _ := res.C.MaxAbsDiff(ref); diff != 0 {
		t.Fatalf("recovered multiply differs by %g", diff)
	}
	// Clean retry compacts, and the compaction itself is durable.
	mergedID := ContentID(plan.states[3])
	if cres, err := c2.Compact(reg.ID); err != nil || !cres.Compacted || cres.Hash != mergedID {
		t.Fatalf("retry compact: %+v, %v, want hash %s", cres, err, mergedID)
	}
	teardown2()
	_, c3, _ := durableServer(t, dir, nil)
	info = mutateInfo(t, c3, reg.ID)
	if info.Epoch != 3 || info.Hash != mergedID || info.OverlayNNZ != 0 {
		t.Fatalf("compacted state did not survive restart: %+v", info)
	}
	res, err = c3.Multiply(reg.ID, reg.Rows, bm, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diff, _ := res.C.MaxAbsDiff(ref); diff != 0 {
		t.Fatalf("post-compact recovered multiply differs by %g", diff)
	}
}

// TestMutateRaceE2E is the acceptance e2e, sized for -race: 1000 mutation
// batches stream against concurrent multiplies with aggressive background
// compaction, and every multiply is verified bitwise against the merged
// content of the exact epoch the server answered at. Compactions re-base
// the matrix many times mid-stream; no response may ever mix epochs.
func TestMutateRaceE2E(t *testing.T) {
	const (
		k       = 4
		batches = 1000
		opsPer  = 4
		workers = 4
	)
	_, client, _ := newTestServer(t, Config{
		Threads:      2,
		BatchWindow:  200 * time.Microsecond,
		MaxInFlight:  workers,
		QueueDepth:   4 * workers,
		CompactRatio: 0.01, // overlay > 1% of base nnz triggers the compactor
	})
	reg, local := registerSmall(t, client, 300, 240, 1500, 43)
	plan := buildDeltaPlan(t, local, batches, opsPer, 47)

	// Reference kernels are built lazily per observed epoch — the workers
	// only pay for epochs they actually landed on.
	var refMu sync.Mutex
	kerns := map[int64]core.Kernel{}
	refFor := func(epoch int64, bm *matrix.Dense[float64]) (*matrix.Dense[float64], error) {
		refMu.Lock()
		defer refMu.Unlock()
		kern, ok := kerns[epoch]
		if !ok {
			var err error
			if kern, err = core.New("csr-serial", core.Options{}); err != nil {
				return nil, err
			}
			p := core.DefaultParams()
			p.K = k
			if err := kern.Prepare(plan.states[epoch], p); err != nil {
				return nil, err
			}
			kerns[epoch] = kern
		}
		p := core.DefaultParams()
		p.K = k
		c := matrix.NewDense[float64](reg.Rows, k)
		if err := kern.Calculate(bm, c, p); err != nil {
			return nil, err
		}
		return c, nil
	}

	var done atomic.Bool
	errs := make(chan error, workers+1)
	var wg sync.WaitGroup
	var verified atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				bm := matrix.NewDenseRand[float64](reg.Cols, k, int64(1000*w+i))
				res, err := client.Multiply(reg.ID, reg.Rows, bm, k, 0)
				if err != nil {
					errs <- fmt.Errorf("worker %d multiply %d: %w", w, i, err)
					return
				}
				ref, err := refFor(res.Epoch, bm)
				if err != nil {
					errs <- err
					return
				}
				if diff, _ := res.C.MaxAbsDiff(ref); diff != 0 {
					errs <- fmt.Errorf("worker %d: epoch %d response differs from its merged reference by %g",
						w, res.Epoch, diff)
					return
				}
				verified.Add(1)
			}
		}(w)
	}

	for b, ops := range plan.batches {
		resp, err := client.Mutate(reg.ID, ops)
		if err != nil {
			done.Store(true)
			wg.Wait()
			t.Fatalf("mutate batch %d: %v", b+1, err)
		}
		if resp.Epoch != int64(b+1) {
			done.Store(true)
			wg.Wait()
			t.Fatalf("batch %d acked epoch %d", b+1, resp.Epoch)
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delta == nil || stats.Delta.Mutations != batches {
		t.Fatalf("stats delta %+v, want %d mutation batches", stats.Delta, batches)
	}
	if stats.Delta.Compactions < 2 {
		t.Fatalf("only %d background compactions across %d batches — the cost model never fired",
			stats.Delta.Compactions, batches)
	}
	if verified.Load() == 0 {
		t.Fatal("no concurrent multiply was verified")
	}

	// Settle: force a final compaction and check the terminal state is the
	// canonical content address of the fully merged matrix.
	if _, err := client.Compact(reg.ID); err != nil {
		t.Fatal(err)
	}
	mergedID := ContentID(plan.states[batches])
	bm := matrix.NewDenseRand[float64](reg.Cols, k, 424242)
	res, err := client.Multiply(reg.ID, reg.Rows, bm, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != batches || res.Hash != mergedID {
		t.Fatalf("terminal state epoch %d hash %q, want %d/%s", res.Epoch, res.Hash, batches, mergedID)
	}
	ref, err := refFor(batches, bm)
	if err != nil {
		t.Fatal(err)
	}
	if diff, _ := res.C.MaxAbsDiff(ref); diff != 0 {
		t.Fatalf("terminal multiply differs by %g", diff)
	}
	t.Logf("race e2e: %d batches, %d compactions, %d concurrent multiplies verified bitwise",
		batches, stats.Delta.Compactions, verified.Load())
}
