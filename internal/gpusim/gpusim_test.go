package gpusim

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/formats"
	"repro/internal/kernels"
	"repro/internal/matrix"
)

func testMatrix(seed int64, rows, cols, nnz int) *matrix.COO[float64] {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewCOO[float64](rows, cols, nnz)
	for i := 0; i < nnz; i++ {
		m.Append(int32(rng.Intn(rows)), int32(rng.Intn(cols)), rng.NormFloat64())
	}
	m.Dedup()
	return m
}

func reference(t *testing.T, coo *matrix.COO[float64], b *matrix.Dense[float64], k int) *matrix.Dense[float64] {
	t.Helper()
	want := matrix.NewDense[float64](coo.Rows, k)
	bk, err := b.View(0, 0, b.Rows, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := kernels.GEMM(coo.ToDense(), bk.Clone(), want); err != nil {
		t.Fatal(err)
	}
	return want
}

func newTestDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(TestDevice(1 << 30))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func checkC(t *testing.T, c, want *matrix.Dense[float64], k int, label string) {
	t.Helper()
	view, err := c.View(0, 0, c.Rows, k)
	if err != nil {
		t.Fatal(err)
	}
	if !view.Clone().EqualTol(want, 1e-9) {
		t.Fatalf("%s: GPU result differs from reference", label)
	}
}

func TestDeviceConfigValidation(t *testing.T) {
	for name, edit := range map[string]func(*Config){
		"no SMs": func(c *Config) { c.SMs = 0 },
		// TestDevice's L2 has 64-byte lines in 8 ways.
		"L2 set count not a power of two": func(c *Config) { c.L2Bytes = 3 * 8 * 64 },
		"L2 not divisible into ways":      func(c *Config) { c.L2Bytes = 12 * 64 },
		"L2 smaller than one set":         func(c *Config) { c.L2Bytes = 4 * 64 },
	} {
		bad := TestDevice(1 << 20)
		edit(&bad)
		if _, err := NewDevice(bad); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

func TestAllocationAccounting(t *testing.T) {
	d, err := NewDevice(TestDevice(1024))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AllocF64(64, nil); err != nil { // 512 bytes
		t.Fatal(err)
	}
	if d.Allocated() != 512 {
		t.Fatalf("allocated %d, want 512", d.Allocated())
	}
	if _, err := d.AllocF64(128, nil); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected OOM, got %v", err)
	}
	d.FreeAll()
	if d.Allocated() != 0 {
		t.Fatal("FreeAll must zero accounting")
	}
	if _, err := d.AllocI32(256, nil); err != nil { // 1024 bytes fits now
		t.Fatal(err)
	}
}

func TestLaunchValidation(t *testing.T) {
	d := newTestDevice(t)
	if _, err := d.Launch(1, 100, func(w *Warp) {}); !errors.Is(err, ErrLaunch) {
		t.Fatal("non-multiple-of-32 block accepted")
	}
	if _, err := d.Launch(-1, 32, func(w *Warp) {}); !errors.Is(err, ErrLaunch) {
		t.Fatal("negative grid accepted")
	}
	res, err := d.Launch(0, 32, func(w *Warp) {})
	if err != nil || res.Cycles != 0 {
		t.Fatalf("empty launch: %v %v", res, err)
	}
}

func TestWarpIdentifiers(t *testing.T) {
	d := newTestDevice(t)
	seen := map[int]bool{}
	_, err := d.Launch(3, 64, func(w *Warp) {
		gw := w.GlobalWarp()
		if seen[gw] {
			t.Errorf("warp %d visited twice", gw)
		}
		seen[gw] = true
		if w.GlobalThread(0) != gw*WarpSize {
			t.Errorf("warp %d: lane-0 thread %d", gw, w.GlobalThread(0))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 {
		t.Fatalf("visited %d warps, want 6", len(seen))
	}
}

func TestCoalescingModel(t *testing.T) {
	d := newTestDevice(t)
	buf, err := d.AllocF64(4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	var consec, strided, same [WarpSize]int32
	for lane := 0; lane < WarpSize; lane++ {
		consec[lane] = int32(lane)       // 32 consecutive float64 = 256B = 4 lines of 64B
		strided[lane] = int32(lane * 64) // every lane on its own line
		same[lane] = 7                   // all lanes on one line
	}
	var out [WarpSize]float64

	run := func(idx *[WarpSize]int32) Stats {
		res, err := d.Launch(1, 32, func(w *Warp) {
			w.GatherF64(buf, idx, FullMask, &out)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	if s := run(&consec); s.Transactions != 4 || s.CoalescingEfficiency() != 1 {
		t.Fatalf("consecutive: %d transactions, eff %v", s.Transactions, s.CoalescingEfficiency())
	}
	if s := run(&strided); s.Transactions != 32 {
		t.Fatalf("strided: %d transactions, want 32", s.Transactions)
	}
	if s := run(&same); s.Transactions != 1 {
		t.Fatalf("same-address: %d transactions, want 1", s.Transactions)
	}
}

func TestMaskedLanesDoNotTouchMemory(t *testing.T) {
	d := newTestDevice(t)
	buf, err := d.AllocF64(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	var idx [WarpSize]int32
	for lane := range idx {
		idx[lane] = int32(1 << 20) // out of range: must not be dereferenced
	}
	idx[0] = 3
	var out [WarpSize]float64
	buf.Data[3] = 42
	_, err = d.Launch(1, 32, func(w *Warp) {
		w.GatherF64(buf, &idx, MaskFirst(1), &out)
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 42 {
		t.Fatal("active lane load lost")
	}
}

func TestAtomicAddAccumulates(t *testing.T) {
	d := newTestDevice(t)
	buf, err := d.AllocF64(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var idx [WarpSize]int32 // all lanes hit index 0
	var vals [WarpSize]float64
	for lane := range vals {
		vals[lane] = 1
	}
	res, err := d.Launch(1, 32, func(w *Warp) {
		w.AtomicAddF64(buf, &idx, &vals, FullMask)
	})
	if err != nil {
		t.Fatal(err)
	}
	if buf.Data[0] != 32 {
		t.Fatalf("atomic sum %v, want 32", buf.Data[0])
	}
	if res.Stats.AtomicTransacts == 0 {
		t.Fatal("atomics must be accounted")
	}
}

func TestScatterLastLaneWins(t *testing.T) {
	d := newTestDevice(t)
	buf, err := d.AllocF64(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var idx [WarpSize]int32
	var vals [WarpSize]float64
	for lane := range vals {
		vals[lane] = float64(lane)
	}
	if _, err := d.Launch(1, 32, func(w *Warp) {
		w.ScatterF64(buf, &idx, &vals, FullMask)
	}); err != nil {
		t.Fatal(err)
	}
	if buf.Data[0] != 31 {
		t.Fatalf("scatter collision result %v, want 31", buf.Data[0])
	}
}

func TestRooflineBounds(t *testing.T) {
	d := newTestDevice(t)
	// Pure compute: many FMAs, no memory.
	res, err := d.Launch(1, 32, func(w *Warp) {
		w.FMAN(100000, FullMask)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound != "compute" || res.Cycles <= 0 {
		t.Fatalf("pure-FMA launch bound %q, cycles %v", res.Bound, res.Cycles)
	}
	// Memory heavy: strided gathers dominate.
	buf, _ := d.AllocF64(1<<16, nil)
	var idx [WarpSize]int32
	for lane := range idx {
		idx[lane] = int32(lane * 512)
	}
	var out [WarpSize]float64
	res, err = d.Launch(1, 32, func(w *Warp) {
		for i := 0; i < 1000; i++ {
			w.GatherF64(buf, &idx, FullMask, &out)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound == "compute" {
		t.Fatalf("memory-heavy launch classified as %q", res.Bound)
	}
}

func TestMaskFirst(t *testing.T) {
	if MaskFirst(0) != 0 || MaskFirst(-1) != 0 {
		t.Fatal("empty masks")
	}
	if MaskFirst(1) != 1 || MaskFirst(32) != FullMask || MaskFirst(33) != FullMask {
		t.Fatal("mask values")
	}
	if MaskFirst(5) != 0b11111 {
		t.Fatal("mask 5")
	}
}

func TestELLColMajorCoalescesBetter(t *testing.T) {
	coo := testMatrix(9, 256, 256, 2000)
	b := matrix.NewDenseRand[float64](256, 32, 2)
	d := newTestDevice(t)
	c := matrix.NewDense[float64](256, 32)

	rm, err := SpMM(d, formats.ELLFromCOO(coo, formats.RowMajor), b, c, 32, kernels.InnerTiled)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := SpMM(d, formats.ELLFromCOO(coo, formats.ColMajor), b, c, 32, kernels.InnerTiled)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Stats.Transactions >= rm.Stats.Transactions {
		t.Fatalf("col-major ELL should issue fewer transactions: %d vs %d",
			cm.Stats.Transactions, rm.Stats.Transactions)
	}
	if cm.Seconds > rm.Seconds {
		t.Fatalf("col-major ELL should be no slower: %v vs %v", cm.Seconds, rm.Seconds)
	}
}

func TestLaunchDeterministic(t *testing.T) {
	coo := testMatrix(4, 100, 100, 800)
	csr := formats.CSRFromCOO(coo)
	b := matrix.NewDenseRand[float64](100, 32, 3)
	d := newTestDevice(t)
	c := matrix.NewDense[float64](100, 32)
	r1, err := SpMM(d, csr, b, c, 32, kernels.InnerTiled)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SpMM(d, csr, b, c, 32, kernels.InnerTiled)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Stats != r2.Stats {
		t.Fatal("simulation must be deterministic")
	}
}

func TestProfilesSane(t *testing.T) {
	for _, cfg := range []Config{H100Like(), A100Like()} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
	if H100Like().SMs <= A100Like().SMs {
		t.Fatal("H100 profile should have more SMs than A100")
	}
}
