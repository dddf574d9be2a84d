package gpusim

import "testing"

// launchOne runs the kernel as a single warp and returns the stats.
func launchOne(t *testing.T, d *Device, kernel func(w *Warp)) Stats {
	t.Helper()
	res, err := d.Launch(1, 32, kernel)
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats
}

func TestGatherRangeAccounting(t *testing.T) {
	d := newTestDevice(t) // 64B lines => 8 float64 per line
	buf, err := d.AllocF64(4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	var idx [WarpSize]int32
	for lane := range idx {
		idx[lane] = int32(lane * 64) // disjoint, line-aligned ranges
	}
	const elems = 16 // 2 lines per lane
	s := launchOne(t, d, func(w *Warp) {
		w.GatherF64Range(buf, &idx, elems, FullMask)
	})
	if s.MemInstrs != elems {
		t.Fatalf("memInstrs %d, want %d", s.MemInstrs, elems)
	}
	// 32 lanes × 2 distinct lines each = 64 hierarchy transactions; the
	// other 14 accesses per lane are same-line L1 hits.
	if got := s.L2Transactions + s.DRAMTransactions; got != 64 {
		t.Fatalf("hierarchy transactions %d, want 64", got)
	}
	if s.L1Transactions != int64(32*(elems-2)) {
		t.Fatalf("L1 credits %d, want %d", s.L1Transactions, 32*(elems-2))
	}
}

func TestGatherRangeMaskedLanes(t *testing.T) {
	d := newTestDevice(t)
	buf, err := d.AllocF64(1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	var idx [WarpSize]int32
	idx[0] = 0
	s := launchOne(t, d, func(w *Warp) {
		w.GatherF64Range(buf, &idx, 8, MaskFirst(1)) // one lane, one line
	})
	if got := s.L2Transactions + s.DRAMTransactions; got != 1 {
		t.Fatalf("hierarchy transactions %d, want 1", got)
	}
	if s.L1Transactions != 7 {
		t.Fatalf("L1 credits %d, want 7", s.L1Transactions)
	}
}

func TestCoalescedRangeAccounting(t *testing.T) {
	d := newTestDevice(t)
	buf, err := d.AllocF64(1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	const elems = 128 // 16 lines of 64B, cooperatively loaded
	s := launchOne(t, d, func(w *Warp) {
		w.GatherF64Coalesced(buf, 0, elems, FullMask)
	})
	if s.MemInstrs != (elems+WarpSize-1)/WarpSize {
		t.Fatalf("memInstrs %d, want %d", s.MemInstrs, (elems+WarpSize-1)/WarpSize)
	}
	if got := s.L1Transactions + s.L2Transactions + s.DRAMTransactions; got != 16 {
		t.Fatalf("transactions %d, want 16 (one per line)", got)
	}
	if s.CoalescingEfficiency() != 1 {
		t.Fatalf("coalesced range efficiency %v, want 1", s.CoalescingEfficiency())
	}
}

func TestAtomicRangeBypassesL1(t *testing.T) {
	d := newTestDevice(t)
	buf, err := d.AllocF64(4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	var idx [WarpSize]int32
	for lane := range idx {
		idx[lane] = int32(lane * 64)
	}
	const elems = 16 // 2 lines per lane
	s := launchOne(t, d, func(w *Warp) {
		w.AtomicAddF64Range(buf, &idx, elems, FullMask)
	})
	// Per lane: ceil(16*8/64) = 2 atomic line transactions, all at L2.
	if s.AtomicTransacts != 64 {
		t.Fatalf("atomic transactions %d, want 64", s.AtomicTransacts)
	}
	if s.L1Transactions != 0 {
		t.Fatalf("atomics must not earn L1 credits, got %d", s.L1Transactions)
	}
}

func TestAtomicCoalescedAccounting(t *testing.T) {
	d := newTestDevice(t)
	buf, err := d.AllocF64(1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := launchOne(t, d, func(w *Warp) {
		w.AtomicAddF64Coalesced(buf, 0, 64, FullMask) // 8 lines
	})
	if s.AtomicTransacts != 8 {
		t.Fatalf("atomic transactions %d, want 8", s.AtomicTransacts)
	}
}

func TestWarpL1CatchesReuse(t *testing.T) {
	d := newTestDevice(t)
	buf, err := d.AllocF64(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	var idx [WarpSize]int32 // all lanes, same line
	var out [WarpSize]float64
	s := launchOne(t, d, func(w *Warp) {
		w.GatherF64(buf, &idx, FullMask, &out) // first touch: miss
		w.GatherF64(buf, &idx, FullMask, &out) // second: warp-L1 hit
	})
	if s.L1Transactions != 1 {
		t.Fatalf("L1 hits %d, want 1", s.L1Transactions)
	}
	if got := s.L2Transactions + s.DRAMTransactions; got != 1 {
		t.Fatalf("hierarchy transactions %d, want 1", got)
	}
}

func TestWarpL1ResetBetweenWarps(t *testing.T) {
	d := newTestDevice(t)
	buf, err := d.AllocF64(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	var idx [WarpSize]int32
	var out [WarpSize]float64
	// Two warps touching the same line: the second warp's L1 starts
	// cold (but the device L2 now holds the line).
	res, err := d.Launch(1, 64, func(w *Warp) {
		w.GatherF64(buf, &idx, FullMask, &out)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.L1Transactions != 0 {
		t.Fatalf("cross-warp L1 sharing not modelled: %d L1 hits", res.Stats.L1Transactions)
	}
	if res.Stats.L2Transactions != 1 || res.Stats.DRAMTransactions != 1 {
		t.Fatalf("want 1 DRAM (first warp) + 1 L2 (second warp), got %d/%d",
			res.Stats.DRAMTransactions, res.Stats.L2Transactions)
	}
}

// TestWarpL1HoldsL1Lines touches as many consecutive lines as a
// non-power-of-two L1 holds (A100Like's 1536), twice: every touch of the
// second pass must hit, so every slot of the direct-mapped L1 is in use.
func TestWarpL1HoldsL1Lines(t *testing.T) {
	const lines = 1536
	cfg := TestDevice(1 << 20)
	cfg.L1Lines = lines
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perLine := int32(cfg.CachelineBytes / 8)
	buf, err := d.AllocF64(lines*int(perLine), nil)
	if err != nil {
		t.Fatal(err)
	}
	var idx [WarpSize]int32
	var out [WarpSize]float64
	s := launchOne(t, d, func(w *Warp) {
		for pass := 0; pass < 2; pass++ {
			for first := int32(0); first < lines; first += WarpSize {
				for lane := range idx {
					idx[lane] = (first + int32(lane)) * perLine
				}
				w.GatherF64(buf, &idx, FullMask, &out)
			}
		}
	})
	if s.L1Transactions != lines {
		t.Fatalf("second pass hit L1 on %d of %d lines", s.L1Transactions, lines)
	}
	if got := s.L2Transactions + s.DRAMTransactions; got != lines {
		t.Fatalf("hierarchy transactions %d, want %d (the first pass only)", got, lines)
	}
}

func TestScaledDown(t *testing.T) {
	cfg := H100Like()
	small := cfg.ScaledDown(0.02)
	if small.SMs >= cfg.SMs || small.SMs < 2 {
		t.Fatalf("scaled SMs %d", small.SMs)
	}
	if small.MemoryBytes >= cfg.MemoryBytes {
		t.Fatal("memory must scale")
	}
	if same := cfg.ScaledDown(1); same.SMs != cfg.SMs {
		t.Fatal("factor 1 must be identity")
	}
	if same := cfg.ScaledDown(0); same.SMs != cfg.SMs {
		t.Fatal("factor 0 must be identity (invalid factor ignored)")
	}
}
