package kernels

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// forced is Multiply through the slab walk at the given budget, past the
// rule: the entries' own partitions, their rangers, and the budget the
// caller picks.
func forced(a formats.Sparse, b, c *matrix.Dense[float64], k int, s Spec, budget int) error {
	balanced := s.Threads > 1 && s.Schedule == ScheduleBalanced
	switch a := a.(type) {
	case *matrix.COO[float64]:
		var bounds []int
		if s.Threads > 1 {
			bounds = cooRowPartition(a, s.Threads)
		}
		return walk(s, rowCOO, a.NNZ(), bounds, cooTriplets[float64]{a, b, c, k}, a.Cols, k, budget)
	case *formats.CSR[float64]:
		var bounds []int
		if balanced {
			bounds = a.BalancedBounds(s.Threads)
		}
		return walk(s, rowCSR, a.Rows, bounds, csrRows[float64]{a, b, c, k}, a.Cols, k, budget)
	case *formats.ELL[float64]:
		return walk(s, rowELL, a.Rows, nil, ellRows[float64]{a, b, c, k}, a.Cols, k, budget)
	case *formats.BCSR[float64]:
		var bounds []int
		if balanced {
			bounds = a.BalancedBounds(s.Threads)
		}
		rg := blocks[float64]{m: a.Rows, br: a.BR, bc: a.BC, colIdx: a.ColIdx, vals: a.Vals, rowPtr: a.RowPtr, b: b, c: c, k: k}
		return walk(s, rowBCSR, a.BlockRows, bounds, rg, a.Cols, k, budget)
	case *formats.BELL[float64]:
		rg := blocks[float64]{m: a.Rows, br: a.BR, bc: a.BC, colIdx: a.ColIdx, vals: a.Vals, width: a.Width, rowLen: a.RowLen, b: b, c: c, k: k}
		return walk(s, rowBELL, a.BlockRows, nil, rg, a.Cols, k, budget)
	case *formats.SELLCS[float64]:
		var bounds []int
		if balanced {
			bounds = a.BalancedBounds(s.Threads)
		}
		return walk(s, rowSELLCS, a.NumSlices(), bounds, sellSlices[float64]{a, b, c, k}, a.Cols, k, budget)
	}
	return fmt.Errorf("forced: %T", a)
}

// lateCOO is a 26×40 matrix whose rows start and end anywhere in the
// columns: empty (rows 0 and 25, and 12, between two full ones), a lone
// pair in the first or the last column, pairs only in the middle or only at
// the end — so that under narrow slabs some rows are empty in the first
// slab, some in every slab but one, and some cross every slab.
func lateCOO() *matrix.COO[float64] {
	m := matrix.NewCOO[float64](26, 40, 0)
	rng := rand.New(rand.NewSource(48))
	add := func(i int32, cols ...int32) {
		for _, j := range cols {
			m.Append(i, j, rng.NormFloat64())
		}
	}
	add(1, 0)
	add(2, 39)
	add(3, 17, 18, 19, 20)
	add(4, 30, 33, 36, 39)
	add(5, 0, 39)
	for i := int32(6); i < 25; i++ {
		if i == 12 {
			continue
		}
		for n := 1 + rng.Intn(12); n > 0; n-- {
			add(i, int32(rng.Intn(40)))
		}
	}
	m.Dedup()
	return m
}

// slabFormats converts coo to every format the slab walk serves, both ELL
// layouts among them; blocks are 3 wide, so on these shapes the trailing
// block row and column are fringes.
func slabFormats(t *testing.T, coo *matrix.COO[float64]) map[string]formats.Sparse {
	t.Helper()
	out := map[string]formats.Sparse{
		"coo":          coo,
		"csr":          formats.CSRFromCOO(coo),
		"ell":          formats.ELLFromCOO(coo, formats.RowMajor),
		"ell-colmajor": formats.ELLFromCOO(coo, formats.ColMajor),
	}
	var err error
	if out["bcsr"], err = formats.BCSRFromCOO(coo, 3, 3); err != nil {
		t.Fatal(err)
	}
	if out["bell"], err = formats.BELLFromCOO(coo, 3, 3); err != nil {
		t.Fatal(err)
	}
	if out["sellcs"], err = formats.SELLCSFromCOO(coo, 4, 8); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSlabWalkBitwise: with slabs forced — budgets of 1, 2, 3, 7 and 16
// columns of B, and one wider than B — every format, serial and parallel,
// static and balanced, with and without a context, and both ELL layouts,
// leaves csr-serial's bits in every row of a C that starts as the canary:
// on rows empty in the first slab or in all of them (gapsCOO, lateCOO),
// block fringes, and a power-law matrix; at k = 1, 5, 33 and 128, under
// every body.
func TestSlabWalkBitwise(t *testing.T) { eachInner(t, slabWalkBitwise) }

func slabWalkBitwise(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()
	specs := map[string]Spec{
		"serial":       {},
		"serial-ctx":   {Ctx: context.Background()},
		"omp":          {Threads: 3, Pool: pool},
		"omp-balanced": {Threads: 3, Schedule: ScheduleBalanced, Pool: pool},
		"omp-ctx":      {Threads: 4, Pool: pool, Ctx: context.Background()},
	}
	for mname, coo := range map[string]*matrix.COO[float64]{
		"gaps": gapsCOO(), "late": lateCOO(), "power-law": powerLawCOO(61, 47, 3),
	} {
		fs := slabFormats(t, coo)
		for _, k := range []int{1, 5, 33, 128} {
			b := matrix.NewDenseRand[float64](coo.Cols, k, 7)
			ref := csrSerialRef(t, coo, b, k)
			for _, width := range []int{1, 2, 3, 7, 16, coo.Cols + 1} {
				for fname, a := range fs {
					for sname, s := range specs {
						c := canaryDense(coo.Rows, k)
						if err := forced(a, b, c, k, s, width*k*8); err != nil {
							t.Fatal(err)
						}
						requireBitwise(t, fmt.Sprintf("%s %s/%s k=%d slab width %d", mname, fname, sname, k, width), c, ref)
					}
				}
			}
		}
	}
}

// TestCOOSlabSplits: COO's triplet ranges own their rows under slabs as
// they do in one pass — split anywhere, a row's run that crosses the split
// finished by the range it starts in — so every pass over two ranges cut at
// any triplet leaves csr-serial's bits.
func TestCOOSlabSplits(t *testing.T) {
	coo := lateCOO()
	const k = 5
	b := matrix.NewDenseRand[float64](coo.Cols, k, 2)
	ref := csrSerialRef(t, coo, b, k)
	rg := cooTriplets[float64]{a: coo, b: b, k: k}
	for _, width := range []int{1, 3, 7} {
		for mid := 0; mid <= coo.NNZ(); mid++ {
			rg.c = canaryDense(coo.Rows, k)
			for lo := 0; lo < coo.Cols; lo += width {
				sl := passSlab(lo, width, coo.Cols)
				rg.rows(0, mid, sl)
				rg.rows(mid, coo.NNZ(), sl)
			}
			requireBitwise(t, fmt.Sprintf("width %d split at %d", width, mid), rg.c, ref)
		}
	}
}

// TestSlabWalkAllocs: a walk of several passes allocates no more than the
// one pass: nothing serial, and on a pool only the one closure every
// pooled call has — no closure per pass, no cut table.
func TestSlabWalkAllocs(t *testing.T) {
	coo := powerLawCOO(300, 100, 9)
	const k = 128
	b, c := matrix.NewDenseRand[float64](100, k, 5), matrix.NewDense[float64](300, k)
	pool := parallel.NewPool(2)
	defer pool.Close()
	for fname, a := range slabFormats(t, coo) {
		for _, s := range []Spec{{}, {Threads: 2, Pool: pool}} {
			want := 0.0
			if s.Threads > 1 {
				want = 1
				if fname == "coo" {
					want = 2 // and its row-aligned triplet bounds
				}
			}
			if n := testing.AllocsPerRun(20, func() { _ = forced(a, b, c, k, s, 9*k*8) }); n > want {
				t.Errorf("%s threads=%d, 12 passes: %.0f allocs/op, want <= %.0f", fname, s.Threads, n, want)
			}
		}
	}
}

// TestSlabRule: the inequality slabs a matrix whose rows share few columns
// with the row before — torso1's shape, f = 0.15 — and leaves cant's, f =
// 0.85, on one pass; a matrix without a sorted scan, or without rows, never
// slabs; and the cuts a row adds count against the B rows it saves.
func TestSlabRule(t *testing.T) {
	const k, budget = 128, 1 << 20 // 1024 columns a slab
	rows, z := 3515, 73
	torso := matrix.Reuse{Rows: rows, Pairs: rows * z, Shared: rows * z * 15 / 100, Span: rows * 2180, Sorted: true}
	for _, tc := range []struct {
		name string
		u    matrix.Reuse
		cols int
		slab bool
	}{
		{"torso1", torso, 3515, true},
		{"cant", matrix.Reuse{Rows: 6245, Pairs: 6245 * 33, Shared: 6245 * 33 * 85 / 100, Span: 6245 * 2761, Sorted: true}, 6245, false},
		{"unsorted", matrix.Reuse{Rows: rows, Pairs: rows * z, Span: rows * 2180}, 3515, false},
		{"no rows", matrix.Reuse{Sorted: true}, 3515, false},
		// f = 0.45: z(1 − 2f) = 7.3 B rows a row saves, against 2·2 C rows
		// for a row crossing two slab edges, or 2·4 for one crossing four.
		{"f=0.45, 2 cuts", matrix.Reuse{Rows: 1000, Pairs: 73000, Shared: 73000 * 45 / 100, Span: 1000 * 2048, Sorted: true}, 4096, true},
		{"f=0.45, 4 cuts", matrix.Reuse{Rows: 1000, Pairs: 73000, Shared: 73000 * 45 / 100, Span: 1000 * 4096, Sorted: true}, 8192, false},
	} {
		if got := slabRule(tc.u, tc.cols, k, budget) != 0; got != tc.slab {
			t.Errorf("%s: slabs %v, want %v", tc.name, got, tc.slab)
		}
	}
	// B's k columns within the L2: one pass, whatever the scan says.
	a := formats.CSRFromCOO(powerLawCOO(300, 100, 9))
	if l2 > 0 && slabbed(a, a.Cols, k) != 0 {
		t.Errorf("a 100-row B at k=%d (%d B) slabs under a %d B L2", k, 100*k*8, l2)
	}
}

// TestReadL2 reads a cache description laid out as Linux's sysfs lays it
// out: the level-2 data or unified cache, in K or M or bytes; none is 0.
func TestReadL2(t *testing.T) {
	dir := t.TempDir()
	write := func(i int, level, typ, size string) {
		d := filepath.Join(dir, fmt.Sprintf("index%d", i))
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, v := range map[string]string{"level": level, "type": typ, "size": size} {
			if err := os.WriteFile(filepath.Join(d, name), []byte(v+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := readL2(dir); got != 0 {
		t.Fatalf("no caches: %d", got)
	}
	write(0, "1", "Data", "48K")
	write(1, "1", "Instruction", "32K")
	write(2, "2", "Unified", "2048K")
	write(3, "3", "Unified", "300M")
	if got := readL2(dir); got != 2<<20 {
		t.Fatalf("L2 %d B, want %d", got, 2<<20)
	}
	for s, want := range map[string]int{"1M": 1 << 20, "524288": 524288, "": 0, "x": 0, "-4K": 0} {
		if got := parseSize(s); got != want {
			t.Errorf("parseSize(%q) = %d, want %d", s, got, want)
		}
	}
}

// TestRowEnd: the galloping search finds the end of every run of a sorted
// row index, runs of every length from 1 to 70 at every offset.
func TestRowEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var rows []int32
	for r := int32(0); len(rows) < 4000; r++ {
		for n := 1 + rng.Intn(70); n > 0; n-- {
			rows = append(rows, r)
		}
	}
	for p := 0; p < len(rows); p++ {
		want := p
		for want < len(rows) && rows[want] == rows[p] {
			want++
		}
		if got := rowEnd(rows, p, len(rows)); got != want {
			t.Fatalf("rowEnd(%d) = %d, want %d", p, got, want)
		}
		if end := min(want, p+3); rowEnd(rows, p, end) != end {
			t.Fatalf("rowEnd(%d) past a range end %d", p, end)
		}
	}
}

// BenchmarkSlabWalk prices the slab walk against the one pass: CSR on
// torso1@0.03 and cant@0.1 — the kernel-sweep's two matrices — at k = 32,
// 64, 128 and 256, and on every registry matrix at scale 0.05 at k = 32 and
// 128; serial and on the process pool. Each iteration runs both walks,
// forced — one pass and slabs of half the L2, which first alternating — so
// the two share the host's drift. It reports each walk's GFLOP/s, slabs ÷ one ("slabs/one",
// above 1 when slabs win), the fraction of pairs whose column the row
// before also holds ("shared"), and the rule's choice ("rule", 1 = slabs).
// EXPERIMENTS.md "B slabs on the host" is its table.
func BenchmarkSlabWalk(b *testing.B) {
	if l2 <= 0 {
		b.Skip("no L2 size to cut slabs by")
	}
	type ref struct {
		name  string
		scale float64
		ks    []int
	}
	refs := []ref{{"torso1", 0.03, []int{32, 64, 128, 256}}, {"cant", 0.1, []int{32, 64, 128, 256}}}
	for _, n := range gen.Names() {
		refs = append(refs, ref{n, 0.05, []int{32, 128}})
	}
	for _, ref := range refs {
		coo, _, err := gen.GenerateScaled(ref.name, ref.scale)
		if err != nil {
			b.Fatal(err)
		}
		a := formats.CSRFromCOO(coo)
		u := a.Reuse()
		for _, k := range ref.ks {
			x := matrix.NewDenseRand[float64](a.Cols, k, 1)
			c := matrix.NewDense[float64](a.Rows, k)
			rule := 0.0
			if slabbed(a, a.Cols, k) != 0 {
				rule = 1
			}
			for _, mode := range []string{"serial", "omp"} {
				s := Spec{}
				if mode == "omp" {
					s.Threads = parallel.MaxThreads()
				}
				b.Run(fmt.Sprintf("%s@%g/k=%d/%s", ref.name, ref.scale, k, mode), func(b *testing.B) {
					var took [2]time.Duration
					budgets := [2]int{0, l2 / 2}
					run := func(w int) {
						t0 := time.Now()
						if err := walk(s, rowCSR, a.Rows, nil, csrRows[float64]{a, x, c, k}, a.Cols, k, budgets[w]); err != nil {
							b.Fatal(err)
						}
						took[w] += time.Since(t0)
					}
					run(0) // C's first touch, outside the timing
					took[0] = 0
					for i := 0; i < b.N; i++ {
						run(i % 2) // which walk runs first alternates: the second finds the first's lines
						run(1 - i%2)
					}
					flops := SpMMFlops(a.NNZ(), k) * float64(b.N) / 1e9
					b.ReportMetric(flops/took[0].Seconds(), "one-GFLOP/s")
					b.ReportMetric(flops/took[1].Seconds(), "slabs-GFLOP/s")
					b.ReportMetric(took[0].Seconds()/took[1].Seconds(), "slabs/one")
					b.ReportMetric(float64(u.Shared)/float64(max(u.Pairs, 1)), "shared")
					b.ReportMetric(rule, "rule")
				})
			}
		}
	}
}
