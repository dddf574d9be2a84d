package delta

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
)

// testFormats are the four first-class serving formats the overlay must be
// bitwise-transparent over.
var testFormats = []string{"coo", "csr", "ell", "bcsr"}

// randomCOO builds a canonical sparse matrix with the given density.
func randomCOO(t testing.TB, rows, cols int, density float64, seed int64) *matrix.COO[float64] {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewCOO[float64](rows, cols, int(float64(rows*cols)*density)+1)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				m.RowIdx = append(m.RowIdx, int32(r))
				m.ColIdx = append(m.ColIdx, int32(c))
				m.Vals = append(m.Vals, rng.NormFloat64())
			}
		}
	}
	return m
}

// randomOverlay builds an overlay holding frac × base-nnz random updates
// and inserts over base. frac == 0 returns a nil overlay — the clean-path
// case TestOverlayApplyEmptyIsNoop pins at 0 allocs/op with the dirty ones.
func randomOverlay(t testing.TB, base *matrix.COO[float64], frac float64) *Overlay {
	t.Helper()
	if frac == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(17))
	n := int(frac * float64(base.NNZ()))
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, Op{
			Row: int32(rng.Intn(base.Rows)),
			Col: int32(rng.Intn(base.Cols)),
			Val: rng.NormFloat64(),
		})
	}
	ov, err := (*Overlay)(nil).Extend(base, ops)
	if err != nil {
		t.Fatal(err)
	}
	return ov
}

// serialResult multiplies coo × b with the named serial kernel.
func serialResult(t testing.TB, format string, coo *matrix.COO[float64], b *matrix.Dense[float64], k int) *matrix.Dense[float64] {
	t.Helper()
	kern, err := core.New(format+"-serial", core.Options{})
	if err != nil {
		t.Fatalf("core.New(%s-serial): %v", format, err)
	}
	p := core.DefaultParams()
	p.Reps, p.K, p.Verify = 1, k, false
	if err := kern.Prepare(coo, p); err != nil {
		t.Fatalf("prepare %s: %v", format, err)
	}
	c := matrix.NewDense[float64](coo.Rows, k)
	if err := kern.Calculate(b, c, p); err != nil {
		t.Fatalf("calculate %s: %v", format, err)
	}
	return c
}

func bitsEqual(a, b *matrix.Dense[float64]) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for r := 0; r < a.Rows; r++ {
		for c := 0; c < a.Cols; c++ {
			av := a.Data[r*a.Stride+c]
			bv := b.Data[r*b.Stride+c]
			if math.Float64bits(av) != math.Float64bits(bv) {
				return false
			}
		}
	}
	return true
}

// applyOpsDense maintains the dense ground truth for a mutation sequence.
func applyOpsDense(d *matrix.Dense[float64], ops []Op) {
	for _, op := range ops {
		if op.Del {
			d.Data[int(op.Row)*d.Stride+int(op.Col)] = 0
		} else {
			d.Data[int(op.Row)*d.Stride+int(op.Col)] = op.Val
		}
	}
}

// checkOverlay asserts the package's two invariants for a base + overlay
// pair: (1) base-kernel output + Apply is bit-identical to the merged
// matrix through every serving format's serial kernel, and (2) the merged
// matrix matches the dense ground truth exactly.
func checkOverlay(t *testing.T, base *matrix.COO[float64], ov *Overlay, truth *matrix.Dense[float64], k int) {
	t.Helper()
	merged := ov.Merge()
	if merged == nil {
		merged = base
	}
	if truth != nil {
		got := merged.ToDense()
		if diff, _ := got.MaxAbsDiff(truth); diff != 0 {
			t.Fatalf("merged matrix differs from dense ground truth by %g", diff)
		}
	}
	b := matrix.NewDenseRand[float64](base.Cols, k, 42)
	for _, format := range testFormats {
		want := serialResult(t, format, merged, b, k)
		got := serialResult(t, format, base, b, k)
		ov.Apply(got, b, k)
		if !bitsEqual(got, want) {
			t.Fatalf("format %s: base+overlay result is not bit-identical to the merged matrix", format)
		}
	}
}

func TestOverlayInsertUpdateDelete(t *testing.T) {
	base := randomCOO(t, 24, 16, 0.2, 1)
	truth := base.ToDense()
	var ov *Overlay

	batches := [][]Op{
		// Insert into empty coordinates, update an existing one.
		{{Row: 0, Col: 0, Val: 3.5}, {Row: base.RowIdx[0], Col: base.ColIdx[0], Val: -2.25}},
		// Delete an existing entry and an absent one (no-op).
		{{Row: base.RowIdx[1], Col: base.ColIdx[1], Del: true}, {Row: 23, Col: 15, Del: true}},
		// Duplicate coordinates within one batch: last op wins.
		{{Row: 5, Col: 5, Val: 1}, {Row: 5, Col: 5, Val: 2}, {Row: 5, Col: 5, Del: true}, {Row: 5, Col: 5, Val: 7}},
	}
	for _, ops := range batches {
		next, err := ov.Extend(base, ops)
		if err != nil {
			t.Fatal(err)
		}
		ov = next
		applyOpsDense(truth, ops)
		checkOverlay(t, base, ov, truth, 8)
	}
	if got := truth.Data[5*truth.Stride+5]; got != 7 {
		t.Fatalf("duplicate-coordinate batch: final value %g, want 7 (last op wins)", got)
	}
}

func TestOverlayDeleteToEmptyRow(t *testing.T) {
	base := randomCOO(t, 16, 12, 0.3, 2)
	truth := base.ToDense()
	// Tombstone every entry of row 3: the merged matrix must have an empty
	// row and the recomputed row must be exactly zero.
	var ops []Op
	for i := range base.RowIdx {
		if base.RowIdx[i] == 3 {
			ops = append(ops, Op{Row: 3, Col: base.ColIdx[i], Del: true})
		}
	}
	if len(ops) == 0 {
		t.Skip("row 3 empty in generated matrix")
	}
	ov, err := (*Overlay)(nil).Extend(base, ops)
	if err != nil {
		t.Fatal(err)
	}
	applyOpsDense(truth, ops)
	checkOverlay(t, base, ov, truth, 4)
	merged := ov.Merge()
	for i := range merged.RowIdx {
		if merged.RowIdx[i] == 3 {
			t.Fatalf("row 3 still has entries after delete-to-empty")
		}
	}
}

func TestOverlayExtendValidation(t *testing.T) {
	base := randomCOO(t, 8, 8, 0.2, 3)
	for _, ops := range [][]Op{
		{{Row: 8, Col: 0, Val: 1}},
		{{Row: 0, Col: -1, Val: 1}},
		{{Row: 0, Col: 0, Val: math.NaN()}},
		{{Row: 0, Col: 0, Val: math.Inf(1)}},
	} {
		if _, err := (*Overlay)(nil).Extend(base, ops); err == nil {
			t.Fatalf("Extend(%+v) accepted an invalid op", ops)
		}
	}
}

func TestOverlayNoopTombstoneDropped(t *testing.T) {
	base := randomCOO(t, 8, 8, 0.2, 4)
	ov, err := (*Overlay)(nil).Extend(base, []Op{{Row: 0, Col: 0, Del: true}})
	if err != nil {
		t.Fatal(err)
	}
	// (0,0) may or may not exist in the random base; either way a second
	// delete of a definitely-absent coordinate must not grow the overlay.
	n1 := ov.NNZ()
	ov2, err := ov.Extend(base, []Op{{Row: 7, Col: 7, Del: true}})
	if err != nil {
		t.Fatal(err)
	}
	has77 := false
	for i := range base.RowIdx {
		if base.RowIdx[i] == 7 && base.ColIdx[i] == 7 {
			has77 = true
		}
	}
	if !has77 && ov2.NNZ() != n1 {
		t.Fatalf("no-op tombstone retained: nnz %d -> %d", n1, ov2.NNZ())
	}
}

func TestOverlayRebase(t *testing.T) {
	base := randomCOO(t, 20, 20, 0.15, 5)
	ov, err := (*Overlay)(nil).Extend(base, []Op{
		{Row: 1, Col: 1, Val: 4},
		{Row: 2, Col: 2, Del: true},
		{Row: 3, Col: 3, Val: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	merged := ov.Merge()
	// Rebasing an overlay onto its own merge yields a clean matrix.
	if re := ov.Rebase(merged); re != nil {
		t.Fatalf("rebase onto own merge left %d entries", re.NNZ())
	}
	// Mutations landing after the merge snapshot survive a rebase.
	ov2, err := ov.Extend(base, []Op{{Row: 4, Col: 4, Val: 9}})
	if err != nil {
		t.Fatal(err)
	}
	re := ov2.Rebase(merged)
	if re == nil || re.NNZ() != 1 || re.Vals[0] != 9 {
		t.Fatalf("rebase lost the post-snapshot mutation: %+v", re)
	}
	// The rebased overlay over the merged base is bitwise-equivalent to
	// the full overlay over the original base.
	k := 6
	b := matrix.NewDenseRand[float64](base.Cols, k, 7)
	want := serialResult(t, "csr", base, b, k)
	ov2.Apply(want, b, k)
	got := serialResult(t, "csr", merged, b, k)
	re.Apply(got, b, k)
	if !bitsEqual(got, want) {
		t.Fatal("rebased overlay over merged base differs from full overlay over original base")
	}
}

func TestOverlayMergedNNZ(t *testing.T) {
	base := randomCOO(t, 16, 16, 0.2, 6)
	ov, err := (*Overlay)(nil).Extend(base, []Op{
		{Row: 0, Col: 0, Val: 1},                              // insert or update
		{Row: base.RowIdx[0], Col: base.ColIdx[0], Del: true}, // delete existing
		{Row: base.RowIdx[2], Col: base.ColIdx[2], Val: 2.5},  // update existing
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ov.MergedNNZ(), ov.Merge().NNZ(); got != want {
		t.Fatalf("MergedNNZ %d, Merge().NNZ() %d", got, want)
	}
}

// TestOverlayApplyEmptyIsNoop: a nil or empty overlay leaves the base
// kernel's output untouched, and Apply allocates nothing whether the overlay
// is empty or dirties 1 % or 10 % of the base's nonzeros — the clean path is
// every multiply's tax, the dirty path every mutated matrix's.
func TestOverlayApplyEmptyIsNoop(t *testing.T) {
	base := randomCOO(t, 8, 8, 0.3, 8)
	b := matrix.NewDenseRand[float64](8, 4, 1)
	c := serialResult(t, "csr", base, b, 4)
	want := matrix.NewDense[float64](8, 4)
	copy(want.Data, c.Data)
	var ov *Overlay
	ov.Apply(c, b, 4) // nil overlay
	NewOverlay(base).Apply(c, b, 4)
	if !bitsEqual(c, want) {
		t.Fatal("empty overlay Apply changed the result")
	}

	const k = 32
	dirty := randomCOO(t, 512, 512, 0.02, 13)
	bd := matrix.NewDenseRand[float64](dirty.Cols, k, 3)
	for _, tc := range []struct {
		name string
		frac float64
	}{
		{"empty", 0},
		{"overlay1pct", 0.01},
		{"overlay10pct", 0.10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ov := randomOverlay(t, dirty, tc.frac)
			cd := serialResult(t, "csr", dirty, bd, k)
			if got := testing.AllocsPerRun(100, func() { ov.Apply(cd, bd, k) }); got != 0 {
				t.Fatalf("Apply over %d overlay entries allocates %v/op, want 0", ov.NNZ(), got)
			}
		})
	}
}

func TestCostModel(t *testing.T) {
	cm := CostModel{BreakEven: 2, MaxRatio: 0.5}
	if cm.ShouldCompact(0, 1000, 100, 1) {
		t.Fatal("empty overlay should never compact")
	}
	if !cm.ShouldCompact(500, 1000, 0, 1) {
		t.Fatal("ratio trigger did not fire at MaxRatio")
	}
	if !cm.ShouldCompact(1, 1000, 2.5, 1) {
		t.Fatal("time trigger did not fire past break-even")
	}
	if cm.ShouldCompact(1, 1000, 1.5, 1) {
		t.Fatal("time trigger fired below break-even")
	}
	if (CostModel{}).ShouldCompact(999, 1000, 1e9, 1e-9) {
		t.Fatal("zero-valued model must disable both triggers")
	}
}

func TestOverlayOpsRoundTrip(t *testing.T) {
	base := randomCOO(t, 12, 12, 0.25, 9)
	ov, err := (*Overlay)(nil).Extend(base, []Op{
		{Row: 0, Col: 1, Val: 2},
		{Row: base.RowIdx[1], Col: base.ColIdx[1], Del: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := (*Overlay)(nil).Extend(base, ov.Ops())
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != ov.NNZ() || back.Live() != ov.Live() {
		t.Fatalf("ops round trip: %d/%d entries, want %d/%d",
			back.NNZ(), back.Live(), ov.NNZ(), ov.Live())
	}
	for i := range ov.RowIdx {
		if back.RowIdx[i] != ov.RowIdx[i] || back.ColIdx[i] != ov.ColIdx[i] ||
			math.Float64bits(back.Vals[i]) != math.Float64bits(ov.Vals[i]) || back.Del[i] != ov.Del[i] {
			t.Fatalf("ops round trip entry %d differs", i)
		}
	}
}
