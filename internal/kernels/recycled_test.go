package kernels

import (
	"math"
	"testing"

	"repro/internal/delta"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// TestRecycledCNeedsNoZeroing is why the serving layer may hand a dispatch a
// recycled, unzeroed C (internal/serve/pool.go): every servable variant,
// under every inner level, leaves bit for bit the same panel in a C that
// arrived full of NaNs as in a zeroed one — on a banded (cant-shaped) matrix,
// on the sweep's power-law and empty-row classes, and after a non-empty
// overlay has patched its dirty rows on top. A variant that fails here is
// fixed in the variant; the lease site never clears.
func TestRecycledCNeedsNoZeroing(t *testing.T) {
	banded, err := gen.Banded[float64](90, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	sweep := sweepMatrices()
	pool := parallel.NewPool(sweepThreads)
	defer pool.Close()
	var points []retiredPoint
	for _, v := range ServableVariants() {
		points = append(points, retiredPoint{v.Name, v})
	}
	// The retired spellings a serving plan may still name dispatch too.
	for _, p := range retiredSpellings(t, Variants()) {
		if _, _, ok := PlanForVariant(p.name); ok {
			points = append(points, p)
		}
	}
	for class, coo := range map[string]*matrix.COO[float64]{
		"banded": banded, "power-law": sweep["power-law"], "empty-row": sweep["empty-row"],
	} {
		in := NewVariantInput(coo, sweepK, sweepThreads, 3, 31)
		in.Pool = pool
		// One update, one insert into an empty row, one delete per matrix.
		ov, err := delta.NewOverlay(coo).Extend(coo, []delta.Op{
			{Row: coo.RowIdx[0], Col: coo.ColIdx[0], Val: 2.5},
			{Row: 0, Col: int32(coo.Cols - 1), Val: -1.25},
			{Row: coo.RowIdx[len(coo.RowIdx)-1], Col: coo.ColIdx[len(coo.ColIdx)-1], Del: true},
		})
		if err != nil || ov.NNZ() == 0 {
			t.Fatalf("%s: overlay fixture: %d entries, %v", class, ov.NNZ(), err)
		}
		for _, p := range points {
			v := p.now
			t.Run(class+"/"+p.name, func(t *testing.T) {
				eachInner(t, func(t *testing.T) {
					zeroed := matrix.NewDense[float64](coo.Rows, sweepK)
					recycled := matrix.NewDense[float64](coo.Rows, sweepK)
					for i := range recycled.Data {
						recycled.Data[i] = math.NaN()
					}
					for _, c := range []*matrix.Dense[float64]{zeroed, recycled} {
						if err := v.Run(in, c); err != nil {
							t.Fatal(err)
						}
					}
					same := func(stage string) {
						for i, want := range zeroed.Data {
							if got := recycled.Data[i]; math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s: element %d of a NaN-filled C is %v (%#x), of a zeroed C %v (%#x)",
									stage, i, got, math.Float64bits(got), want, math.Float64bits(want))
							}
						}
					}
					same("kernel")
					ov.Apply(zeroed, in.B, sweepK)
					ov.Apply(recycled, in.B, sweepK)
					same("kernel + overlay")
				})
			})
		}
	}
}
