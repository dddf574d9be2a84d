package delta

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
)

// BenchmarkOverlayApply prices overlay application on top of a prepared
// CSR multiply: the empty row is the hot-path tax every clean multiply
// pays, the 1% and 10% rows bound the dirty-matrix tax the compaction cost
// model trades against re-preparation. TestOverlayApplyEmptyIsNoop pins
// all three at 0 allocs/op.
func BenchmarkOverlayApply(b *testing.B) {
	const rows, cols, k = 2048, 2048, 32
	base := randomCOO(b, rows, cols, 0.01, 13)
	kern, err := core.New("csr-serial", core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams()
	p.Reps, p.K, p.Verify = 1, k, false
	if err := kern.Prepare(base, p); err != nil {
		b.Fatal(err)
	}
	bm := matrix.NewDenseRand[float64](cols, k, 3)
	c := matrix.NewDense[float64](rows, k)

	for _, tc := range []struct {
		name string
		frac float64
	}{
		{"empty", 0},
		{"overlay1pct", 0.01},
		{"overlay10pct", 0.10},
	} {
		ov := randomOverlay(b, base, tc.frac)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := kern.Calculate(bm, c, p); err != nil {
					b.Fatal(err)
				}
				ov.Apply(c, bm, k)
			}
		})
	}
}

// BenchmarkCompaction prices the background path: merge the overlay into
// a fresh canonical base and re-prepare it — the one-time cost the model
// weighs against the per-multiply overlay tax.
func BenchmarkCompaction(b *testing.B) {
	const rows, cols = 2048, 2048
	base := randomCOO(b, rows, cols, 0.01, 19)
	ov := randomOverlay(b, base, 0.05)
	p := core.DefaultParams()
	p.Reps, p.K, p.Verify = 1, 32, false
	b.Run(fmt.Sprintf("nnz%d_overlay%d", base.NNZ(), ov.NNZ()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			merged := ov.Merge()
			kern, err := core.New("csr-serial", core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := kern.Prepare(merged, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}
