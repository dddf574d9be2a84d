package advisor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

// TestExtractMatchesBCSRFill pins Extract's features to those built around
// the 4×4 BCSR they describe: BCSRFill4 is BCSRFromCOO(m, 4, 4).FillRatio()
// on every registry matrix and on inputs no canonical matrix has —
// unsorted triplets, duplicates (summed in triplet order), explicit zeros,
// pairs cancelling to 0 and fringe blocks.
func TestExtractMatchesBCSRFill(t *testing.T) {
	check := func(label string, m *matrix.COO[float64]) {
		t.Helper()
		b, err := formats.BCSRFromCOO(m, 4, 4)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		p := metrics.Compute(m)
		want := Features{Properties: p, ELLOverhead: p.ELLOverhead(), BCSRFill4: b.FillRatio()}
		if p.Rows > 0 && p.Cols > 0 {
			want.Density = float64(p.NNZ) / (float64(p.Rows) * float64(p.Cols))
		}
		got, err := Extract(m)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
			t.Fatalf("%s: features\n%s\nwant\n%s", label, g, w)
		}
	}
	for _, name := range gen.Names() {
		m, _, err := gen.GenerateScaled(name, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		check(name, m)
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Dimensions that are rarely multiples of 4 leave fringe blocks.
		rows, cols := 1+rng.Intn(50), 1+rng.Intn(50)
		m := matrix.NewCOO[float64](rows, cols, 0)
		for n := rng.Intn(3 * rows); n > 0; n-- {
			r, c := int32(rng.Intn(rows)), int32(rng.Intn(cols))
			v := rng.NormFloat64()
			switch rng.Intn(6) {
			case 0: // an explicit zero
				v = 0
			case 1: // a duplicate of an earlier triplet
				if i := rng.Intn(m.NNZ() + 1); i < m.NNZ() {
					r, c = m.RowIdx[i], m.ColIdx[i]
				}
			case 2: // a pair cancelling to 0
				m.Append(r, c, v)
				v = -v
			}
			m.Append(r, c, v)
		}
		check(fmt.Sprintf("seed %d (%dx%d, %d unsorted triplets)", seed, rows, cols, m.NNZ()), m)
	}
	check("empty", matrix.NewCOO[float64](9, 6, 0))
}
