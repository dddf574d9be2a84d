package formats

import (
	"fmt"
	"testing"

	"repro/internal/gen"
)

// BenchmarkFromCOO prices every format's conversion from COO on the two
// matrices the benchmark's kernel sweep prepares: cant@0.1 (banded) and
// torso1@0.03 (skewed rows). Blocked formats use 4×4 blocks. "coo" only
// checks that the generated (row-sorted) input is sorted.
func BenchmarkFromCOO(b *testing.B) {
	for _, mat := range []struct {
		name  string
		scale float64
	}{{"cant", 0.1}, {"torso1", 0.03}} {
		m, _, err := gen.GenerateScaled(mat.name, mat.scale)
		if err != nil {
			b.Fatal(err)
		}
		for _, format := range []string{"coo", "csr", "ell", "bcsr", "bell", "sellcs"} {
			b.Run(fmt.Sprintf("%s@%g/%s", mat.name, mat.scale, format), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := FromCOO(format, m, Params{Block: 4}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
