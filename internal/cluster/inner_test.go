package cluster

import (
	"math"
	"testing"
	_ "unsafe" // for go:linkname

	"repro/internal/matrix"
)

// vectorInner is matrix's unexported inner-loop switch (see
// internal/kernels/inner_test.go).
//
//go:linkname vectorInner repro/internal/matrix.vector
var vectorInner bool

// TestRoutedPanelsBothInners is the in-process stand-in for a fleet whose
// replicas differ in AVX2 support: the same routed multiplies run once with
// the whole process on the scalar inner and once on the vector inner, each
// run checked against single-node serving, and the two runs' panels must
// agree bit for bit — a failover between such replicas is invisible.
func TestRoutedPanelsBothInners(t *testing.T) {
	if !vectorInner {
		t.Skip("no vector inner in this build or on this CPU")
	}
	defer func() { vectorInner = true }()
	const k = 37 // 16-wide loop, 4-wide loop and scalar tail
	var runs [2][]*matrix.Dense[float64]
	for i, on := range []bool{false, true} {
		vectorInner = on
		tc := newTestCluster(t, 2, nil)
		for j, m := range tc.registerMatrices(4) {
			runs[i] = append(runs[i], tc.multiplyBoth(m, k, int64(90+j)).C)
		}
	}
	for j := range runs[0] {
		for e, v := range runs[0][j].Data {
			if w := runs[1][j].Data[e]; math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("matrix %d element %d: scalar inner %v (%#x), vector inner %v (%#x)",
					j, e, v, math.Float64bits(v), w, math.Float64bits(w))
			}
		}
	}
}
