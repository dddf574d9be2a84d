package cluster

import (
	"math"
	"testing"
	_ "unsafe" // for go:linkname

	"repro/internal/matrix"
)

// vectorInner is matrix's unexported inner-loop level (see
// internal/kernels/inner_test.go).
//
//go:linkname vectorInner repro/internal/matrix.vector
var vectorInner uint8

// TestRoutedPanelsBothInners is the in-process stand-in for a fleet whose
// replicas differ in AVX2 and AVX-512 support: the same routed multiplies
// run with the whole process on each inner level the host has, each run
// checked against single-node serving, and every run's panels must agree bit
// for bit with the scalar run's — a failover between such replicas is
// invisible.
func TestRoutedPanelsBothInners(t *testing.T) {
	live := vectorInner
	if live == 0 {
		t.Skip("no vector inner in this build or on this CPU")
	}
	defer func() { vectorInner = live }()
	const k = 181 // every tile: 128 (AVX-512), 32, 16, 4 and the scalar one
	runs := make([][]*matrix.Dense[float64], live+1)
	for i := range runs {
		vectorInner = uint8(i)
		tc := newTestCluster(t, 2, nil)
		for j, m := range tc.registerMatrices(4) {
			runs[i] = append(runs[i], tc.multiplyBoth(m, k, int64(90+j)).C)
		}
	}
	for l := 1; l < len(runs); l++ {
		for j := range runs[0] {
			for e, v := range runs[0][j].Data {
				if w := runs[l][j].Data[e]; math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("matrix %d element %d: scalar inner %v (%#x), level %d %v (%#x)",
						j, e, v, math.Float64bits(v), l, w, math.Float64bits(w))
				}
			}
		}
	}
}
