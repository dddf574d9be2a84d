package serve

import (
	"testing"
	_ "unsafe" // for go:linkname

	"repro/internal/matrix"
)

// vectorInner is matrix's unexported inner-loop level (see
// internal/kernels/inner_test.go).
//
//go:linkname vectorInner repro/internal/matrix.vector
var vectorInner uint8

// TestServeBothInners serves the same register / mutate / multiply script
// from a process on each inner level the host has — scalar, AVX2, AVX-512 —
// the in-process stand-in for replicas with and without the vector bodies.
// Every panel (kernel output patched by the overlay) must equal csr-serial
// over the merged content at its epoch, and each run's panels must agree bit
// for bit with the scalar run's.
func TestServeBothInners(t *testing.T) {
	live := vectorInner
	if live == 0 {
		t.Skip("no vector inner in this build or on this CPU")
	}
	defer func() { vectorInner = live }()
	const k = 181 // every tile: 128 (AVX-512), 32, 16, 4 and the scalar one
	runs := make([][]*matrix.Dense[float64], live+1)
	for l := range runs {
		vectorInner = uint8(l)
		_, client, teardown := newTestServer(t, Config{Threads: 2, CompactRatio: -1, CompactCost: -1})
		reg, local := registerSmall(t, client, 256, 200, 1500, 7)
		plan := buildDeltaPlan(t, local, 3, 16, 11)
		for b, ops := range plan.batches {
			if _, err := client.Mutate(reg.ID, ops); err != nil {
				t.Fatalf("level %d: mutate batch %d: %v", l, b+1, err)
			}
			bm := matrix.NewDenseRand[float64](reg.Cols, k, int64(100+b))
			res, err := client.Multiply(reg.ID, reg.Rows, bm, k, 0)
			if err != nil {
				t.Fatalf("level %d: multiply at epoch %d: %v", l, b+1, err)
			}
			if diff, _ := res.C.MaxAbsDiff(multiplyRef(t, plan.states[b+1], bm, k)); diff != 0 {
				t.Fatalf("level %d: epoch %d multiply differs from merged reference by %g", l, b+1, diff)
			}
			runs[l] = append(runs[l], res.C)
		}
		teardown()
	}
	for l := 1; l < len(runs); l++ {
		for j := range runs[0] {
			if !bitsEqual(runs[0][j], runs[l][j]) {
				t.Fatalf("epoch %d: the panel served on the scalar inner differs from the one served on level %d", j+1, l)
			}
		}
	}
}
