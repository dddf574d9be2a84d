package serve

import (
	"testing"
	_ "unsafe" // for go:linkname

	"repro/internal/matrix"
)

// vectorInner is matrix's unexported inner-loop switch (see
// internal/kernels/inner_test.go).
//
//go:linkname vectorInner repro/internal/matrix.vector
var vectorInner bool

// TestServeBothInners serves the same register / mutate / multiply script
// from a process on the scalar inner and from one on the vector inner — the
// in-process stand-in for replicas with and without AVX2. Every panel
// (kernel output patched by the overlay) must equal csr-serial over the
// merged content at its epoch, and the two runs' panels must agree bit for
// bit.
func TestServeBothInners(t *testing.T) {
	if !vectorInner {
		t.Skip("no vector inner in this build or on this CPU")
	}
	defer func() { vectorInner = true }()
	const k = 37 // 16-wide loop, 4-wide loop and scalar tail
	var runs [2][]*matrix.Dense[float64]
	for i, on := range []bool{false, true} {
		vectorInner = on
		_, client, teardown := newTestServer(t, Config{Threads: 2, CompactRatio: -1, CompactCost: -1})
		reg, local := registerSmall(t, client, 256, 200, 1500, 7)
		plan := buildDeltaPlan(t, local, 3, 16, 11)
		for b, ops := range plan.batches {
			if _, err := client.Mutate(reg.ID, ops); err != nil {
				t.Fatalf("vector=%v: mutate batch %d: %v", on, b+1, err)
			}
			bm := matrix.NewDenseRand[float64](reg.Cols, k, int64(100+b))
			res, err := client.Multiply(reg.ID, reg.Rows, bm, k, 0)
			if err != nil {
				t.Fatalf("vector=%v: multiply at epoch %d: %v", on, b+1, err)
			}
			if diff, _ := res.C.MaxAbsDiff(multiplyRef(t, plan.states[b+1], bm, k)); diff != 0 {
				t.Fatalf("vector=%v: epoch %d multiply differs from merged reference by %g", on, b+1, diff)
			}
			runs[i] = append(runs[i], res.C)
		}
		teardown()
	}
	for j := range runs[0] {
		if !bitsEqual(runs[0][j], runs[1][j]) {
			t.Fatalf("epoch %d: the panel served on the scalar inner differs from the one served on the vector inner", j+1)
		}
	}
}
