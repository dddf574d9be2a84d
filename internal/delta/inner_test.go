package delta

import (
	"math/rand"
	"testing"
	_ "unsafe" // for go:linkname

	"repro/internal/matrix"
)

// vectorInner is matrix's unexported inner-loop switch (see
// internal/kernels/inner_test.go).
//
//go:linkname vectorInner repro/internal/matrix.vector
var vectorInner bool

// TestOverlayApplyBothInners: Apply and the base kernel share matrix.Axpy,
// so base output + Apply must equal csr-serial over the merged matrix bit
// for bit whichever body each of the two ran — including a kernel on the
// vector body patched by an overlay on the scalar one, which is a replica
// without AVX2 replaying what its peer served. k = 37 walks the 16-wide
// loop, the 4-wide loop and the scalar tail.
func TestOverlayApplyBothInners(t *testing.T) {
	live := vectorInner
	defer func() { vectorInner = live }()
	const k = 37
	base := randomCOO(t, 40, 30, 0.2, 9)
	rng := rand.New(rand.NewSource(10))
	var ops []Op
	for i := 0; i < 60; i++ {
		ops = append(ops, Op{Row: int32(rng.Intn(40)), Col: int32(rng.Intn(30)), Val: rng.NormFloat64(), Del: rng.Intn(4) == 0})
	}
	var ov *Overlay
	ov, err := ov.Extend(base, ops)
	if err != nil {
		t.Fatal(err)
	}
	b := matrix.NewDenseRand[float64](base.Cols, k, 42)
	vectorInner = false
	want := serialResult(t, "csr", ov.Merge(), b, k)
	for _, kernelVec := range []bool{false, live} {
		for _, applyVec := range []bool{false, live} {
			vectorInner = kernelVec
			got := serialResult(t, "csr", base, b, k)
			vectorInner = applyVec
			ov.Apply(got, b, k)
			if !bitsEqual(got, want) {
				t.Fatalf("kernel vector=%v, apply vector=%v: base+overlay differs from csr-serial over the merged matrix", kernelVec, applyVec)
			}
		}
	}
}
