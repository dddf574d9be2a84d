package delta

import (
	"math/rand"
	"testing"
	_ "unsafe" // for go:linkname

	"repro/internal/matrix"
)

// vectorInner is matrix's unexported inner-loop level (see
// internal/kernels/inner_test.go).
//
//go:linkname vectorInner repro/internal/matrix.vector
var vectorInner uint8

// TestOverlayApplyBothInners: Apply and the base kernel share the inner
// loop, so base output + Apply must equal csr-serial over the merged matrix
// bit for bit whichever level each of the two ran — including a kernel on a
// vector body patched by an overlay on the scalar one, which is a replica
// without AVX2 replaying what its peer served. k = 181 walks every tile of
// the row entry — 128 (AVX-512), 32, 16, 4 and the scalar one — and Axpy's
// 16-wide, 4-wide and scalar loops.
func TestOverlayApplyBothInners(t *testing.T) {
	live := vectorInner
	defer func() { vectorInner = live }()
	const k = 181
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
	vectorInner = 0
	want := serialResult(t, "csr", ov.Merge(), b, k)
	for kernelVec := uint8(0); kernelVec <= live; kernelVec++ {
		for applyVec := uint8(0); applyVec <= live; applyVec++ {
			vectorInner = kernelVec
			got := serialResult(t, "csr", base, b, k)
			vectorInner = applyVec
			ov.Apply(got, b, k)
			if !bitsEqual(got, want) {
				t.Fatalf("kernel level %d, apply level %d: base+overlay differs from csr-serial over the merged matrix", kernelVec, applyVec)
			}
		}
	}
}
