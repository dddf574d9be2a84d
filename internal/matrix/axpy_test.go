package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// axpySpecials are the values whose handling a vector body could get wrong
// while still passing on ordinary data: signed zeros and infinities, two
// NaNs that differ in sign and payload (x86 keeps the first source when two
// meet, so operand order shows), both ends of the subnormal range, and the
// overflow edge.
var axpySpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff8000000000123),
	5e-324, 1e-310, math.MaxFloat64, -math.MaxFloat64,
}

// axpyValue draws a special value one time in three, else a normal one at
// 10^±20 so sums overflow, cancel and go subnormal.
func axpyValue(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return axpySpecials[rng.Intn(len(axpySpecials))]
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(41)-20))
}

// setVector flips the inner-loop switch for the duration of the test.
func setVector(t testing.TB, on bool) {
	old := vector
	vector = on
	t.Cleanup(func() { vector = old })
}

// checkAxpyBodies runs entry over the same operands with the vector body on
// and off and requires identical bits in all of c, including the guard
// elements either side of [off, off+n).
func checkAxpyBodies(t *testing.T, name string, entry func(c, b []float64, v float64, k int), c0, b []float64, v float64, off, n int) {
	t.Helper()
	defer func(old bool) { vector = old }(vector)
	var out [2][]float64
	for i, on := range []bool{false, true} {
		vector = on
		out[i] = append([]float64(nil), c0...)
		entry(out[i][off:], b[off:], v, n)
	}
	for j := range c0 {
		if math.Float64bits(out[0][j]) != math.Float64bits(out[1][j]) {
			t.Fatalf("%s n=%d off=%d v=%v: c[%d] scalar %#x, vector %#x (c0=%v b=%v)", name, n, off, v, j-off,
				math.Float64bits(out[0][j]), math.Float64bits(out[1][j]), c0[j], b[j])
		}
	}
}

// TestAxpyBodiesBitwise: every length 0..257 at every element offset 0..3
// (so neither operand is 32-byte aligned in general), several draws each.
// On a build without the assembly both settings run the scalar loop and the
// test passes trivially.
func TestAxpyBodiesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 0; n <= 257; n++ {
		for off := 0; off < 4; off++ {
			for draw := 0; draw < 4; draw++ {
				c0 := make([]float64, off+n+4)
				b := make([]float64, off+n+4)
				for j := range c0 {
					c0[j], b[j] = axpyValue(rng), axpyValue(rng)
				}
				v := axpyValue(rng)
				checkAxpyBodies(t, "Axpy", Axpy[float64], c0, b, v, off, n)
				if n > 0 && n%8 == 0 {
					checkAxpyBodies(t, "AxpyWhole", AxpyWhole[float64], c0, b, v, off, n)
				}
			}
		}
	}
}

// TestAxpyScalarTypes: float32 and a named float64 never reach the
// assembly, whatever the switch says.
func TestAxpyScalarTypes(t *testing.T) {
	setVector(t, true)
	type named float64
	c32, b32 := make([]float32, 24), make([]float32, 24)
	cn, bn := make([]named, 24), make([]named, 24)
	for j := range c32 {
		c32[j], b32[j] = float32(j), float32(2*j+1)
		cn[j], bn[j] = named(j), named(2*j+1)
	}
	Axpy(c32, b32, 3, 24)
	AxpyWhole(cn, bn, 3, 24)
	for j := range c32 {
		if want := float32(j) + 3*float32(2*j+1); c32[j] != want || float32(cn[j]) != want {
			t.Fatalf("j=%d: float32 %v, named %v, want %v", j, c32[j], cn[j], want)
		}
	}
}

// TestAxpyZeroAlloc: the float64 dispatch must not box a slice header onto
// the heap.
func TestAxpyZeroAlloc(t *testing.T) {
	c, b := make([]float64, 128), make([]float64, 128)
	for _, on := range []bool{false, true} {
		setVector(t, on)
		if n := testing.AllocsPerRun(100, func() { Axpy(c, b, 1.5, 128); AxpyWhole(c, b, 1.5, 128) }); n != 0 {
			t.Errorf("vector=%v: %.0f allocs/op, want 0", on, n)
		}
	}
}

// FuzzAxpy lets the fuzzer pick the bit patterns: v, a seed for the
// operands, a length and an offset.
func FuzzAxpy(f *testing.F) {
	f.Add(uint64(0x7ff8000000000001), int64(1), uint16(37), uint8(1))
	f.Add(uint64(0x8000000000000000), int64(2), uint16(64), uint8(3))
	f.Add(uint64(1), int64(3), uint16(5), uint8(0))
	f.Fuzz(func(t *testing.T, vbits uint64, seed int64, n16 uint16, off8 uint8) {
		n, off := int(n16)%300, int(off8)%4
		rng := rand.New(rand.NewSource(seed))
		c0 := make([]float64, off+n+4)
		b := make([]float64, off+n+4)
		for j := range c0 {
			c0[j], b[j] = axpyValue(rng), math.Float64frombits(rng.Uint64())
		}
		checkAxpyBodies(t, "Axpy", Axpy[float64], c0, b, math.Float64frombits(vbits), off, n)
		if n -= n % 8; n > 0 {
			checkAxpyBodies(t, "AxpyWhole", AxpyWhole[float64], c0, b, math.Float64frombits(vbits), off, n)
		}
	})
}
