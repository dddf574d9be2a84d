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

// probed is the level init chose for this host.
var probed = vector

// levels are the bodies this build and CPU can run, scalar first: setting
// vector above probed would execute instructions the CPU lacks.
func levels() []level {
	var ls []level
	for l := scalar; l <= probed; l++ {
		ls = append(ls, l)
	}
	return ls
}

// setVector flips the inner-loop switch for the duration of the test.
func setVector(t testing.TB, l level) {
	old := vector
	vector = l
	t.Cleanup(func() { vector = old })
}

// checkAxpyBodies runs entry over the same operands under every level and
// requires the scalar body's bits in all of c, including the guard elements
// either side of [off, off+n).
func checkAxpyBodies(t *testing.T, name string, entry func(c, b []float64, v float64, k int), c0, b []float64, v float64, off, n int) {
	t.Helper()
	defer func(old level) { vector = old }(vector)
	var want []float64
	for _, l := range levels() {
		vector = l
		got := append([]float64(nil), c0...)
		entry(got[off:], b[off:], v, n)
		if l == scalar {
			want = got
			continue
		}
		for j := range c0 {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s n=%d off=%d v=%v: c[%d] scalar %#x, %v %#x (c0=%v b=%v)", name, n, off, v, j-off,
					math.Float64bits(want[j]), l, math.Float64bits(got[j]), c0[j], b[j])
			}
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
			}
		}
	}
}

// TestAxpyScalarTypes: float32 and a named float64 never reach the
// assembly, whatever the switch says.
func TestAxpyScalarTypes(t *testing.T) {
	setVector(t, avx512)
	type named float64
	c32, b32 := make([]float32, 24), make([]float32, 24)
	cn, bn := make([]named, 24), make([]named, 24)
	for j := range c32 {
		c32[j], b32[j] = float32(j), float32(2*j+1)
		cn[j], bn[j] = named(j), named(2*j+1)
	}
	Axpy(c32, b32, 3, 24)
	Axpy(cn, bn, 3, 24)
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
	for _, l := range levels() {
		setVector(t, l)
		if n := testing.AllocsPerRun(100, func() {
			Axpy(c, b, 1.5, 128)
			AxpyRow(c, &Dense[float64]{Rows: 1, Cols: 128, Stride: 128, Data: b}, 0, []int32{0, 0}, []float64{1.5, 2})
		}); n != 0 {
			t.Errorf("%v: %.0f allocs/op, want 0", l, n)
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
	})
}

// rowOperands draws a B of `rows` rows whose Stride exceeds j0+k (so a panel
// at j0 > 0 of a wider matrix is covered), n pairs over it and a c0 with
// `off` guard elements before the k-wide tile and four after.
func rowOperands(rng *rand.Rand, rows, k, off, j0, n int, value func(*rand.Rand) float64) (c0 []float64, b *Dense[float64], cols []int32, vals []float64) {
	b = &Dense[float64]{Rows: rows, Cols: j0 + k + 2, Stride: j0 + k + 5}
	b.Data = make([]float64, (rows+2)*b.Stride) // slack: a column == rows is inside Data
	for i := range b.Data {
		b.Data[i] = value(rng)
	}
	c0 = make([]float64, off+k+4)
	for i := range c0 {
		c0[i] = value(rng)
	}
	cols, vals = make([]int32, n), make([]float64, n)
	for p := range cols {
		cols[p], vals[p] = int32(rng.Intn(rows)), value(rng)
	}
	return c0, b, cols, vals
}

// nanPayloads is whether two NaNs must also agree in sign and payload. The
// -race build turns it off for the row entry: its instrumented copies of the
// Go loop order a commutative add differently, and no vector body exists
// there for the payloads to matter to.
var nanPayloads = true

// checkAxpyRow requires AxpyRow, under each body, to leave in all of c0 —
// guards included — the bits that feeding the same pairs through the scalar
// Axpy one by one leaves.
func checkAxpyRow(t *testing.T, c0 []float64, off, k int, b *Dense[float64], j0 int, cols []int32, vals []float64) {
	t.Helper()
	defer func(old level) { vector = old }(vector)
	vector = scalar
	want := append([]float64(nil), c0...)
	for p, col := range cols {
		bo := int(col)*b.Stride + j0
		Axpy(want[off:], b.Data[bo:], vals[p], k)
	}
	for _, l := range levels() {
		vector = l
		got := append([]float64(nil), c0...)
		AxpyRow(got[off:off+k:off+k], b, j0, cols, vals)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) && (nanPayloads || got[j] == got[j] || want[j] == want[j]) {
				t.Fatalf("%v k=%d off=%d j0=%d n=%d: c[%d] = %#x, pair by pair %#x",
					l, k, off, j0, len(cols), j-off, math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
	}
}

// tileEdges are lengths either side of every tile boundary of both vector
// bodies: 32 and 128 columns and their sums with the 16-, 4- and 1-wide
// tails.
var tileEdges = []int{31, 32, 33, 127, 128, 129, 160, 161, 255, 256, 257, 300}

// specialValue draws a special value two times in three: whole lanes of
// NaNs with distinct payloads, signed zeros, infinities and subnormals
// meeting each other, where operand order shows.
func specialValue(rng *rand.Rand) float64 {
	if rng.Intn(3) != 0 {
		return axpySpecials[rng.Intn(len(axpySpecials))]
	}
	return axpyValue(rng)
}

// TestAxpyRowBodiesBitwise: every tile width and the tail (k 0..257 and 300
// at offsets 0..3), run lengths either side of the kernels' gather buffer
// (32) and one of torso1's longest row, a starting c that is never zero, and
// panels at j0 > 0 of a B wider than the tile; at the tile edges again with
// mostly special values.
func TestAxpyRowBodiesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ks := make([]int, 0, 259)
	for k := 0; k <= 257; k++ {
		ks = append(ks, k)
	}
	for _, k := range append(ks, 300) {
		for off := 0; off < 4; off++ {
			ns := []int{0, 1, 31, 32, 33}
			if k%43 == 0 {
				ns = append(ns, 3263)
			}
			for _, n := range ns {
				j0 := (k + off) % 2 * 5
				c0, b, cols, vals := rowOperands(rng, 9, k, off, j0, n, axpyValue)
				checkAxpyRow(t, c0, off, k, b, j0, cols, vals)
			}
		}
	}
	for _, k := range tileEdges {
		for _, j0 := range []int{0, 3, 128} {
			for _, n := range []int{1, 2, 7, 33} {
				c0, b, cols, vals := rowOperands(rng, 5, k, 1, j0, n, specialValue)
				checkAxpyRow(t, c0, 1, k, b, j0, cols, vals)
			}
		}
	}
}

// TestAxpyRowScalarTypes: float32 takes the Go body whatever the switch
// says, and agrees with Axpy pair by pair.
func TestAxpyRowScalarTypes(t *testing.T) {
	setVector(t, avx512)
	b := NewDenseRand[float32](5, 24, 3)
	c, want := make([]float32, 24), make([]float32, 24)
	cols, vals := []int32{4, 0, 4, 2}, []float32{1.5, -2, 0.25, 3}
	AxpyRow(c, b, 0, cols, vals)
	for p, col := range cols {
		Axpy(want, b.Row(int(col)), vals[p], 24)
	}
	for j := range c {
		if c[j] != want[j] {
			t.Fatalf("j=%d: %v, want %v", j, c[j], want[j])
		}
	}
}

// TestAxpyRowColumnOutOfRange: a stored column that is negative or >= B.Rows
// panics under every body — also when it would still land inside B.Data —
// wherever in the run it sits (its first, a middle and its last pair) and
// whichever tile width meets it, and nothing outside c is written. A vector
// body stores a tile only after its last pair, and the first tile it runs
// meets the bad pair, so under those c is left as it was.
func TestAxpyRowColumnOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, l := range levels() {
		setVector(t, l)
		for _, k := range []int{1, 3, 4, 16, 37, 128, 160, 300} {
			for _, bad := range []int32{9, 10, -1, math.MaxInt32, math.MinInt32} {
				for _, at := range []int{0, 17, 39} {
					c0, b, cols, vals := rowOperands(rng, 9, k, 2, 0, 40, axpyValue)
					cols[at] = bad
					got := append([]float64(nil), c0...)
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("%v k=%d: column %d at pair %d did not panic", l, k, bad, at)
							}
						}()
						AxpyRow(got[2:2+k:2+k], b, 0, cols, vals)
					}()
					for j := range got {
						guard := j < 2 || j >= 2+k
						if (guard || l != scalar) && math.Float64bits(got[j]) != math.Float64bits(c0[j]) {
							t.Fatalf("%v k=%d: column %d at pair %d: element %d written", l, k, bad, at, j-2)
						}
					}
				}
			}
		}
	}
}

// FuzzAxpyRow lets the fuzzer pick the shape and, through the seed, every
// bit pattern of c, B and the values.
func FuzzAxpyRow(f *testing.F) {
	f.Add(int64(1), uint16(37), uint16(33), uint8(1), uint8(0))
	f.Add(int64(2), uint16(128), uint16(5), uint8(3), uint8(7))
	f.Add(int64(3), uint16(3), uint16(64), uint8(0), uint8(2))
	f.Add(int64(4), uint16(257), uint16(9), uint8(2), uint8(5))
	f.Add(int64(5), uint16(161), uint16(40), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, k16, n16 uint16, off8, j8 uint8) {
		k, n, off, j0 := int(k16)%300, int(n16)%100, int(off8)%4, int(j8)%9
		rng := rand.New(rand.NewSource(seed))
		bits := func(rng *rand.Rand) float64 {
			if rng.Intn(2) == 0 {
				return axpyValue(rng)
			}
			return math.Float64frombits(rng.Uint64())
		}
		c0, b, cols, vals := rowOperands(rng, 1+int(n16)%7, k, off, j0, n, bits)
		checkAxpyRow(t, c0, off, k, b, j0, cols, vals)
	})
}
