package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
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
			bd := &Dense[float64]{Rows: 1, Cols: 128, Stride: 128, Data: b}
			AxpyRow(c, bd, 0, []int32{0, 0}, []float64{1.5, 2})
			AxpyRowStrided(c, bd, 0, []int32{0, 0, 0}, []float64{1.5, 9, 2}, 2, 2)
			AxpyRowBlock(c, bd, 0, []int32{0, 0}, []float64{1.5, 9, 2}, 1, 2)
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

// checkRowLayout requires walk, which runs one of the row entry's in-place
// walks on the tile it is given, to leave in all of c0 under each body the
// bits the contiguous entry leaves under the Go body when handed the same
// pairs gathered into slices first, as the kernels once did.
func checkRowLayout(t *testing.T, name string, c0 []float64, off, k int, b *Dense[float64], j0 int, cols []int32, vals []float64, walk func(c []float64)) {
	t.Helper()
	defer func(old level) { vector = old }(vector)
	vector = scalar
	want := append([]float64(nil), c0...)
	AxpyRow(want[off:off+k:off+k], b, j0, cols, vals)
	for _, l := range levels() {
		vector = l
		got := append([]float64(nil), c0...)
		walk(got[off : off+k : off+k])
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) && (nanPayloads || got[j] == got[j] || want[j] == want[j]) {
				t.Fatalf("%s %v k=%d off=%d j0=%d pairs=%d: c[%d] = %#x, gathered %#x",
					name, l, k, off, j0, len(cols), j-off, math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
	}
}

// spread lays pairs out step apart, as a SELL-C-σ lane or a column-major ELL
// row stores them. The slots in between hold a column past B's rows and a
// NaN, which a walk that reads one would trip on.
func spread(cols []int32, vals []float64, step, rows int) ([]int32, []float64) {
	if len(cols) == 0 {
		return nil, nil
	}
	sc, sv := make([]int32, (len(cols)-1)*step+1), make([]float64, (len(cols)-1)*step+1)
	for i := range sc {
		sc[i], sv[i] = int32(rows), math.NaN()
	}
	for p := range cols {
		sc[p*step], sv[p*step] = cols[p], vals[p]
	}
	return sc, sv
}

// blockLane draws one lane of a block row as BCSR and BELL store it: slots
// block columns in [0, blockCols), each slot's bc values vstep apart with
// NaNs (another lane's values) in between, and about half the values ±0
// fill — all of column 0 of every block with zeroCol0. gcols and gvals are
// the lane's nonzeros gathered in slot order, then column order.
func blockLane(rng *rand.Rand, slots, bc, vstep, blockCols int, zeroCol0 bool, value func(*rand.Rand) float64) (cols []int32, vals []float64, gcols []int32, gvals []float64) {
	cols, vals = make([]int32, slots), make([]float64, max(0, (slots-1)*vstep+bc))
	for i := range vals {
		vals[i] = math.NaN()
	}
	for s := range cols {
		cols[s] = int32(rng.Intn(blockCols))
		for t := 0; t < bc; t++ {
			v := value(rng)
			if rng.Intn(2) == 0 || zeroCol0 && t == 0 {
				v = math.Copysign(0, float64(rng.Intn(2)*2-1))
			}
			vals[s*vstep+t] = v
			if v != 0 {
				gcols, gvals = append(gcols, cols[s]*int32(bc)+int32(t)), append(gvals, v)
			}
		}
	}
	return cols, vals, gcols, gvals
}

// blockShapes are the lane widths the block-lane walk is tested at — one
// column, the 2-, 3-, 4- and 5-wide blocks of Study 5 and one past 16 — each
// with a value step equal to the width (one-row blocks) and two past it.
var blockShapes = func() (shapes [][2]int) {
	for _, bc := range []int{1, 2, 3, 4, 5, 20} {
		for _, vstep := range []int{bc, bc + 3, 4 * bc} {
			shapes = append(shapes, [2]int{bc, vstep})
		}
	}
	return shapes
}()

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
	for _, k := range append([]int{0, 1, 2, 3, 4, 5, 8, 15, 16, 17, 20}, tileEdges...) {
		j0 := k % 2 * 3
		for _, step := range []int{1, 8, 13} {
			for _, n := range []int{1, 2, 33} {
				c0, b, cols, vals := rowOperands(rng, 9, k, 1, j0, n, axpyValue)
				sc, sv := spread(cols, vals, step, b.Rows)
				checkRowLayout(t, fmt.Sprintf("strided step=%d", step), c0, 1, k, b, j0, cols, vals, func(c []float64) {
					AxpyRowStrided(c, b, j0, sc, sv, n, step)
				})
			}
		}
		for _, bs := range blockShapes {
			bc, vstep := bs[0], bs[1]
			for _, slots := range []int{1, 2, 9} {
				for _, poison := range []bool{false, true} {
					c0, b, _, _ := rowOperands(rng, 3*bc, k, 1, j0, 0, axpyValue)
					if poison { // fill over Inf and NaN: skipped, it leaves them out of c
						for r := 0; r < b.Rows; r += bc {
							for j := 0; j < b.Stride; j++ {
								b.Data[r*b.Stride+j] = axpySpecials[2+(r+j)%4]
							}
						}
					}
					cols, vals, gcols, gvals := blockLane(rng, slots, bc, vstep, 3, poison, axpyValue)
					checkRowLayout(t, fmt.Sprintf("block bc=%d vstep=%d", bc, vstep), c0, 1, k, b, j0, gcols, gvals, func(c []float64) {
						AxpyRowBlock(c, b, j0, cols, vals, bc, vstep)
					})
				}
			}
		}
	}
}

// TestAxpyRowScalarTypes: float32 takes the Go body whatever the switch
// says, and agrees with Axpy pair by pair — read as a run, strided (the
// pairs two apart) or as a block lane (two 2-wide slots, a zero skipped).
func TestAxpyRowScalarTypes(t *testing.T) {
	setVector(t, avx512)
	b := NewDenseRand[float32](5, 24, 3)
	cols, vals := []int32{4, 0, 4, 2}, []float32{1.5, -2, 0.25, 3}
	want := make([]float32, 24)
	for p, col := range cols {
		Axpy(want, b.Row(int(col)), vals[p], 24)
	}
	for _, walk := range []struct {
		name string
		run  func(c []float32)
	}{
		{"run", func(c []float32) { AxpyRow(c, b, 0, cols, vals) }},
		{"strided", func(c []float32) {
			AxpyRowStrided(c, b, 0, []int32{4, 9, 0, 9, 4, 9, 2}, []float32{1.5, 7, -2, 7, 0.25, 7, 3}, 4, 2)
		}},
		{"block", func(c []float32) { // columns 2·2+0, 2·0+0, 2·2+0 again, 2·1+0; 0 is fill
			AxpyRowBlock(c, b, 0, []int32{2, 0, 2, 1}, []float32{1.5, 0, 7, -2, 0, 7, 0.25, 0, 7, 3, 0}, 2, 3)
		}},
	} {
		c := make([]float32, 24)
		walk.run(c)
		for j := range c {
			if c[j] != want[j] {
				t.Fatalf("%s j=%d: %v, want %v", walk.name, j, c[j], want[j])
			}
		}
	}
}

// TestAxpyRowColumnOutOfRange: a stored column that is negative or >= B.Rows
// panics under every body and every walk — also when it would still land
// inside B.Data — wherever in the run it sits (its first, a middle and its
// last pair or slot) and whichever tile width meets it, and nothing outside c
// is written. A vector body stores a tile only after its last pair, and the
// first tile it runs meets the bad pair, so under those c is left as it was.
// The panic names the column: for a block lane, that of the slot's first
// nonzero value.
func TestAxpyRowColumnOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, l := range levels() {
		setVector(t, l)
		for _, k := range []int{1, 3, 4, 16, 37, 128, 160, 300} {
			for _, bad := range []int32{9, 10, -1, math.MaxInt32, math.MinInt32} {
				for _, at := range []int{0, 17, 39} {
					c0, b, cols, vals := rowOperands(rng, 9, k, 2, 0, 40, axpyValue)
					cols[at] = bad
					sc, sv := spread(cols, vals, 5, b.Rows)
					checkBadColumn(t, fmt.Sprintf("%v k=%d: column %d at pair %d", l, k, bad, at), l, c0, k, int(bad), func(c []float64) {
						AxpyRow(c, b, 0, cols, vals)
					})
					checkBadColumn(t, fmt.Sprintf("%v k=%d strided: column %d at pair %d", l, k, bad, at), l, c0, k, int(bad), func(c []float64) {
						AxpyRowStrided(c, b, 0, sc, sv, len(cols), 5)
					})
				}
			}
			for _, bc := range []int{1, 3, 4} {
				for _, bad := range []int32{3, -1, math.MaxInt32, math.MinInt32} {
					for _, at := range []int{0, 6, 11} {
						c0, b, _, _ := rowOperands(rng, 3*bc, k, 2, 0, 0, axpyValue)
						cols, vals, _, _ := blockLane(rng, 12, bc, bc+1, 3, false, axpyValue)
						cols[at] = bad
						t0 := min(1, bc-1) // the slot's first value is fill, unless it is its only one
						for j := 0; j < bc; j++ {
							vals[at*(bc+1)+j] = float64(j + 1 - t0)
						}
						checkBadColumn(t, fmt.Sprintf("%v k=%d block bc=%d: block column %d at slot %d", l, k, bc, bad, at), l, c0, k, int(bad)*bc+t0, func(c []float64) {
							AxpyRowBlock(c, b, 0, cols, vals, bc, bc+1)
						})
					}
				}
			}
		}
	}
}

// checkBadColumn requires walk, run on the k-wide tile of c0 after its two
// guard elements, to panic naming column col, and to leave c0 as it was —
// all of it under a vector body, the guards under the Go body.
func checkBadColumn(t *testing.T, name string, l level, c0 []float64, k, col int, walk func(c []float64)) {
	t.Helper()
	got := append([]float64(nil), c0...)
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if want := fmt.Sprintf("column %d outside", col); !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q, want one naming %q", name, msg, want)
			}
		}()
		walk(got[2 : 2+k : 2+k])
	}()
	for j := range got {
		guard := j < 2 || j >= 2+k
		if (guard || l != scalar) && math.Float64bits(got[j]) != math.Float64bits(c0[j]) {
			t.Fatalf("%s: element %d written", name, j-2)
		}
	}
}

// FuzzAxpyRow lets the fuzzer pick the shape and, through the seed, every
// bit pattern of c, B and the values; walk picks the layout: a contiguous
// run, a strided one, or a block lane of one of blockShapes.
func FuzzAxpyRow(f *testing.F) {
	f.Add(int64(1), uint16(37), uint16(33), uint8(1), uint8(0), uint8(0))
	f.Add(int64(2), uint16(128), uint16(5), uint8(3), uint8(7), uint8(1))
	f.Add(int64(3), uint16(3), uint16(64), uint8(0), uint8(2), uint8(2))
	f.Add(int64(4), uint16(257), uint16(9), uint8(2), uint8(5), uint8(23))
	f.Add(int64(5), uint16(161), uint16(40), uint8(1), uint8(3), uint8(50))
	f.Add(int64(6), uint16(181), uint16(12), uint8(2), uint8(1), uint8(47))
	f.Fuzz(func(t *testing.T, seed int64, k16, n16 uint16, off8, j8, walk uint8) {
		k, n, off, j0 := int(k16)%300, int(n16)%100, int(off8)%4, int(j8)%9
		rng := rand.New(rand.NewSource(seed))
		bits := func(rng *rand.Rand) float64 {
			if rng.Intn(2) == 0 {
				return axpyValue(rng)
			}
			return math.Float64frombits(rng.Uint64())
		}
		switch walk % 3 {
		case 0:
			c0, b, cols, vals := rowOperands(rng, 1+int(n16)%7, k, off, j0, n, bits)
			checkAxpyRow(t, c0, off, k, b, j0, cols, vals)
		case 1:
			step := 1 + int(walk/3)%16
			c0, b, cols, vals := rowOperands(rng, 1+int(n16)%7, k, off, j0, n, bits)
			sc, sv := spread(cols, vals, step, b.Rows)
			checkRowLayout(t, fmt.Sprintf("strided step=%d", step), c0, off, k, b, j0, cols, vals, func(c []float64) {
				AxpyRowStrided(c, b, j0, sc, sv, n, step)
			})
		case 2:
			bs := blockShapes[int(walk/3)%len(blockShapes)]
			c0, b, _, _ := rowOperands(rng, 3*bs[0], k, off, j0, 0, bits)
			cols, vals, gcols, gvals := blockLane(rng, n%20, bs[0], bs[1], 3, false, bits)
			checkRowLayout(t, fmt.Sprintf("block bc=%d vstep=%d", bs[0], bs[1]), c0, off, k, b, j0, gcols, gvals, func(c []float64) {
				AxpyRowBlock(c, b, j0, cols, vals, bs[0], bs[1])
			})
		}
	})
}
