package matrix

import "fmt"

// level is which body the inner loop runs: the Go loop, AVX2, or AVX2 with
// AxpyRow's AVX-512 tiles (Axpy has no AVX-512 body).
type level uint8

const (
	scalar level = iota
	avx2
	avx512
)

func (l level) String() string { return [...]string{"scalar", "avx2", "avx512"}[l] }

// vector is the one inner-loop switch. It is set once at init by cpuLevel
// (the CPU and the OS-saved register state on amd64; scalar elsewhere and in
// every -race build) and never again outside tests.
var vector = cpuLevel()

// vectorMin is the shortest row Axpy's vector body takes: below it the
// assembly would run only its own scalar tail (BenchmarkAxpy, DESIGN.md
// section 5). AxpyRow has no such floor: its one-column tile still shares the
// call and the c element across the pairs (BenchmarkAxpyRow).
const vectorMin = 4

// VectorInner reports whether Axpy and AxpyRow run a vector body.
func VectorInner() bool { return vector != scalar }

// InnerBody names the body AxpyRow runs: "scalar", "avx2" or "avx512".
func InnerBody() string { return vector.String() }

// Axpy computes c[j] += v * b[j] for j in [0, k): the inner loop, one
// nonzero at a time, under the overlay, GEMM and the ablation (the formats
// take a row's nonzeros through AxpyRow). Both bodies multiply, round, then
// add, lane by lane — never fused — so they agree bit for bit and so does
// everything built on them. The scalar loop serves float32, named element
// types, other architectures, short rows and -race builds.
func Axpy[T Float](c, b []T, v T, k int) {
	c = c[:k:k]
	b = b[:k:k]
	if vector != scalar && k >= vectorMin {
		if c64, ok := any(c).([]float64); ok {
			axpyAVX2(c64, any(b).([]float64), any(v).(float64))
			return
		}
	}
	axpyScalar(c, b, v)
}

// AxpyRow is the row entry: for one C row and a run of (col, val) pairs it
// writes c[t] = Σ_p vals[p] * b[cols[p]][t] for t in [0, len(c)), p
// ascending per element — bit for bit what clearing c and then feeding the
// same pairs through Axpy one by one leaves in it. With acc false the old
// contents of c are never read, and an empty run zeroes c. With acc true the
// run continues the row: each tile starts from c instead of +0, so
// c[t] += Σ_p, and a row cut into runs at any pair, the first written and
// the rest accumulated in order, holds the bits of one call over the whole
// row; an empty run leaves c as it is. The vector body walks c in tiles,
// widest first — the tile ladder, the one k loop every format has — and
// starts each tile's accumulators in registers, keeps them there across
// the pairs and stores the tile once; the AVX-512 body holds a whole
// 128-column tile, so each pair reads its B row in one sweep at the paper's
// k = 128. A column outside [0, b.Rows) panics, as the slice expression of a
// per-nonzero loop would. AxpyRowStrided and AxpyRowBlock are the same
// entry over pairs that a format does not store as a run.
func AxpyRow[T Float](c []T, b *Dense[T], cols []int32, vals []T, acc bool) {
	vals = vals[:len(cols)]
	if len(cols) == 0 || len(c) == 0 {
		start(c, acc)
		return
	}
	bd, rows := rowB(b, len(c))
	var bad int
	if c64, ok := any(c).([]float64); ok && vector != scalar {
		bad = axpyRowVec(c64, any(bd).([]float64), b.Stride, rows, cols, any(vals).([]float64), vector == avx512, acc)
	} else {
		start(c, acc)
		bad = axpyRowScalar(c, bd, b.Stride, rows, cols, vals, 1)
	}
	if bad >= 0 {
		badColumn(int(cols[bad]), b.Rows)
	}
}

// AxpyRowStrided is AxpyRow over n pairs stored step apart, read where the
// format keeps them: pair p is cols[p*step], vals[p*step]. A SELL-C-σ lane
// has step C, a column-major ELL row step Rows.
func AxpyRowStrided[T Float](c []T, b *Dense[T], cols []int32, vals []T, n, step int, acc bool) {
	if n <= 0 || len(c) == 0 {
		start(c, acc)
		return
	}
	if step < 1 {
		panic(fmt.Sprintf("matrix: AxpyRowStrided: step %d", step))
	}
	cols = cols[:(n-1)*step+1]
	vals = vals[:len(cols)]
	bd, rows := rowB(b, len(c))
	var bad int
	if c64, ok := any(c).([]float64); ok && vector != scalar {
		bad = axpyRowStridedVec(c64, any(bd).([]float64), b.Stride, rows, cols, any(vals).([]float64), step, vector == avx512, acc)
	} else {
		start(c, acc)
		bad = axpyRowScalar(c, bd, b.Stride, rows, cols, vals, step)
	}
	if bad >= 0 {
		badColumn(int(cols[bad]), b.Rows)
	}
}

// AxpyRowBlock is AxpyRow over one lane of a block row (a BCSR or BELL C
// row): slot s of the len(cols) slots holds the lane's bc values
// vals[s*vstep : s*vstep+bc], in columns cols[s]*bc + t. A ±0 value is fill
// and is skipped — the test is v == 0, so a NaN is never skipped — and the
// pairs left arrive in slot order, then column order, as a per-nonzero loop
// over the blocks takes them; a lane of fill alone zeroes c, or with acc
// leaves it as it is. A nonzero value in a column outside [0, b.Rows) panics.
func AxpyRowBlock[T Float](c []T, b *Dense[T], cols []int32, vals []T, bc, vstep int, acc bool) {
	if len(cols) == 0 || len(c) == 0 {
		start(c, acc)
		return
	}
	if bc < 1 || vstep < bc {
		panic(fmt.Sprintf("matrix: AxpyRowBlock: %d values a slot, %d apart", bc, vstep))
	}
	vals = vals[:(len(cols)-1)*vstep+bc]
	bd, rows := rowB(b, len(c))
	var bad int
	if c64, ok := any(c).([]float64); ok && vector != scalar {
		bad = axpyRowBlockVec(c64, any(bd).([]float64), b.Stride, rows, cols, any(vals).([]float64), bc, vstep, vector == avx512, acc)
	} else {
		start(c, acc)
		bad = axpyRowBlockScalar(c, bd, b.Stride, rows, cols, vals, bc, vstep)
	}
	if bad >= 0 {
		badColumn(int(cols[bad/bc])*bc+bad%bc, b.Rows)
	}
}

// start is what a run's sums start from outside the vector bodies: +0, by
// clearing c, unless the run continues the row (acc) and c holds them.
func start[T Float](c []T, acc bool) {
	if !acc {
		clear(c)
	}
}

// rowB is B as the row entry's bodies take it, and the number of rows a
// column may name. One slice expression covers every tile a column in
// [0, rows) can name — row rows-1 is the furthest — and every body checks
// each column it reads; with no rows, none is read.
func rowB[T Float](b *Dense[T], k int) ([]T, int) {
	if b.Rows <= 0 {
		return nil, 0
	}
	return b.Data[:(b.Rows-1)*b.Stride+k], b.Rows
}

// axpyRowScalar is the Go body of the contiguous (step 1) and strided row
// entries, with axpyRowVec's contract but for c, which it adds to — the
// entries clear it first unless the run continues the row (start), outside
// the loop's function: with the clear
// inside, the Go body read up to 2× slower per pair on the reference host
// (BenchmarkAxpyRow, scalar). The return is -1 or the index into cols of
// the first pair whose column is outside [0, rows).
func axpyRowScalar[T Float](c, b []T, stride, rows int, cols []int32, vals []T, step int) int {
	k := len(c)
	for p := 0; p < len(cols); p += step {
		col := cols[p]
		if uint(col) >= uint(rows) {
			return p
		}
		bo := int(col) * stride
		axpyScalar(c, b[bo:bo+k:bo+k], vals[p])
	}
	return -1
}

// axpyRowBlockScalar is the block lane's Go body, with axpyRowBlockVec's
// contract but for c, which it adds to as axpyRowScalar does: the return is
// -1 or s*bc + t for the first nonzero value, slot s and column t, whose
// column is outside [0, rows).
func axpyRowBlockScalar[T Float](c, b []T, stride, rows int, cols []int32, vals []T, bc, vstep int) int {
	k := len(c)
	for s, bcol := range cols {
		for t, v := range vals[s*vstep : s*vstep+bc] {
			if v == 0 {
				continue
			}
			col := int(bcol)*bc + t
			if uint(col) >= uint(rows) {
				return s*bc + t
			}
			bo := col * stride
			axpyScalar(c, b[bo:bo+k:bo+k], v)
		}
	}
	return -1
}

//go:noinline
func badColumn(col, rows int) {
	panic(fmt.Sprintf("matrix: AxpyRow: column %d outside the %d rows of B", col, rows))
}

// axpyScalar needs len(b) == len(c) pinned by its caller's full-slice
// expressions; inlined there, the loop carries no bounds check. Each inlined
// copy is register-allocated on its own, and which operand of a commutative
// add lands first decides whose payload survives when two NaNs meet: that
// the copies under Axpy and AxpyRow agree is tested, not given
// (TestAxpyRowBodiesBitwise; under -race instrumentation they do not).
func axpyScalar[T Float](c, b []T, v T) {
	for j := range c {
		c[j] += v * b[j]
	}
}
