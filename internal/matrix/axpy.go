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
// nonzero at a time, under the overlay, GEMM and the ablations (the formats
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

// AxpyRow is the row entry: for one C row tile and a run of (col, val)
// pairs it computes c[t] += Σ_p vals[p] * b[cols[p]][j0+t] for t in
// [0, len(c)), p ascending per element — bit for bit what feeding the same
// pairs through Axpy one by one leaves in c, for any starting c. The vector
// body keeps a tile of c in registers across the pairs, so c is loaded and
// stored once per row instead of once per nonzero; the AVX-512 body holds a
// whole 128-column tile, so each pair reads its B row in one sweep at the
// paper's k = 128. A column outside [0, b.Rows) panics, as the slice
// expression of a per-nonzero loop would.
func AxpyRow[T Float](c []T, b *Dense[T], j0 int, cols []int32, vals []T) {
	vals = vals[:len(cols)]
	k := len(c)
	if len(cols) == 0 || k == 0 {
		return
	}
	if b.Rows <= 0 {
		badColumn(cols[0], b.Rows)
	}
	// One slice expression covers every tile the pairs can name: row
	// b.Rows-1 is the furthest, and every body checks each column.
	bd := b.Data[j0 : (b.Rows-1)*b.Stride+j0+k]
	var bad int
	if c64, ok := any(c).([]float64); ok && vector != scalar {
		bad = axpyRowVec(c64, any(bd).([]float64), b.Stride, b.Rows, cols, any(vals).([]float64), vector == avx512)
	} else {
		bad = axpyRowScalar(c, bd, b.Stride, b.Rows, cols, vals)
	}
	if bad >= 0 {
		badColumn(cols[bad], b.Rows)
	}
}

// axpyRowScalar is the row entry's Go body, with axpyRowVec's contract: b
// starts at column j0 of row 0, and the return is -1 or the index of the
// first pair whose column is outside [0, rows).
func axpyRowScalar[T Float](c, b []T, stride, rows int, cols []int32, vals []T) int {
	k := len(c)
	for p, col := range cols {
		if uint(col) >= uint(rows) {
			return p
		}
		bo := int(col) * stride
		axpyScalar(c, b[bo:bo+k:bo+k], vals[p])
	}
	return -1
}

//go:noinline
func badColumn(col int32, rows int) {
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
