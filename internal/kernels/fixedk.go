package kernels

import "repro/internal/matrix"

// This file is the arithmetic of the thesis' manual-optimisation study
// (Study 9), which the formats' *Fixed range functions (InnerFixedK) call. The C++ suite used templates to "hard-code the value of k in
// the loop" so the compiler could unroll and vectorise; Go has no value
// generics, so the same effect is achieved with hand-unrolled panel
// kernels whose trip counts are compile-time constants, chained from
// widest to narrowest by axpyFixedTiled. The A value load is hoisted out
// of the k loop exactly as the thesis' optimisation does.
//
// Dispatch is by plain comparisons inside axpyFixedTiled rather than a
// func-value table: a generic func value carries an instantiation
// dictionary whose closure is heap-allocated per call, which the
// zero-allocation audit (alloc_test.go) forbids in the kernels' steady
// state.

// FixedKs lists the k values served by a single fully unrolled panel. Any
// other positive multiple of 8 is served by chaining those panels, so
// HasFixedK accepts the whole k % 8 == 0 family.
var FixedKs = []int{8, 16, 32, 64, 128}

// HasFixedK reports whether a specialised kernel exists for k: any
// positive multiple of 8.
func HasFixedK(k int) bool {
	return k > 0 && k%8 == 0
}

// axpy8 computes c[j] += v*b[j] for j in [0,8) with a fully unrolled body.
// The [:8] re-slices pin the trip count for the compiler.
func axpy8[T matrix.Float](c, b []T, v T) {
	c = c[:8]
	b = b[:8]
	c[0] += v * b[0]
	c[1] += v * b[1]
	c[2] += v * b[2]
	c[3] += v * b[3]
	c[4] += v * b[4]
	c[5] += v * b[5]
	c[6] += v * b[6]
	c[7] += v * b[7]
}

func axpy16[T matrix.Float](c, b []T, v T) {
	axpy8(c[:8], b[:8], v)
	axpy8(c[8:16], b[8:16], v)
}

func axpy32[T matrix.Float](c, b []T, v T) {
	axpy16(c[:16], b[:16], v)
	axpy16(c[16:32], b[16:32], v)
}

func axpy64[T matrix.Float](c, b []T, v T) {
	axpy32(c[:32], b[:32], v)
	axpy32(c[32:64], b[32:64], v)
}

func axpy128[T matrix.Float](c, b []T, v T) {
	axpy64(c[:64], b[:64], v)
	axpy64(c[64:128], b[64:128], v)
}

// axpyFixedTiled computes c[j] += v*b[j] for j in [0, k), k a positive
// multiple of 8, by chaining the unrolled panels from widest to narrowest.
// For the exact panel sizes (8..128) this collapses to the single unrolled
// call plus a handful of integer compares; for wider k it is the fixed-k
// rendition of the k-tiled inner loop. Every trip count the compiler sees
// is a constant.
func axpyFixedTiled[T matrix.Float](c, b []T, v T, k int) {
	for k >= 128 {
		axpy128(c, b, v)
		c, b, k = c[128:], b[128:], k-128
	}
	if k >= 64 {
		axpy64(c, b, v)
		c, b, k = c[64:], b[64:], k-64
	}
	if k >= 32 {
		axpy32(c, b, v)
		c, b, k = c[32:], b[32:], k-32
	}
	if k >= 16 {
		axpy16(c, b, v)
		c, b, k = c[16:], b[16:], k-16
	}
	if k >= 8 {
		axpy8(c, b, v)
	}
}
