//go:build !amd64 || race

package matrix

// No vector body in this build: vector stays scalar, and a test that sets it
// finds the scalar loop behind every name.

func cpuLevel() level { return scalar }

func axpyAVX2(c, b []float64, v float64) { axpyScalar(c, b[:len(c)], v) }

func axpyRowVec(c, b []float64, stride, rows int, cols []int32, vals []float64, zmm bool) int {
	return axpyRowScalar(c, b, stride, rows, cols, vals, 1)
}

func axpyRowStridedVec(c, b []float64, stride, rows int, cols []int32, vals []float64, step int, zmm bool) int {
	return axpyRowScalar(c, b, stride, rows, cols, vals, step)
}

func axpyRowBlockVec(c, b []float64, stride, rows int, cols []int32, vals []float64, bc, vstep int, zmm bool) int {
	return axpyRowBlockScalar(c, b, stride, rows, cols, vals, bc, vstep)
}
