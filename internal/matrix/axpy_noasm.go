//go:build !amd64 || race

package matrix

// No vector body in this build: vector stays false, and a test that sets it
// finds the scalar loop behind both names.

func axpyAVX2(c, b []float64, v float64) { axpyScalar(c, b[:len(c)], v) }

func axpyRowAVX2(c, b []float64, stride, rows int, cols []int32, vals []float64) int {
	return axpyRowScalar(c, b, stride, rows, cols, vals)
}
