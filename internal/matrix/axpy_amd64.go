//go:build !race

package matrix

// The assembly is left out of -race builds: the detector cannot see its
// stores, and the differential sweep under -race is what catches two workers
// sharing a C row.

//go:noescape
func axpyAVX2(c, b []float64, v float64)

//go:noescape
func axpyRowVec(c, b []float64, stride, rows int, cols []int32, vals []float64, zmm, acc bool) int

//go:noescape
func axpyRowStridedVec(c, b []float64, stride, rows int, cols []int32, vals []float64, step int, zmm, acc bool) int

//go:noescape
func axpyRowBlockVec(c, b []float64, stride, rows int, cols []int32, vals []float64, bc, vstep int, zmm, acc bool) int

func cpuLevel() level
