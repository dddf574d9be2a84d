package kernels

import (
	"fmt"
	"testing"
	_ "unsafe" // for go:linkname

	"repro/internal/matrix"
)

// vectorInner is matrix's unexported inner-loop level — 0 scalar, 1 AVX2,
// 2 AVX-512 — as init set it for this build and CPU. Tests reach it by
// linkname so that no build carries a knob; a level above the one init set
// would run instructions the CPU lacks.
//
//go:linkname vectorInner repro/internal/matrix.vector
var vectorInner uint8

// innerNames are the levels' subtest names; scalar and AVX2 keep the
// boolean-style names that recorded test IDs use.
var innerNames = [...]string{"vector=false", "vector=true", "vector=avx512"}

// eachInner runs f as a subtest under every level this build and CPU have —
// scalar, AVX2, AVX-512 — the sweep, the property test and the allocation
// audit hold under all of them or the lattice's bitwise contract depends on
// which machine served the request.
func eachInner(t *testing.T, f func(t *testing.T)) {
	live := vectorInner
	defer func() { vectorInner = live }()
	for l := uint8(0); l <= live; l++ {
		vectorInner = l
		t.Run(innerNames[l], f)
	}
}

// BenchmarkAxpy prices one inner-loop call per body and row length, operands
// L1-resident (2k flops per op). The k=128 vector row is the per-core ceiling
// every format's GFLOP/s is read against. Rows shorter than matrix.vectorMin
// run the scalar loop under either name; the constant was read off this table
// built with vectorMin = 0 (DESIGN.md section 5).
func BenchmarkAxpy(b *testing.B) {
	live := vectorInner
	defer func() { vectorInner = live }()
	c, x := make([]float64, 128), make([]float64, 128)
	for j := range x {
		x[j] = float64(j)
	}
	for l, body := range []string{"scalar", "vector"} {
		if uint8(l) > live {
			continue
		}
		for _, k := range []int{1, 2, 4, 8, 16, 32, 128} {
			b.Run(fmt.Sprintf("%s/k=%d", body, k), func(b *testing.B) {
				vectorInner = uint8(l)
				for i := 0; i < b.N; i++ {
					matrix.Axpy(c, x, 1e-9, k)
				}
				b.ReportMetric(2*float64(k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// BenchmarkAxpyRow prices the row entry per body on a run of gatherLen
// pairs, operands L1-resident (2·gatherLen·k flops per op): what a nonzero
// costs once the call and the C tile's load and store are shared by a row
// (DESIGN.md section 5, beside BenchmarkAxpy's table).
func BenchmarkAxpyRow(b *testing.B) {
	live := vectorInner
	defer func() { vectorInner = live }()
	x := matrix.NewDenseRand[float64](8, 128, 1)
	c := make([]float64, 128)
	var cols [gatherLen]int32
	var vals [gatherLen]float64
	for p := range cols {
		cols[p], vals[p] = int32(p*5%x.Rows), 1e-9
	}
	for l, body := range []string{"scalar", "avx2", "avx512"} {
		if uint8(l) > live {
			continue
		}
		for _, k := range []int{1, 2, 4, 8, 16, 32, 128} {
			b.Run(fmt.Sprintf("%s/k=%d", body, k), func(b *testing.B) {
				vectorInner = uint8(l)
				for i := 0; i < b.N; i++ {
					matrix.AxpyRow(c[:k], x, 0, cols[:], vals[:])
				}
				b.ReportMetric(2*gatherLen*float64(k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

var peakSink float64

// BenchmarkScalarPeak is the pure-Go roof: eight independent multiply-add
// chains with one memory operand each, the most the compiler's scalar SSE
// code can retire per core. ROADMAP item 4's machine.peak_gflops reads this.
func BenchmarkScalarPeak(b *testing.B) {
	x := make([]float64, 512)
	for j := range x {
		x[j] = 1 + float64(j)*1e-6
	}
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	const v = 0.999999
	for i := 0; i < b.N; i++ {
		for j := 0; j+8 <= len(x); j += 8 {
			p := x[j : j+8 : j+8]
			a0 += v * p[0]
			a1 += v * p[1]
			a2 += v * p[2]
			a3 += v * p[3]
			a4 += v * p[4]
			a5 += v * p[5]
			a6 += v * p[6]
			a7 += v * p[7]
		}
	}
	peakSink = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
	b.ReportMetric(2*float64(len(x))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}
