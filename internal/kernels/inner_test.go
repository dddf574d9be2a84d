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

// BenchmarkAxpyRow prices the row entry per layout and body, one call on a
// row of pairs with its operands L1-resident (2·pairs·k flops per op): what a
// nonzero costs once the call and the C tile's load and store are shared by
// a row (DESIGN.md section 5, beside BenchmarkAxpy's table). The layouts are
// the three ways the formats store a row: a contiguous run (CSR, COO,
// row-major ELL), the same pairs 8 slots apart (a SELL-C-σ lane, C = 8), and
// one lane of 16 4×4 blocks with 31 of its 64 values nonzero (BCSR and BELL
// on cant fill 49 % of each block), whose fill is read and skipped.
func BenchmarkAxpyRow(b *testing.B) {
	const run, step, slots = 32, 8, 16
	live := vectorInner
	defer func() { vectorInner = live }()
	x := matrix.NewDenseRand[float64](16, 128, 1)
	c := make([]float64, 128)
	cols, vals := make([]int32, run*step), make([]float64, run*step)
	for p := 0; p < run; p++ {
		cols[p*step], vals[p*step] = int32(p*5%x.Rows), 1e-9
	}
	bcols, bvals, nnz := make([]int32, slots), make([]float64, slots*16), 0
	for s := range bcols {
		bcols[s] = int32(s * 3 % 4)
		for t := 0; t < 4; t++ {
			if (s*4+t)*37%64 < 31 {
				bvals[s*16+t] = 1e-9
				nnz++
			}
		}
	}
	runCols, runVals := make([]int32, run), make([]float64, run)
	for p := range runCols {
		runCols[p], runVals[p] = cols[p*step], vals[p*step]
	}
	for _, layout := range []struct {
		name  string
		pairs int
		call  func(c []float64)
	}{
		{"contiguous", run, func(c []float64) { matrix.AxpyRow(c, x, 0, runCols, runVals) }},
		{"strided", run, func(c []float64) { matrix.AxpyRowStrided(c, x, 0, cols, vals, run, step) }},
		{"block", nnz, func(c []float64) { matrix.AxpyRowBlock(c, x, 0, bcols, bvals, 4, 16) }},
	} {
		for l, body := range []string{"scalar", "avx2", "avx512"} {
			if uint8(l) > live {
				continue
			}
			for _, k := range []int{1, 2, 4, 8, 16, 32, 128} {
				b.Run(fmt.Sprintf("%s/%s/k=%d", layout.name, body, k), func(b *testing.B) {
					vectorInner = uint8(l)
					for i := 0; i < b.N; i++ {
						layout.call(c[:k])
					}
					b.ReportMetric(2*float64(layout.pairs)*float64(k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
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
